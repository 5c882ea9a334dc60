package policy

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/label"
)

// ErrUnknownPrincipal is returned by ConcurrentStore operations on a
// principal that has no installed policy; match it with errors.Is.
var ErrUnknownPrincipal = errors.New("policy: unknown principal")

// ConcurrentStore is a thread-safe multi-principal policy store: the one
// the daemon decides with, and the one Figure 6 times. Each principal's
// monitor is guarded by its own mutex (decisions mutate per-principal
// liveness bits), so submissions for different principals proceed in
// parallel.
type ConcurrentStore struct {
	mu       sync.RWMutex // guards the principal map itself
	monitors map[string]*lockedMonitor
}

type lockedMonitor struct {
	mu  sync.Mutex
	mon *Monitor
}

// NewConcurrentStore creates an empty concurrent store.
func NewConcurrentStore() *ConcurrentStore {
	return &ConcurrentStore{monitors: make(map[string]*lockedMonitor)}
}

// SetPolicy installs (or replaces) a principal's policy, resetting its
// session state.
func (s *ConcurrentStore) SetPolicy(principal string, p *Policy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.monitors[principal] = &lockedMonitor{mon: NewMonitor(p)}
}

// Remove deletes a principal.
func (s *ConcurrentStore) Remove(principal string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.monitors, principal)
}

// Len returns the number of principals.
func (s *ConcurrentStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.monitors)
}

// Has reports whether the principal has an installed policy.
func (s *ConcurrentStore) Has(principal string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.monitors[principal]
	return ok
}

// locked looks up a principal's monitor, or fails with ErrUnknownPrincipal.
func (s *ConcurrentStore) locked(principal string) (*lockedMonitor, error) {
	s.mu.RLock()
	lm, ok := s.monitors[principal]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownPrincipal, principal)
	}
	return lm, nil
}

// Submit decides a label for a principal.
func (s *ConcurrentStore) Submit(principal string, l label.Label) (Decision, error) {
	lm, err := s.locked(principal)
	if err != nil {
		return Decision{}, err
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.mon.Submit(l), nil
}

// Do runs f with the principal's monitor under its lock, for compound
// operations (rendering explanations, coupled check-then-submit) that need
// a consistent view of one principal's session state. f must not call back
// into the store.
func (s *ConcurrentStore) Do(principal string, f func(*Monitor)) error {
	lm, err := s.locked(principal)
	if err != nil {
		return err
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	f(lm.mon)
	return nil
}

// Each runs f with every principal's monitor under its lock, in sorted
// principal order — a deterministic iteration for checkpointing. f must
// not call back into the store. Principals installed or removed while the
// iteration runs may or may not be visited.
func (s *ConcurrentStore) Each(f func(principal string, m *Monitor)) {
	s.mu.RLock()
	names := make([]string, 0, len(s.monitors))
	for n := range s.monitors {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	for _, n := range names {
		s.mu.RLock()
		lm, ok := s.monitors[n]
		s.mu.RUnlock()
		if !ok {
			continue
		}
		lm.mu.Lock()
		f(n, lm.mon)
		lm.mu.Unlock()
	}
}

// Snapshot returns the principal's live partitions.
func (s *ConcurrentStore) Snapshot(principal string) ([]string, error) {
	lm, err := s.locked(principal)
	if err != nil {
		return nil, err
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.mon.LiveNames(), nil
}
