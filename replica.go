package disclosure

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/wal"
)

// replayState is the apply side of the write-ahead log, shared by crash
// recovery (Durable) and replication (Replica): a System being rebuilt
// from checkpoints plus logged operations, and the token table that rides
// along with it. A logged session transition carries the absolute state
// the primary's monitor moved to, so applying it is an install, not a
// decision: nothing is parsed, labeled or re-decided, a record applied
// twice changes nothing, and a prefix of one shard's log always yields
// exactly the session state the primary had after those records
// (TestDurablePrefixReplayDeterminism pins this).
type replayState struct {
	sys *System

	// tokens maps principal → submission token; owners is its inverse, the
	// authentication lookup of a follower's every request. Both are written
	// by setToken and dropToken only.
	tokMu  sync.Mutex
	tokens map[string]string
	owners map[string]string

	// epoch is the decision epoch the state decides (or was decided)
	// under; fencedBy, when non-zero, is the higher epoch that superseded
	// it. Both are restored from checkpoints and advanced by EpochOp
	// records, so the epoch travels with the replayable history.
	epoch    atomic.Uint64
	fencedBy atomic.Uint64
}

// restoreEpoch adopts a checkpoint's epoch fields. A pre-epoch archive
// (zero epoch) loads as epoch 1: every deployment starts there.
func (rs *replayState) restoreEpoch(ck *wal.Checkpoint) {
	e := ck.Epoch
	if e == 0 {
		e = 1
	}
	if e > rs.epoch.Load() {
		rs.epoch.Store(e)
	}
	if ck.FencedBy > rs.fencedBy.Load() {
		rs.fencedBy.Store(ck.FencedBy)
	}
}

// restoreRows loads a meta checkpoint's rows into the freshly built
// System. It runs before any replay and before a Durable is attached, so
// nothing here is re-logged.
func (rs *replayState) restoreRows(ck *wal.Checkpoint) error {
	if len(ck.Rows) == 0 {
		return nil
	}
	return rs.sys.db.Load(func(ld *engine.Loader) error {
		for _, r := range ck.Rows {
			if err := ld.Insert(r.Rel, r.Values...); err != nil {
				return err
			}
		}
		return nil
	})
}

// restorePrincipals installs one data-shard checkpoint's principals —
// policy, live partitions, cumulative disclosure, the session counts as of
// the checkpoint — and tokens. Shards restore disjoint principal sets, so parallel recovery
// goroutines never collide on a principal.
func (rs *replayState) restorePrincipals(ck *wal.Checkpoint) error {
	sys := rs.sys
	for _, ps := range ck.Principals {
		p, err := policy.New(sys.cat, ps.Partitions)
		if err != nil {
			return fmt.Errorf("principal %q: %w", ps.Name, err)
		}
		cum, err := sys.cat.LabelFromViewSets(ps.Cumulative)
		if err != nil {
			return fmt.Errorf("principal %q: %w", ps.Name, err)
		}
		m, err := policy.RestoreMonitor(p, ps.Live, cum, ps.Accepted, ps.Refused)
		if err != nil {
			return fmt.Errorf("principal %q: %w", ps.Name, err)
		}
		sys.store.Install(ps.Name, m)
	}
	for principal, token := range ck.Tokens {
		rs.setToken(principal, token)
	}
	return nil
}

// seedTokens starts the token table from a principal → token map, which
// it takes over.
func (rs *replayState) seedTokens(tokens map[string]string) {
	rs.tokens = tokens
	rs.owners = make(map[string]string, len(tokens))
	for principal, token := range tokens {
		rs.owners[token] = principal
	}
}

// copyTokens returns a copy of the current principal → token map.
func (rs *replayState) copyTokens() map[string]string {
	rs.tokMu.Lock()
	defer rs.tokMu.Unlock()
	return maps.Clone(rs.tokens)
}

// setToken makes token the principal's submission token; the one it
// supersedes stops resolving.
func (rs *replayState) setToken(principal, token string) {
	rs.tokMu.Lock()
	defer rs.tokMu.Unlock()
	if old, ok := rs.tokens[principal]; ok {
		delete(rs.owners, old)
	}
	rs.tokens[principal], rs.owners[token] = token, principal
}

// dropToken forgets the principal's submission token.
func (rs *replayState) dropToken(principal string) {
	rs.tokMu.Lock()
	defer rs.tokMu.Unlock()
	delete(rs.owners, rs.tokens[principal])
	delete(rs.tokens, principal)
}

// applyOp applies one logged operation to the System without re-logging
// and without making any admission decision. Each shard's replay order
// equals its original apply order, and all of one principal's operations
// live in one shard's log, so per-principal apply order — the only order
// the monitor semantics depend on — is reproduced exactly even when shards
// replay in parallel (recovery) or interleave differently than they did
// live (a follower). A transition leaves the accepted/refused tallies
// alone: only checkpoints carry them.
func (rs *replayState) applyOp(op *wal.Op) error {
	sys := rs.sys
	switch {
	case op.Rows != nil:
		return sys.db.Load(func(ld *engine.Loader) error {
			for _, r := range op.Rows.Rows {
				if err := ld.Insert(r.Rel, r.Values...); err != nil {
					return err
				}
			}
			return nil
		})
	case op.Policy != nil:
		p, err := policy.New(sys.cat, op.Policy.Partitions)
		if err != nil {
			return fmt.Errorf("policy for %q: %w", op.Policy.Principal, err)
		}
		sys.store.SetPolicy(op.Policy.Principal, p)
	case op.Remove != nil:
		sys.store.Remove(op.Remove.Principal)
		rs.dropToken(op.Remove.Principal)
	case op.Token != nil:
		rs.setToken(op.Token.Principal, op.Token.Token)
	case op.Epoch != nil:
		// Epochs only move forward; a re-applied stamp for the current
		// epoch is a no-op.
		if op.Epoch.Fenced {
			if op.Epoch.Epoch > rs.fencedBy.Load() {
				rs.fencedBy.Store(op.Epoch.Epoch)
			}
		} else if op.Epoch.Epoch > rs.epoch.Load() {
			rs.epoch.Store(op.Epoch.Epoch)
		}
	case op.Transition != nil:
		t := op.Transition
		cum, err := sys.cat.LabelFromViewSets(t.Cumulative)
		if err == nil {
			if derr := sys.store.Do(t.Principal, func(m *Monitor) { err = m.Restore(t.Live, cum) }); derr != nil {
				err = derr
			}
		}
		if err != nil {
			return fmt.Errorf("transition of %q: %w", t.Principal, err)
		}
	default:
		return fmt.Errorf("empty operation record")
	}
	return nil
}

// Replica is an apply-only copy of a durable deployment: a System built
// from a primary's shipped checkpoints and advanced by applying its logged
// operations in shard order — the replication layer's in-memory state.
// Unlike Durable it owns no directory and no log: a replica is disposable
// by design, and a crashed or hopelessly lagged follower simply rebuilds
// one from fresh checkpoints.
//
// A Replica never admits anything on its own. Applying a logged transition
// installs the state the primary's decision moved to, which keeps the
// replica's sessions — live partitions and cumulative disclosure —
// converging to the primary's; the accepted/refused tallies stay those of
// the checkpoints it was built from, because decisions that change nothing
// never ship. What a replica holds of a session is always a prefix of its
// transitions, and that is enough to refuse: (1) within one policy
// installation a session's live partitions only shrink; (2) so a prefix's
// live set contains the primary's; (3) so a label the replica's session
// refuses, the primary's refuses too. Once Follow has attached the primary,
// the replica's System decides fresh submissions on that split: admits are
// primary-current, always by decision RPC (internal/repl); a refusal is the
// primary's or the in-contact replica's, and the two agree within one
// policy installation. A policy install or removal the replica has not
// applied yet is the one exception: it can make a local refusal outlive the
// session it was decided on by at most one poll interval, never an admit.
//
// Concurrency: Apply and RestoreShard must be called from one goroutine at
// a time (the follower's sync loop); every read — System's read surface,
// TokenOwner, Epoch — is safe concurrently with them.
type Replica struct {
	replayState
}

// NewReplica builds a replica from a primary's meta-shard checkpoint: the
// System is constructed from the checkpointed configuration (schema and
// security views) and loaded with the checkpointed rows. Data-shard
// checkpoints are installed afterwards with RestoreShard, and the log
// tails replayed on top with Apply.
func NewReplica(meta *wal.Checkpoint) (*Replica, error) {
	if meta.Shard != "" && meta.Shard != wal.MetaShard {
		return nil, fmt.Errorf("disclosure: replica bootstrap needs the meta-shard checkpoint, got shard %q", meta.Shard)
	}
	sys, err := systemFromConfig(meta.Config)
	if err != nil {
		return nil, fmt.Errorf("disclosure: rebuilding system from shipped checkpoint: %w", err)
	}
	r := &Replica{replayState: replayState{sys: sys}}
	r.seedTokens(map[string]string{})
	r.restoreEpoch(meta)
	if err := r.restoreRows(meta); err != nil {
		return nil, fmt.Errorf("disclosure: restoring shipped rows: %w", err)
	}
	return r, nil
}

// Epoch returns the decision epoch of the replicated state: the epoch the
// primary the replica was bootstrapped from decides under, advanced by any
// EpochOp records applied since.
func (r *Replica) Epoch() uint64 { return r.epoch.Load() }

// RestoreShard installs one data-shard checkpoint: its principals'
// policies, sessions and tokens.
func (r *Replica) RestoreShard(ck *wal.Checkpoint) error {
	if ck.Shard == wal.MetaShard {
		return fmt.Errorf("disclosure: RestoreShard got the meta-shard checkpoint")
	}
	if err := r.restorePrincipals(ck); err != nil {
		return fmt.Errorf("disclosure: restoring shipped shard %s: %w", ck.Shard, err)
	}
	return nil
}

// Follow attaches the primary the replica's System sends its would-be admits
// to (System.decideReplica). Call it before the replica is shared.
func (r *Replica) Follow(up Upstream) { r.sys.up = up }

// Apply applies one logged operation shipped from the primary, without
// re-logging it and without deciding anything anew.
func (r *Replica) Apply(op *wal.Op) error { return r.applyOp(op) }

// System returns the replica's System. Its read surface (evaluations,
// explains, stats, sessions) and — after Follow — its submit pipeline are
// safe to serve from; its write surface must not be used — replica state
// advances only through Apply.
func (r *Replica) System() *System { return r.sys }

// TokenOwner resolves a replicated submission token to its principal — the
// follower serving layer's authentication lookup.
func (r *Replica) TokenOwner(token string) (string, bool) {
	r.tokMu.Lock()
	defer r.tokMu.Unlock()
	principal, ok := r.owners[token]
	return principal, ok
}
