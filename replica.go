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

// replayState is the apply side of the durability layer, shared by crash
// recovery (Durable) and replication (Replica): a System being rebuilt
// from records — a checkpoint's, then the log's, one vocabulary applied by
// one function (applyOp) — and the token table that rides along with it. A
// session transition record carries an absolute state, so applying it is
// an install, not a decision: nothing is parsed, labeled or re-decided, a
// record applied twice changes nothing, and a prefix of one shard's log
// always yields exactly the session state the primary had after those
// records (TestDurablePrefixReplayDeterminism pins this).
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
	// it. Both are advanced by EpochOp records alone — a checkpoint's or the
	// log's — so the epoch travels with the replayable history.
	epoch    atomic.Uint64
	fencedBy atomic.Uint64
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

// applyPayload decodes one record payload, a checkpoint's or a segment's,
// and applies it.
func (rs *replayState) applyPayload(payload []byte) error {
	op, err := wal.DecodeOp(payload)
	if err != nil {
		return err
	}
	return rs.applyOp(op)
}

// applyOp applies one record to the System without re-logging and without
// making any admission decision — the one apply path of crash recovery,
// replica bootstrap and log tailing. Each shard's replay order equals its
// original apply order, and all of one principal's operations live in one
// shard's files, so per-principal apply order — the only order the monitor
// semantics depend on — is reproduced exactly even when shards replay in
// parallel (recovery) or interleave differently than they did live (a
// follower). A transition moves the accepted/refused tallies only when it
// carries them, which only a checkpoint's does.
func (rs *replayState) applyOp(op *wal.Op) error {
	sys := rs.sys
	switch {
	case op.Header != nil:
		// Describes a checkpoint file, not the state; whoever opened the
		// file has read it (the meta shard's built this System).
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
			if derr := sys.store.Do(t.Principal, func(m *Monitor) {
				if err = m.Restore(t.Live, cum); err == nil && (t.Accepted != 0 || t.Refused != 0) {
					m.SetStats(t.Accepted, t.Refused)
				}
			}); derr != nil {
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
// from the header of a primary's meta-shard checkpoint and advanced by
// applying records — the shipped checkpoints', then the shipped logs', in
// shard order — the replication layer's in-memory state. Unlike Durable it
// owns no directory and no log: a replica is disposable by design, and a
// crashed or hopelessly lagged follower simply rebuilds one from fresh
// checkpoints.
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
// Concurrency: Apply must be called from one goroutine at a time (the
// follower's sync loop); every read — System's read surface, TokenOwner,
// Epoch — is safe concurrently with it.
type Replica struct {
	replayState
}

// NewReplica builds an empty replica from the header record of a primary's
// meta-shard checkpoint: the System is constructed from the configuration
// (schema and security views) the header carries. Everything else — rows,
// epoch, policies, sessions, tokens — arrives through Apply: the rest of
// the meta checkpoint's records, the data-shard checkpoints', then the log
// tails'.
func NewReplica(meta *wal.HeaderOp) (*Replica, error) {
	if meta.Shard != wal.MetaShard || meta.Config == nil {
		return nil, fmt.Errorf("disclosure: replica bootstrap needs the meta-shard checkpoint's header, got shard %q", meta.Shard)
	}
	sys, err := systemFromConfig(meta.Config)
	if err != nil {
		return nil, fmt.Errorf("disclosure: rebuilding system from shipped checkpoint: %w", err)
	}
	r := &Replica{replayState: replayState{sys: sys}}
	r.seedTokens(map[string]string{})
	return r, nil
}

// Epoch returns the decision epoch of the replicated state: the epoch the
// primary the replica was bootstrapped from decides under, advanced by any
// EpochOp records applied since.
func (r *Replica) Epoch() uint64 { return r.epoch.Load() }

// Follow attaches the primary the replica's System sends its would-be admits
// to (System.decideReplica). Call it before the replica is shared.
func (r *Replica) Follow(up Upstream) { r.sys.up = up }

// Apply applies one record shipped from the primary — a checkpoint's or a
// log segment's — without re-logging it and without deciding anything anew.
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
