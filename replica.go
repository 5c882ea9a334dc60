package disclosure

import (
	"fmt"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/wal"
)

// replayState is the apply side of the durability layer, shared by crash
// recovery (Durable) and replication (Replica): a System being rebuilt
// from records — a checkpoint's, then the log's, one vocabulary applied by
// one function (applyOp). A session transition record carries an absolute
// state, so applying it is an install, not a decision: nothing is parsed,
// labeled or re-decided, a record applied twice changes nothing, and a
// prefix of the data log always yields exactly the session state the
// primary had after those records (TestDurablePrefixReplayDeterminism pins
// this). Token records go to the System's own token table.
type replayState struct {
	sys *System

	// epoch is the decision epoch the state decides (or was decided)
	// under; fencedBy, when non-zero, is the higher epoch that superseded
	// it. Both are advanced by EpochOp records alone — a checkpoint's or the
	// log's — so the epoch travels with the replayable history.
	epoch    atomic.Uint64
	fencedBy atomic.Uint64
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
// replica bootstrap and log tailing. Every per-principal record is in the
// one data log, and a log's order is its apply order, so replaying it in
// order rebuilds every session exactly. Only the meta log's rows may
// interleave with it differently than they did live (a follower tails
// both), and no session depends on that order.
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
		sys.dropToken(op.Remove.Principal)
	case op.Token != nil:
		sys.installToken(op.Token.Principal, op.Token.Token)
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
				err = m.Restore(t.Live, cum)
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
// from the header of a primary's meta checkpoint and advanced by applying
// records — the shipped checkpoints', then the shipped logs', each log in
// its own order — the replication layer's in-memory state. Unlike Durable it
// owns no directory and no log: a replica is disposable by design, and a
// crashed or hopelessly lagged follower simply rebuilds one from fresh
// checkpoints.
//
// Applying a logged transition installs the state the primary's decision
// moved to, which keeps the replica's sessions — live partitions and
// cumulative disclosure — converging to the primary's. What a replica
// holds of a session is always a prefix of its transitions: (1) within one
// policy installation a session's live partitions only shrink and its
// cumulative disclosure only grows; (2) so a prefix's live set contains
// the primary's and its cumulative label lies below the primary's; (3) so
// a label the replica's session refuses, the primary's refuses too, and a
// label the replica's session settles (policy.Monitor.Settled) the
// primary's admits without a transition. Once Follow has attached the
// primary, the replica's System decides fresh submissions on that split
// (System.decideReplica): an in-contact replica refuses what (3) refuses;
// while it also holds a read lease (GrantLease) it admits what (3)
// settles; every other decision, every admit that moves a session
// included, goes to the primary by decision RPC (internal/repl). A policy
// install, removal or token rotation the replica has not applied yet is
// the one exception to (1): it can make a local refusal outlive the
// session it was decided on by under two poll intervals from the pull
// (the follower's contact window), and the primary does not acknowledge it
// while a lease granted before it is live, so it never makes a local admit.
//
// Concurrency: Apply must be called from one goroutine at a time (the
// follower's sync loop); every read — System's read surface, its token
// lookup included, and Epoch — is safe concurrently with it.
type Replica struct {
	replayState
}

// NewReplica builds an empty replica from the header record of a primary's
// meta checkpoint: the System is constructed from the configuration
// (schema and security views) the header carries. Everything else — rows,
// epoch, policies, sessions, tokens — arrives through Apply: the rest of
// the meta checkpoint's records, the data log's checkpoint's, then the log
// tails'.
func NewReplica(meta *wal.HeaderOp) (*Replica, error) {
	if meta.Shard != wal.MetaShard || meta.Config == nil {
		return nil, fmt.Errorf("disclosure: replica bootstrap needs the meta-shard checkpoint's header, got shard %q", meta.Shard)
	}
	sys, err := systemFromConfig(meta.Config)
	if err != nil {
		return nil, fmt.Errorf("disclosure: rebuilding system from shipped checkpoint: %w", err)
	}
	return &Replica{replayState: replayState{sys: sys}}, nil
}

// Epoch returns the decision epoch of the replicated state: the epoch the
// primary the replica was bootstrapped from decides under, advanced by any
// EpochOp records applied since.
func (r *Replica) Epoch() uint64 { return r.epoch.Load() }

// Follow attaches the primary the replica's System sends what it may not
// decide itself to (System.decideReplica). Call it before the replica is
// shared.
func (r *Replica) Follow(up Upstream) { r.sys.up = up }

// GrantLease gives the replica a read lease until the clock reaches until
// (internal/clock's unix nanoseconds): while it is held, the replica's
// System admits on its own what its sessions settle. The caller — the
// follower's sync loop — grants it after a pass that caught the replica up
// to tails read after the primary recorded the same lease
// (Durable.GrantReadLease), with a deadline no later than the primary's:
// the clock read before the pull plus the window it asked for.
func (r *Replica) GrantLease(until int64) {
	g := new(readLease)
	g.until.Set(until)
	r.sys.lease.Store(g)
}

// DropLease ends the replica's read lease; the follower drops it before
// every pull, so a primary that sees the pull knows the lease is gone.
func (r *Replica) DropLease() { r.sys.lease.Store(nil) }

// Leased reports whether the replica holds an unexpired read lease.
func (r *Replica) Leased() bool { return r.sys.lease.Load().valid() }

// Apply applies one record shipped from the primary — a checkpoint's or a
// log segment's — without re-logging it and without deciding anything anew.
func (r *Replica) Apply(op *wal.Op) error { return r.applyOp(op) }

// System returns the replica's System. Its read surface (evaluations,
// explains, stats, sessions, TokenOwner) and — after Follow — its submit
// pipeline are safe to serve from; its write surface must not be used —
// replica state advances only through Apply.
func (r *Replica) System() *System { return r.sys }
