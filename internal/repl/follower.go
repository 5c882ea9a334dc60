package repl

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	disclosure "repro"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Primary is the primary's base URL, e.g. "http://127.0.0.1:8080".
	Primary string
	// Token is the replication bearer token (the primary's admin token).
	Token string
	// HTTP is the client the follower fetches the primary's tails,
	// checkpoints and segments with; nil is a client with a 15 s timeout on
	// http.DefaultTransport. The decision RPC does not use it: it runs on
	// connections the follower dials itself (decider), with this client's
	// TLS settings when it has any.
	HTTP *http.Client
	// Interval is the poll cadence of Run (default 250ms). Two of them,
	// from before a sync pass's pull, are how long the replica may refuse
	// on its own, and the read lease every pull asks the primary for (no
	// lease is granted above disclosure.MaxReadLease). Tests drive SyncOnce
	// directly with a large Interval for determinism.
	Interval time.Duration
	// Logf, when non-nil, receives sync-loop diagnostics (resyncs, the
	// first failed pass of an outage and the pass that ends it). Nil
	// discards them.
	Logf func(format string, args ...any)
}

// followerMetrics holds the follower's hot-path collectors; sampled
// values (staleness, applied, resyncs) register as callbacks instead.
type followerMetrics struct {
	decide       *obs.Histogram
	decideErrors *obs.Counter
}

// Follower replicates one primary: it bootstraps a disclosure.Replica from
// the primary's checkpoints, then tails every shard's log — sealed
// generations and the committed live prefix — applying each operation into
// the replica. It is the backend a follower disclosured serves read
// traffic from (server.NewFollower), and it holds no disk state at all:
// on corruption, pruned generations, or a process restart it simply
// rebuilds the replica from fresh checkpoints. It is also the
// disclosure.Upstream of every replica it builds: the replica's System
// refuses what its own sessions refuse while the follower is in contact
// (InContact), admits what they settle while the replica holds the read
// lease every pull asks for (disclosure.Durable.GrantReadLease), and sends
// every other decision through DecidePrepared.
//
// Concurrency: SyncOnce/Run form the single writer (one sync loop per
// Follower); every other method is safe concurrently with them.
type Follower struct {
	opts FollowerOptions
	// dec sends the decision RPC.
	dec *decider

	replica atomic.Pointer[disclosure.Replica]

	// syncMu serializes sync passes between Run's loop and Promote's final
	// drain, so promotion sees a quiesced replica. failing, under it, is
	// set from a failed pass to the next good one: an outage logs twice.
	syncMu  sync.Mutex
	failing bool

	// leaseID names this follower's read lease to the primary; minted once
	// per process, so a restarted follower's holds are new ones.
	leaseID string

	mu      sync.Mutex
	cursors map[string]wal.Cursor // next unconsumed position per shard
	pending map[string][]byte     // fetched bytes past the cursor, not yet whole frames
	synced  bool                  // at least one full sync completed
	lastSyn int64                 // the clock when the replica last fully matched observed tails

	// audit is the decision audit sink every replica's System writes to
	// (SetAudit), guarded by mu together with the publication of a rebuilt
	// replica.
	audit     *obs.AuditLog
	slowQuery time.Duration

	// contact is when the replica's standing to refuse on its own lapses:
	// two poll intervals after the latest successful pass read the clock
	// before its pull, cleared once a pass has failed.
	contact clock.Deadline

	applied       atomic.Uint64 // operations applied across replica rebuilds
	resyncs       atomic.Uint64 // checkpoint re-bootstraps after the first
	localRefusals atomic.Uint64 // refusals decided from the replica, without the RPC
	localAdmits   atomic.Uint64 // admits decided from the leased replica, without the RPC

	// promoted, once set, is the durable deployment this node decides from:
	// the follower has taken over as primary and the sync loop is done.
	promoted atomic.Pointer[disclosure.Durable]
	// lastContact is the unix-nano time of the last response from the
	// primary (zero before the first) — the operator's promotion signal.
	lastContact atomic.Int64

	reg *obs.Registry // the node's instance registry (Metrics)
	met followerMetrics
}

// ErrStalePrimary reports that the node the follower is polling has been
// superseded by a higher decision epoch — it is a fenced leftover of a
// completed failover. The follower refuses to apply from or resync against
// it; it keeps serving its replica until repointed or promoted.
var ErrStalePrimary = errors.New("repl: primary superseded by a higher decision epoch")

// ErrAlreadyPromoted reports a repeated promotion of the same follower.
var ErrAlreadyPromoted = errors.New("repl: node is already promoted")

// NewFollower bootstraps a follower from the primary's current checkpoints
// and returns it unsynced: its replica holds the checkpoints' state, not
// yet what the primary logged after them, so Staleness is not ok and
// InContact is false until the first sync pass — which Run starts with,
// and SyncOnce runs. It fails if the primary is unreachable or refuses the
// token.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	if opts.Token == "" {
		return nil, fmt.Errorf("repl: replication token must be non-empty")
	}
	if opts.Interval <= 0 {
		opts.Interval = 250 * time.Millisecond
	}
	if opts.HTTP == nil {
		opts.HTTP = &http.Client{Timeout: rpcTimeout}
	}
	primary, dec, err := parsePrimary(opts.Primary, opts.Token, opts.HTTP)
	if err != nil {
		return nil, err
	}
	opts.Primary = primary
	var id [16]byte
	if _, err := rand.Read(id[:]); err != nil {
		return nil, fmt.Errorf("repl: minting the read-lease id: %w", err)
	}
	f := &Follower{opts: opts, dec: dec, leaseID: hex.EncodeToString(id[:]), reg: obs.NewRegistry()}
	f.registerMetrics()
	if err := f.bootstrap(); err != nil {
		return nil, err
	}
	return f, nil
}

// registerMetrics registers the follower's replication collectors in its
// registry.
func (f *Follower) registerMetrics() {
	r := f.reg
	r.GaugeFunc("disclosure_follower_staleness_seconds",
		"How long ago the replica last fully matched the primary's observed tails (-1 before the first completed sync).",
		func() float64 {
			age, ok := f.Staleness()
			if !ok {
				return -1
			}
			return age.Seconds()
		})
	r.CounterFunc("disclosure_follower_applied_ops_total",
		"Log operations applied into the replica, including re-applies after resyncs.",
		f.Applied)
	r.CounterFunc("disclosure_follower_resyncs_total",
		"Checkpoint re-bootstraps after the initial one.",
		f.Resyncs)
	r.GaugeFunc("disclosure_epoch",
		"Decision epoch this node decides under (the replicated epoch while following, the successor epoch once promoted).",
		func() float64 { return float64(f.Epoch()) })
	f.met.decide = r.Histogram("disclosure_repl_decide_seconds",
		"Round-trip latency of the delegated decision RPC to the primary.",
		obs.LatencyBuckets)
	f.met.decideErrors = r.Counter("disclosure_repl_decide_errors_total",
		"Decision RPCs that failed (the serving layer fails these submissions closed).")
	r.CounterFunc("disclosure_follower_fail_closed_total",
		"Submissions failed closed because the primary decision RPC errored: the decision-RPC errors, and nothing else.",
		f.met.decideErrors.Value)
	r.CounterFunc("disclosure_follower_local_refusals_total",
		"Refusals decided from the in-contact replica's own session, without a decision RPC.",
		f.LocalRefusals)
	r.CounterFunc("disclosure_follower_local_admits_total",
		"Admits that move no session, decided from the leased replica's own session, without a decision RPC.",
		f.LocalAdmits)
}

// Metrics returns the node's instance registry, which the Follower creates
// and owns: Promote adds the primary's families to it, and
// server.NewFollower serves it on GET /metrics.
func (f *Follower) Metrics() *obs.Registry { return f.reg }

// Epoch returns the decision epoch this node is at: the promoted durable
// deployment's epoch after a takeover, otherwise the replicated epoch
// (zero before the replica exists).
func (f *Follower) Epoch() uint64 {
	if d := f.promoted.Load(); d != nil {
		return d.Epoch()
	}
	if r := f.replica.Load(); r != nil {
		return r.Epoch()
	}
	return 0
}

// Promoted returns the durable deployment this node decides from after a
// promotion, or nil while it is still following.
func (f *Follower) Promoted() *disclosure.Durable { return f.promoted.Load() }

// SincePrimaryContact reports how long ago the primary last answered any
// request, and whether it ever has — the signal an operator (or the
// daemon's probe loop) uses to judge promotion eligibility.
func (f *Follower) SincePrimaryContact() (time.Duration, bool) {
	n := f.lastContact.Load()
	if n == 0 {
		return 0, false
	}
	return time.Since(time.Unix(0, n)), true
}

// logf emits a diagnostic if a logger is configured.
func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// bootstrap builds a fresh replica from the primary's current checkpoints
// and resets every cursor to {checkpoint generation, 0}. It is the initial
// sync, the post-restart sync, and the resync path after divergence.
func (f *Follower) bootstrap() error {
	tails, err := f.fetchTails()
	if err != nil {
		return err
	}
	// Never rebuild from a node whose epoch is behind what this follower
	// already knows: that node is a fenced leftover of a completed
	// failover, and adopting its checkpoints would resurrect pre-failover
	// decision state.
	if cur := f.replica.Load(); cur != nil && tails.Epoch < cur.Epoch() {
		return fmt.Errorf("%w: refusing to rebuild from epoch %d (known epoch %d)", ErrStalePrimary, tails.Epoch, cur.Epoch())
	}
	// The meta shard first: its header builds the System every other record
	// applies into.
	metaHdr, metaRecords, err := f.fetchCheckpoint(wal.MetaShard)
	if err != nil {
		return err
	}
	replica, err := disclosure.NewReplica(metaHdr)
	if err != nil {
		return err
	}
	cursors := make(map[string]wal.Cursor, len(tails.Shards))
	for shard := range tails.Shards {
		hdr, records := metaHdr, metaRecords
		if shard != wal.MetaShard {
			if hdr, records, err = f.fetchCheckpoint(shard); err != nil {
				return err
			}
		}
		for _, payload := range records {
			if err := applyRecord(replica, payload); err != nil {
				return fmt.Errorf("repl: loading checkpoint %s: %w", shard, err)
			}
		}
		cursors[shard] = wal.Cursor{Gen: hdr.Generation}
	}
	replica.Follow(f)
	f.mu.Lock()
	f.cursors = cursors
	f.pending = make(map[string][]byte)
	replica.System().SetAudit(f.audit, f.slowQuery)
	f.replica.Store(replica)
	f.mu.Unlock()
	// The fresh replica matches the checkpoints, not yet the tails: the
	// first sync pass establishes syncedness. Bootstrap does not reset it —
	// a resync keeps reporting the last time the replica matched the
	// primary until its pass has streamed the rebuilt replica to the tails.
	return nil
}

// resync discards the replica and rebuilds it from fresh checkpoints — the
// recovery from pruned generations (the primary rotated past us) and from
// stream divergence (the primary crashed and rewrote a tail we had read).
func (f *Follower) resync(cause error) error {
	f.resyncs.Add(1)
	f.logf("repl: resyncing from fresh checkpoints: %v", cause)
	if err := f.bootstrap(); err != nil {
		return fmt.Errorf("repl: resync after %v: %w", cause, err)
	}
	return nil
}

// errDiverged marks segment-fetch outcomes that require a resync.
var errDiverged = errors.New("repl: follower diverged from primary")

// SyncOnce advances the replica to the primary's tails as observed at the
// start of the call: every shard is streamed up to its observed cursor,
// crossing sealed generations as needed. When every shard reaches its
// target the follower is synced and its staleness clock resets to the
// moment the tails were observed. Divergence (pruned generation, corrupt
// stream, truncated tail) or a newer primary epoch triggers one resync,
// and the pass then streams the rebuilt replica to tails observed after
// the rebuild.
func (f *Follower) SyncOnce() error {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	return f.syncLocked()
}

// syncLocked is SyncOnce under syncMu (Promote drains through it too). How
// the pass ended decides whether the replica may refuse on its own until
// the next one: a partitioned or fenced primary fails the pass, and a hung
// pass lets the previous one's two intervals run out. Like the read lease,
// they run from before the pull: a slow pass shortens them, which only
// sends refusals to the RPC. The first failed pass of an outage is logged,
// and the pass that ends it; the ones between say nothing new.
func (f *Follower) syncLocked() error {
	observed, err := f.syncPass()
	switch {
	case err != nil:
		f.contact.Clear()
		if !f.failing {
			f.logf("repl: sync failing (logged again once a pass succeeds): %v", err)
		}
		f.failing = true
	default:
		f.contact.Set(observed + int64(2*f.opts.Interval))
		if f.failing {
			f.logf("repl: sync recovered")
		}
		f.failing = false
	}
	return err
}

// InContact reports whether the most recent sync pass succeeded and its
// pull began within the last two poll intervals — the condition under
// which the replica's System refuses on its own (disclosure.Upstream). Out
// of contact every decision takes the RPC, and fails closed if that fails.
func (f *Follower) InContact() bool { return f.contact.Valid() }

// syncPass is one pass of the sync loop: it streams the replica to the
// tails observed at its start and marks the follower synced as of then, the
// clock reading it returns. Divergence or a newer epoch rebuilds the
// replica from fresh checkpoints and streams it to tails observed after the
// rebuild, so a pass that resyncs also ends caught up; a second divergence
// in the same pass fails it, and the next pass resyncs again.
//
// Every tails pull asks for a read lease of two intervals, and the replica
// drops the one it holds before the pull is sent: a primary that sees the
// pull knows the lease is gone. A pass that ends caught up to a pull the
// primary granted holds the lease until the pull's start plus the window,
// which is no later than the primary's hold ends.
func (f *Follower) syncPass() (observed int64, err error) {
	if f.promoted.Load() != nil {
		return clock.Now(), nil
	}
	for resynced := false; ; resynced = true {
		f.replica.Load().DropLease()
		observed = clock.Now()
		tails, err := f.fetchTails()
		if err != nil {
			return 0, err
		}
		err = f.catchUp(tails)
		if errors.Is(err, errDiverged) && !resynced {
			if err := f.resync(err); err != nil {
				return 0, err
			}
			continue
		}
		if err != nil {
			return 0, err
		}
		f.mu.Lock()
		f.synced = true
		f.lastSyn = observed
		f.mu.Unlock()
		if tails.Lease {
			f.replica.Load().GrantLease(observed + int64(f.leaseWindow()))
		}
		return observed, nil
	}
}

// leaseWindow is the read lease a pull asks for: two poll intervals.
func (f *Follower) leaseWindow() time.Duration { return 2 * f.opts.Interval }

// InLease reports whether the current replica holds an unexpired read
// lease — the condition under which it admits on its own what its sessions
// settle.
func (f *Follower) InLease() bool { return f.replica.Load().Leased() }

// catchUp streams every shard to the observed tails. It reports errDiverged
// for what only a rebuild from fresh checkpoints recovers from.
func (f *Follower) catchUp(tails TailsResponse) error {
	switch e := f.replica.Load().Epoch(); {
	case tails.Epoch < e:
		// The node we poll is behind the epoch we replicated: a fenced
		// leftover. Applying its log would mix pre-failover history into a
		// post-failover replica, so refuse until repointed.
		return fmt.Errorf("%w: tails epoch %d behind replica epoch %d", ErrStalePrimary, tails.Epoch, e)
	case tails.Epoch > e:
		// The primary completed a failover this replica predates; its new
		// history starts in fresh checkpoints, so rebuild from those.
		return fmt.Errorf("%w: primary epoch %d ahead of replica epoch %d", errDiverged, tails.Epoch, e)
	}
	for shard, target := range tails.Shards {
		if err := f.syncShard(shard, target); err != nil {
			return err
		}
	}
	return nil
}

// Promote turns the follower into a primary: under the sync lock it drains
// its cursors as far as the old primary is still reachable (best effort —
// an unreachable primary is exactly the failover case), materializes the
// replica into a fresh durable deployment at dir under the successor epoch
// (disclosure.PromoteReplica), and returns that deployment together with
// its replication surface; opts.LeaseTTL arms its decision lease. From
// then on Decide runs locally, Run's loop retires, and every replication
// message the promoted node sends carries the new epoch — fencing the old
// primary on first contact.
//
// The follower serving layer's promote endpoint mounts the returned
// replication handler; the node (node.Node.Close) checkpoints and closes
// the Durable on shutdown.
func (f *Follower) Promote(dir string, opts disclosure.DurabilityOptions) (*disclosure.Durable, http.Handler, error) {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	if f.promoted.Load() != nil {
		return nil, nil, ErrAlreadyPromoted
	}
	if err := f.syncLocked(); err != nil {
		f.logf("repl: promote: final drain incomplete (promoting from replica as-is): %v", err)
	}
	rep := f.replica.Load()
	dur, err := disclosure.PromoteReplica(dir, rep, rep.Epoch()+1, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("repl: promote: %w", err)
	}
	p, err := NewPrimary(dur, f.opts.Token)
	if err != nil {
		_ = dur.Close()
		return nil, nil, err
	}
	// Re-register the epoch gauge and add the primary-side families over
	// the follower's collectors (latest registration wins per name).
	p.RegisterMetrics(f.reg)
	f.promoted.Store(dur)
	f.logf("repl: promoted to primary at epoch %d (%d ops applied, data dir %s)", dur.Epoch(), f.applied.Load(), dir)
	return dur, p.Handler(), nil
}

// syncShard streams one shard from its cursor to the target observed by
// SyncOnce, applying every whole frame.
func (f *Follower) syncShard(shard string, target wal.Cursor) error {
	for {
		f.mu.Lock()
		cur, ok := f.cursors[shard]
		pend := f.pending[shard]
		f.mu.Unlock()
		if !ok {
			// A shard the replica was not bootstrapped with: the primary's
			// layout changed under us.
			return fmt.Errorf("%w: unknown shard %s appeared", errDiverged, shard)
		}
		if cur.Gen > target.Gen || (cur.Gen == target.Gen && cur.Off >= target.Off) {
			return nil
		}
		fetchOff := cur.Off + int64(len(pend))
		chunk, sealed, limit, err := f.fetchSegment(shard, cur.Gen, fetchOff)
		if err != nil {
			return err
		}
		if len(chunk) > 0 {
			pend = append(pend, chunk...)
			consumed, err := f.applyFrames(pend)
			if err != nil {
				return fmt.Errorf("%w: shard %s generation %d: %v", errDiverged, shard, cur.Gen, err)
			}
			f.mu.Lock()
			cur.Off += int64(consumed)
			f.cursors[shard] = cur
			f.pending[shard] = pend[consumed:]
			f.mu.Unlock()
			continue
		}
		// No bytes: the fetch offset is at the segment's committed limit.
		if sealed {
			// A sealed segment ends on a frame boundary (rotation flushes
			// before the next generation exists), so trailing bytes that
			// never completed a frame mean we read bytes the primary later
			// rewrote.
			if len(pend) > 0 {
				return fmt.Errorf("%w: shard %s generation %d sealed with %d trailing bytes that never became a frame", errDiverged, shard, cur.Gen, len(pend))
			}
			f.mu.Lock()
			f.cursors[shard] = wal.Cursor{Gen: cur.Gen + 1}
			f.pending[shard] = nil
			f.mu.Unlock()
			continue
		}
		// Live segment drained to its committed offset short of the target:
		// committed offsets are monotone within a primary's lifetime, so the
		// limit went backwards — the primary restarted and truncated a tail
		// we had already observed. Resync rather than spin.
		if cur.Gen == target.Gen && cur.Off < target.Off {
			return fmt.Errorf("%w: shard %s generation %d committed size went backwards (%d < %d)", errDiverged, shard, cur.Gen, limit, target.Off)
		}
		return nil
	}
}

// applyFrames feeds buffered segment bytes through the frame decoder into
// the replica and returns the bytes consumed.
func (f *Follower) applyFrames(buf []byte) (int, error) {
	replica := f.replica.Load()
	return wal.Frames(buf, func(payload []byte) error {
		if err := applyRecord(replica, payload); err != nil {
			return err
		}
		f.applied.Add(1)
		return nil
	})
}

// applyRecord decodes one shipped record, a checkpoint's or a segment's,
// and applies it into the replica.
func applyRecord(replica *disclosure.Replica, payload []byte) error {
	op, err := wal.DecodeOp(payload)
	if err != nil {
		return err
	}
	return replica.Apply(op)
}

// Run polls the primary until ctx is done: its first sync pass runs at
// once, then one every Interval, resyncing as needed. Transient errors (an
// unreachable primary) are retried, and logged once per outage — the
// follower keeps serving its bounded-stale replica, with staleness growing
// until the primary returns.
func (f *Follower) Run(ctx context.Context) {
	t := time.NewTicker(f.opts.Interval)
	defer t.Stop()
	for {
		if f.promoted.Load() != nil {
			// Promoted mid-loop: this node is the primary now and its own
			// WAL is the source of truth. Nothing left to poll.
			return
		}
		_ = f.SyncOnce() // syncLocked logs an outage's first failure and its end
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// System returns the current replica's System — the follower serving
// layer's read surface. The pointer changes on resync; callers use it per
// request, not cached.
func (f *Follower) System() *disclosure.System { return f.replica.Load().System() }

// Decide is DecidePrepared for a query that is not prepared yet.
func (f *Follower) Decide(principal string, q *disclosure.Query) (disclosure.Decision, error) {
	return f.DecidePrepared(principal, disclosure.PrepareQuery(q))
}

// DecidePrepared delegates one submission's admit/refuse decision to the
// primary by decision RPC: the replica's System calls it for every
// submission it may not decide by itself — every admit that moves a
// session, every admit out of lease, everything out of contact
// (disclosure.Upstream). The outcome is primary-consistent by
// construction: whatever this follower's replica has or has not caught up
// with, the decision ran against the primary's complete history (and was
// durably logged there before returning). Any failure to reach or convince
// the primary is an error, and the submission fails closed.
func (f *Follower) DecidePrepared(principal string, p *disclosure.Prepared) (disclosure.Decision, error) {
	if d := f.promoted.Load(); d != nil {
		// Promoted: this node holds the complete history and decides
		// locally, durably, under the successor epoch.
		return d.System().DecidePrepared(principal, p)
	}
	t0 := time.Now()
	dec, err := f.decideRPC(principal, p)
	f.met.decide.Observe(time.Since(t0).Seconds())
	if err != nil {
		f.met.decideErrors.Inc()
	}
	return dec, err
}

// decideRPC performs the decision round trip; DecidePrepared wraps it with
// the RPC latency/error collectors. The query crosses as the text the
// client sent — the bytes the primary's own memo may already know — and is
// rendered only when it never had one; the fingerprint is of the key it was
// prepared with.
func (f *Follower) decideRPC(principal string, p *disclosure.Prepared) (disclosure.Decision, error) {
	src := p.Src
	if src == "" {
		src = p.Query().String()
	}
	req := DecideRequest{
		Principal:   principal,
		Query:       src,
		Fingerprint: strconv.FormatUint(p.Fingerprint, 16),
		Epoch:       f.Epoch(),
	}
	cn, resp, err := f.dec.roundTrip(&req)
	if err != nil {
		return disclosure.Decision{}, fmt.Errorf("repl: decision RPC: %w", err)
	}
	f.lastContact.Store(time.Now().UnixNano())
	if resp.StatusCode != http.StatusOK {
		err := f.statusErr(resp)
		cn.conn.Close()
		return disclosure.Decision{}, fmt.Errorf("repl: decision RPC: %w", err)
	}
	if cn.body, err = wire.ReadAll(resp.Body, cn.body[:0]); err != nil {
		cn.conn.Close()
		return disclosure.Decision{}, fmt.Errorf("repl: decision RPC: %w", err)
	}
	dec, err := decodeDecideResponse(cn.body)
	f.dec.release(cn, resp)
	if err != nil {
		return disclosure.Decision{}, fmt.Errorf("repl: decision RPC: %w", err)
	}
	return disclosure.Decision{Allowed: dec.Allowed, Live: dec.Live, Refusal: dec.Refusal}, nil
}

// RefusedLocally counts one refusal the replica's System decided without
// the RPC (disclosure.Upstream).
func (f *Follower) RefusedLocally() { f.localRefusals.Add(1) }

// LocalRefusals returns how many refusals the follower has decided from its
// replica's own sessions, without a decision RPC.
func (f *Follower) LocalRefusals() uint64 { return f.localRefusals.Load() }

// AdmittedLocally counts one admit the leased replica's System decided
// without the RPC (disclosure.Upstream).
func (f *Follower) AdmittedLocally() { f.localAdmits.Add(1) }

// LocalAdmits returns how many admits the follower has decided from its
// leased replica's own sessions, without a decision RPC.
func (f *Follower) LocalAdmits() uint64 { return f.localAdmits.Load() }

// SetAudit attaches a decision audit log to the replica's System — the
// current one and every one a resync builds — with System.SetAudit's
// meaning; the records are stamped as a follower's.
func (f *Follower) SetAudit(log *obs.AuditLog, slowQuery time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.audit, f.slowQuery = log, slowQuery
	f.System().SetAudit(log, slowQuery)
}

// Staleness reports how long ago the replica last fully matched the
// primary's observed tails, and whether it ever has. Before the first
// completed sync the duration is meaningless and ok is false.
func (f *Follower) Staleness() (age time.Duration, ok bool) {
	if f.promoted.Load() != nil {
		// The promoted node IS the source of truth: zero staleness.
		return 0, true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.synced {
		return 0, false
	}
	return time.Duration(clock.Now() - f.lastSyn), true
}

// Applied returns the number of log operations applied across the
// follower's lifetime, including operations re-applied after resyncs.
func (f *Follower) Applied() uint64 { return f.applied.Load() }

// Resyncs returns how many times the follower rebuilt its replica from
// fresh checkpoints after the initial bootstrap.
func (f *Follower) Resyncs() uint64 { return f.resyncs.Load() }

// Primary returns the primary's base URL.
func (f *Follower) Primary() string { return f.opts.Primary }

// get performs one authenticated GET, with the extra request headers given
// (nil for none), and returns the response; non-2xx statuses are mapped to
// errors (404 to os-style not-found via errPruned).
func (f *Follower) get(path string, extra http.Header) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, f.opts.Primary+path, nil)
	if err != nil {
		return nil, err
	}
	for k, v := range extra {
		req.Header[k] = v
	}
	req.Header.Set("Authorization", "Bearer "+f.opts.Token)
	req.Header.Set(HeaderEpoch, strconv.FormatUint(f.Epoch(), 10))
	resp, err := f.opts.HTTP.Do(req)
	if err == nil {
		f.lastContact.Store(time.Now().UnixNano())
	}
	return resp, err
}

// statusErr turns a non-2xx replication response into an error:
// ErrStalePrimary when its structured body proves the polled node has been
// superseded — the node says it is fenced, or it rejects our epoch while
// sitting below it — and the body's message (or the bare status) otherwise.
func (f *Follower) statusErr(resp *http.Response) error {
	var e ErrorResponse
	_ = json.NewDecoder(io.LimitReader(resp.Body, wire.ErrorBodyLimit)).Decode(&e)
	switch e.Code {
	case CodeFenced:
		return fmt.Errorf("%w: node at epoch %d is fenced by epoch %d", ErrStalePrimary, e.Epoch, e.FencedBy)
	case CodeStaleEpoch:
		if ours := f.Epoch(); e.Epoch < ours {
			return fmt.Errorf("%w: node epoch %d is behind this node's epoch %d", ErrStalePrimary, e.Epoch, ours)
		}
	}
	if e.Error != "" {
		return fmt.Errorf("%s (%s)", e.Error, resp.Status)
	}
	return errors.New(resp.Status)
}

// fetchTails fetches the primary's per-shard replication cursors and its
// decision epoch, reading at most DefaultMaxChunk of the body, and asks
// for this follower's read lease: TailsResponse.Lease says whether the
// primary granted it. A pull that takes no lease (a bootstrap's) only
// makes the primary's writes wait a little longer.
func (f *Follower) fetchTails() (TailsResponse, error) {
	resp, err := f.get("/v1/repl/tails", http.Header{
		HeaderLease:       {f.leaseID},
		HeaderLeaseWindow: {f.leaseWindow().String()},
	})
	if err != nil {
		return TailsResponse{}, fmt.Errorf("repl: fetching tails: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return TailsResponse{}, fmt.Errorf("repl: fetching tails: %w", f.statusErr(resp))
	}
	var t TailsResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, DefaultMaxChunk)).Decode(&t); err != nil {
		return TailsResponse{}, fmt.Errorf("repl: fetching tails: %w", err)
	}
	return t, nil
}

// fetchCheckpoint fetches one shard's current checkpoint file and verifies
// it whole (wal.CheckpointRecords): the header, and the record payloads to
// apply after it.
func (f *Follower) fetchCheckpoint(shard string) (*wal.HeaderOp, [][]byte, error) {
	resp, err := f.get("/v1/repl/checkpoint?shard="+url.QueryEscape(shard), nil)
	if err != nil {
		return nil, nil, fmt.Errorf("repl: fetching checkpoint %s: %w", shard, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("repl: fetching checkpoint %s: %w", shard, f.statusErr(resp))
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("repl: fetching checkpoint %s: %w", shard, err)
	}
	hdr, records, err := wal.CheckpointRecords(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("repl: checkpoint %s: %w", shard, err)
	}
	return hdr, records, nil
}

// fetchSegment fetches one chunk of committed segment bytes, at most
// DefaultMaxChunk of them: a longer reply fails the pass. A 404 (pruned
// generation) and a 409 (offset past committed size) both report
// errDiverged: the cursor no longer names bytes the primary holds.
func (f *Follower) fetchSegment(shard string, gen uint64, off int64) (chunk []byte, sealed bool, limit int64, err error) {
	path := fmt.Sprintf("/v1/repl/segment?shard=%s&gen=%d&off=%d&max=%d",
		url.QueryEscape(shard), gen, off, DefaultMaxChunk)
	resp, err := f.get(path, nil)
	if err != nil {
		return nil, false, 0, fmt.Errorf("repl: fetching segment %s gen %d: %w", shard, gen, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := f.statusErr(resp)
		// An epoch conflict is not divergence: resyncing from a fenced
		// node is exactly what must not happen.
		gone := resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusConflict
		if gone && !errors.Is(err, ErrStalePrimary) {
			return nil, false, 0, fmt.Errorf("%w: segment %s gen %d off %d: %v", errDiverged, shard, gen, off, err)
		}
		return nil, false, 0, fmt.Errorf("repl: fetching segment %s gen %d: %w", shard, gen, err)
	}
	sealed = resp.Header.Get(HeaderSealed) == "true"
	limit, err = strconv.ParseInt(resp.Header.Get(HeaderLimit), 10, 64)
	if err != nil {
		return nil, false, 0, fmt.Errorf("repl: segment %s: bad %s header: %w", shard, HeaderLimit, err)
	}
	chunk, err = io.ReadAll(io.LimitReader(resp.Body, DefaultMaxChunk+1))
	if err == nil && len(chunk) > DefaultMaxChunk {
		err = fmt.Errorf("reply exceeds the %d bytes asked for", DefaultMaxChunk)
	}
	if err != nil {
		return nil, false, 0, fmt.Errorf("repl: fetching segment %s gen %d: %w", shard, gen, err)
	}
	return chunk, sealed, limit, nil
}
