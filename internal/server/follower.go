package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	disclosure "repro"
	"repro/internal/cq"
	"repro/internal/obs"
	"repro/internal/repl"
)

// FollowerOptions configures a Server created with NewFollower.
type FollowerOptions struct {
	// MaxRequestBytes bounds request-body size (default
	// DefaultMaxRequestBytes).
	MaxRequestBytes int64
	// MaxBatch bounds the number of queries in one submit request (default
	// DefaultMaxBatch).
	MaxBatch int
	// MaxLag, when positive, gates reads on replica freshness: submit and
	// explain requests are refused with 503 while the replica's staleness
	// exceeds it (or before the first completed sync). Stats is never
	// gated — it is how lag is monitored.
	MaxLag time.Duration
	// Metrics, when non-nil, is the instance registry for this server's
	// collectors (HTTP middleware, fail-closed and lag-gate counters,
	// sampled gauges); GET /metrics exposes it after obs.Default. The
	// daemon passes the same registry to repl.FollowerOptions.Metrics so
	// one scrape covers the sync loop and the serving layer. Nil creates
	// a fresh registry.
	Metrics *obs.Registry
	// Audit, when non-nil, receives a structured record (node
	// "follower") for every refused and errored submission and — with
	// SlowQuery positive — every submission at least that slow.
	Audit *obs.AuditLog
	// SlowQuery is the audit threshold for admitted submissions.
	SlowQuery time.Duration
	// AdminToken, when non-empty, authenticates GET /metrics and POST
	// /v1/repl/promote, and becomes the promoted node's admin token (the
	// daemon passes the replication token, which is the primary's admin
	// token). Empty leaves /metrics open and disables promotion (403) — a
	// follower with no admin surface cannot be made a primary.
	AdminToken string
	// PromoteDir is the data directory a promotion materializes the
	// replica into; it must be empty or absent on disk. Empty disables
	// promotion (412) — a promoted primary must be durable.
	PromoteDir string
	// PromoteDurability configures the promoted deployment (shard count,
	// fsync, checkpoint cadence).
	PromoteDurability disclosure.DurabilityOptions
}

// StalenessHeader declares a follower data response's replica staleness in
// seconds (decimal). It is the serving half of the staleness contract:
// every answer a follower returns is correct as of a primary state at most
// that far in the past — except admit/refuse outcomes, which are always
// primary-current.
const StalenessHeader = "X-Disclosure-Staleness"

// NewFollower wires a Server over a replication follower: the read-path
// service of a follower disclosured. It serves /v1/submit, /v1/explain and
// /v1/stats against the replicated deployment and refuses the
// administrative and write endpoints, which belong to the primary.
//
// The disclosure split is the replication design's core (see package
// repl): answer rows, /v1/explain and stats come from the local replica
// (bounded-stale, staleness declared in the X-Disclosure-Staleness header
// of every data response), while each submission's admit/refuse decision —
// and the explanation of a refusal — is the primary's, so cumulative
// disclosure is enforced against complete history no matter how far this
// follower lags. When the primary is unreachable the follower fails
// submissions closed: an error, never a local admission.
//
// POST /v1/repl/promote turns the node into a primary in place: the same
// Server — listener, registry, limits, audit sink — then serves the
// promoted deployment, administrative routes included.
func NewFollower(fol *repl.Follower, opts FollowerOptions) *Server {
	s := newServer(Options{
		AdminToken:      opts.AdminToken,
		MaxRequestBytes: opts.MaxRequestBytes,
		MaxBatch:        opts.MaxBatch,
		Metrics:         opts.Metrics,
	})
	s.setBackend(&followerBackend{
		Follower: fol,
		opts:     opts,
		failClosed: s.opts.Metrics.Counter("disclosure_follower_fail_closed_total",
			"Submissions failed closed because the primary decision RPC errored."),
		lagRejects: s.opts.Metrics.Counter("disclosure_follower_lag_rejections_total",
			"Requests refused 503 because replica staleness exceeded the max-lag bound."),
		promotions: s.opts.Metrics.Counter("disclosure_promotions_total",
			"Completed promotions of this node from follower to primary."),
	})
	s.mux.HandleFunc("POST /v1/repl/promote", s.handlePromote)
	return s
}

// followerBackend serves a replica: tokens (Follower.TokenOwner),
// evaluation and /v1/explain (Follower.System) are the replica's, every
// decision is the primary's (Follower.SubmitBatch).
type followerBackend struct {
	*repl.Follower
	opts FollowerOptions

	// failClosed counts submissions failed closed because the decision
	// RPC errored; lagRejects counts requests refused 503 by the MaxLag
	// gate; promotions counts completed takeovers — 0 or 1 per process,
	// but a counter so fleet-wide failover rates aggregate in one query.
	failClosed, lagRejects, promotions *obs.Counter

	// Counter identity, local to this node (see SystemStats): queries is
	// incremented when a submission enters, exactly one of the other three
	// before it returns. Delegated decisions also count on the primary.
	queries, admitted, refused, errored atomic.Uint64
}

// SubmitBatch runs the request through the follower and accounts for it
// on this node: the counters, and the follower-side audit records.
func (b *followerBackend) SubmitBatch(principal string, qs []*disclosure.Query) []disclosure.BatchResult {
	b.queries.Add(uint64(len(qs)))
	t0 := time.Now()
	out := b.Follower.SubmitBatch(principal, qs)
	elapsed := time.Since(t0)
	for i := range out {
		r := &out[i]
		outcome := "admitted"
		switch {
		case r.Decision.Allowed:
			b.admitted.Add(1)
		case r.Err != nil:
			// Failed closed: an unreachable or refusing primary is an
			// error, never a locally improvised admission.
			outcome = "errored"
			b.errored.Add(1)
			b.failClosed.Inc()
		default:
			outcome = "refused"
			b.refused.Add(1)
		}
		if b.opts.Audit != nil {
			b.audit(principal, qs[i], r, outcome, elapsed)
		}
	}
	return out
}

// audit writes the follower-side record of one decided submission:
// refusals and errors always, admitted queries when the request was at
// least SlowQuery slow. TotalMs is the whole request — its decision RPCs
// (split out in disclosure_repl_decide_seconds) plus the local
// evaluations; staleness is stamped so an audit line is interpretable
// without joining against the scrape history.
func (b *followerBackend) audit(principal string, q *disclosure.Query, r *disclosure.BatchResult, outcome string, elapsed time.Duration) {
	slow := b.opts.SlowQuery > 0 && elapsed >= b.opts.SlowQuery
	if r.Decision.Allowed && r.Err == nil && !slow {
		return
	}
	rec := obs.AuditRecord{
		Node:             "follower",
		Principal:        principal,
		Query:            q.Name,
		Fingerprint:      strconv.FormatUint(cq.FingerprintKey(cq.CanonicalKey(q)), 16),
		Outcome:          outcome,
		Slow:             slow,
		Live:             r.Decision.Live,
		TotalMs:          elapsed.Seconds() * 1e3,
		StalenessSeconds: -1,
	}
	if r.Err != nil {
		rec.Error = r.Err.Error()
	}
	if age, ok := b.Staleness(); ok {
		rec.StalenessSeconds = age.Seconds()
	}
	if r.Decision.Refusal != nil {
		rec.Offending = r.Decision.Refusal.Offending()
	}
	_ = b.opts.Audit.Log(&rec)
}

// stamp declares the replica's staleness on a response.
func (b *followerBackend) stamp(w http.ResponseWriter) (time.Duration, bool) {
	age, ok := b.Staleness()
	if ok {
		w.Header().Set(StalenessHeader, strconv.FormatFloat(age.Seconds(), 'f', 3, 64))
	} else {
		w.Header().Set(StalenessHeader, "unsynced")
	}
	return age, ok
}

// fresh stamps the staleness header and enforces MaxLag.
func (b *followerBackend) fresh(w http.ResponseWriter) bool {
	age, ok := b.stamp(w)
	if b.opts.MaxLag > 0 && (!ok || age > b.opts.MaxLag) {
		b.lagRejects.Inc()
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("follower replica staleness exceeds the %s bound; retry or use the primary %s", b.opts.MaxLag, b.Primary()))
		return false
	}
	return true
}

// stats reports this node's submission counters (the SystemStats identity
// holds per node; delegated decisions are counted on the primary too)
// over the replica's cache gauges, plus the follower block with the lag
// metrics docs/OPERATIONS.md tells operators to watch.
func (b *followerBackend) stats(w http.ResponseWriter, st StatsResponse) any {
	age, ok := b.stamp(w)
	// Outcomes before Queries, as in System.Stats: never outcomes > queries.
	st.Admitted, st.Refused, st.Errored = b.admitted.Load(), b.refused.Load(), b.errored.Load()
	st.Queries = b.queries.Load()
	fs := FollowerStatus{
		Primary:          b.Primary(),
		Synced:           ok,
		StalenessSeconds: -1,
		AppliedOps:       b.Applied(),
		Resyncs:          b.Resyncs(),
		Epoch:            b.Epoch(),
	}
	if ok {
		fs.StalenessSeconds = age.Seconds()
	}
	return FollowerStatsResponse{StatsResponse: st, Follower: fs}
}

// handlePromote serves POST /v1/repl/promote (admin token): the fenced
// failover. The follower drains what it can still reach of the old
// primary and materializes its replica into PromoteDir under the
// successor decision epoch (repl.Follower.Promote); this Server then swaps
// its backend to the promoted deployment — local durable decisions, the
// administrative routes, and the replication surface for the next
// generation of followers — on the same listener, registry, limits and
// audit sink.
// From the first replication message it sends or answers, the successor
// epoch fences the old primary.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.opts.AdminToken == "" {
		writeError(w, http.StatusForbidden, "promotion disabled: follower started without an admin token")
		return
	}
	if repl.Bearer(r) != s.opts.AdminToken {
		writeError(w, http.StatusUnauthorized, "admin token required")
		return
	}
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	fb := s.follower()
	if fb == nil {
		promoteConflict(w, s.System().Epoch())
		return
	}
	if fb.opts.PromoteDir == "" {
		writeError(w, http.StatusPreconditionFailed,
			"promotion needs a data directory: start the follower with -data-dir")
		return
	}
	applied := fb.Applied()
	dur, replHandler, err := fb.Promote(fb.opts.PromoteDir, fb.opts.PromoteDurability)
	if err != nil {
		if errors.Is(err, repl.ErrAlreadyPromoted) {
			promoteConflict(w, fb.Epoch())
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Everything the node was configured with at boot carries over: the
	// audit sink keeps receiving records (from the System's own pipeline
	// now, stamped "primary"), token rotations are journaled to the new
	// deployment, and the replicated credentials keep authenticating.
	sys := dur.System()
	sys.SetAudit(fb.opts.Audit, fb.opts.SlowQuery)
	s.mu.Lock()
	s.opts.Journal = dur
	for principal, token := range dur.Tokens() {
		if err = s.installTokenLocked(principal, token); err != nil {
			break
		}
	}
	s.mu.Unlock()
	if err != nil {
		// The successor epoch is already durably recorded; a node that
		// cannot build its serving surface must not keep the deployment
		// open and half-alive.
		_ = dur.Close()
		writeError(w, http.StatusInternalServerError, "promotion succeeded but the primary service failed to start: "+err.Error())
		return
	}
	s.mux.Handle("/v1/repl/", replHandler)
	s.promoted.Store(dur)
	s.setBackend(localBackend{srv: s, sys: sys})
	fb.promotions.Inc()
	writeJSON(w, http.StatusOK, repl.PromoteResponse{
		Epoch:      dur.Epoch(),
		Dir:        fb.opts.PromoteDir,
		AppliedOps: applied,
	})
}

// promoteConflict answers a promotion request on an already-promoted node.
func promoteConflict(w http.ResponseWriter, epoch uint64) {
	writeJSON(w, http.StatusConflict, ErrorResponse{
		Error: fmt.Sprintf("node is already promoted and decides under epoch %d", epoch),
		Code:  repl.CodeAlreadyPromoted,
		Epoch: epoch,
	})
}
