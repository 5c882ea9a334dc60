package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	disclosure "repro"
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
// that far in the past — except admit/refuse outcomes. Admits are
// primary-current; a refusal is the primary's or the in-contact replica's,
// and the two agree within one policy installation: a session's live
// partitions only shrink, the replica holds a prefix of its transitions,
// so what the replica's live set refuses the primary's smaller one does
// too. Only a policy install or removal the replica has not applied yet
// can make a replica-decided refusal stale, by at most one poll interval.
const StalenessHeader = "X-Disclosure-Staleness"

// NewFollower wires a Server over a replication follower: the read-path
// service of a follower disclosured. It serves /v1/submit, /v1/explain and
// /v1/stats against the replicated deployment and refuses the
// administrative and write endpoints, which belong to the primary.
//
// The disclosure split is the replication design's core (see package
// repl): answer rows, /v1/explain and stats come from the local replica
// (bounded-stale, staleness declared in the X-Disclosure-Staleness header
// of every data response), and a submission runs through the replica
// System's own submit pipeline, whose decide stage refuses what the
// in-contact replica's session already refuses and sends everything else —
// every would-be admit — to the primary, so cumulative disclosure is
// enforced against complete history no matter how far this follower lags.
// When the primary is unreachable the follower fails those submissions
// closed: an error, never a local admission.
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
	fol.SetAudit(opts.Audit, opts.SlowQuery)
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

// followerBackend serves a replica: tokens (Follower.TokenOwner) and
// everything a request touches (Follower.System) are the replica's; the
// replica's System sends what it may not decide to the primary.
type followerBackend struct {
	*repl.Follower
	opts FollowerOptions

	// failClosed counts submissions failed closed because the decision
	// RPC errored; lagRejects counts requests refused 503 by the MaxLag
	// gate; promotions counts completed takeovers — 0 or 1 per process,
	// but a counter so fleet-wide failover rates aggregate in one query.
	failClosed, lagRejects, promotions *obs.Counter
}

// SubmitBatch is the replica System's submit pipeline. A query that ends
// in an error without a decision failed closed: an unreachable or refusing
// primary is never answered with a locally improvised admission.
func (b *followerBackend) SubmitBatch(principal string, ps []*disclosure.Prepared) []disclosure.BatchResult {
	out := b.System().SubmitPrepared(principal, ps)
	for i := range out {
		if out[i].Err != nil && !out[i].Decision.Allowed {
			b.failClosed.Inc()
		}
	}
	return out
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

// stats adds the follower block — the lag metrics docs/OPERATIONS.md tells
// operators to watch — to the replica System's stats. Those count what this
// node served (the SystemStats identity holds per node): a delegated
// decision counts on the primary too, a refusal the replica decided counts
// here only.
func (b *followerBackend) stats(w http.ResponseWriter, st StatsResponse) any {
	age, ok := b.stamp(w)
	fs := FollowerStatus{
		Primary:          b.Primary(),
		Synced:           ok,
		StalenessSeconds: -1,
		AppliedOps:       b.Applied(),
		Resyncs:          b.Resyncs(),
		LocalRefusals:    b.LocalRefusals(),
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
	if !repl.Authorized(r, s.opts.AdminToken) {
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
	// promoted System is the replica's, so its audit sink keeps receiving
	// records (stamped "primary" now), token rotations are journaled to the
	// new deployment, and the replicated credentials keep authenticating.
	sys := dur.System()
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
