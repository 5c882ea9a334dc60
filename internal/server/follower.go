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
	"repro/internal/wire"
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
	// AdminToken, when non-empty, authenticates GET /v1/stats, GET
	// /metrics and POST /v1/repl/promote, and becomes the promoted node's
	// admin token (the daemon passes the replication token, which is the
	// primary's admin token). Empty leaves /v1/stats and /metrics open and
	// disables promotion (403) — a follower with no admin surface cannot be
	// made a primary.
	AdminToken string
	// PromoteDir is the data directory a promotion materializes the
	// replica into; it must be empty or absent on disk. Empty disables
	// promotion (412) — a promoted primary must be durable.
	PromoteDir string
	// PromoteDurability configures the promoted deployment (fsync,
	// checkpoint cadence, decision lease).
	PromoteDurability disclosure.DurabilityOptions
}

// StalenessHeader declares a follower data response's replica staleness in
// seconds (decimal). It is the serving half of the staleness contract:
// every answer a follower returns is correct as of a primary state at most
// that far in the past — except admit/refuse outcomes. An admit is the
// primary's, or the leased replica's for a label its session settles: the
// primary would admit it and move nothing, and it acknowledges no policy
// install, removal or token rotation while a lease granted before it is
// live. A refusal is the primary's or the in-contact replica's, and the two
// agree within one policy installation: a session's live partitions only
// shrink, the replica holds a prefix of its transitions, so what the
// replica's live set refuses the primary's smaller one does too. Only a
// policy install or removal the replica has not applied yet can make a
// replica-decided refusal stale, by under two poll intervals from the
// follower's pull.
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
// in-contact replica's session already refuses, admits what the leased
// replica's session settles (an admit the primary would make without
// moving the session), and sends everything else — every admit that moves
// a session, every admit out of lease — to the primary, so cumulative
// disclosure is enforced against complete history no matter how far this
// follower lags. When the primary is unreachable the follower fails those
// submissions closed: an error, never a local admission.
//
// POST /v1/repl/promote turns the node into a primary in place: the same
// Server — listener, registry, limits — then serves the promoted
// deployment, administrative routes included. The audit sink is the
// Follower's (Follower.SetAudit), and the promoted System keeps it.
func NewFollower(fol *repl.Follower, opts FollowerOptions) *Server {
	s := newServer(Options{
		AdminToken:      opts.AdminToken,
		MaxRequestBytes: opts.MaxRequestBytes,
		MaxBatch:        opts.MaxBatch,
	}, fol.Metrics())
	s.setBackend(&followerBackend{
		Follower: fol,
		opts:     opts,
		lagRejects: s.reg.Counter("disclosure_follower_lag_rejections_total",
			"Requests refused 503 because replica staleness exceeded the max-lag bound."),
		promotions: s.reg.Counter("disclosure_promotions_total",
			"Completed promotions of this node from follower to primary."),
	})
	s.mux.HandleFunc("POST /v1/repl/promote", s.handlePromote)
	return s
}

// followerBackend serves a replica: everything a request touches, its
// token included, is the replica's System's (Follower.System), and that
// System sends what it may not decide to the primary.
type followerBackend struct {
	*repl.Follower
	opts FollowerOptions

	// lagRejects counts requests refused 503 by the MaxLag gate;
	// promotions counts completed takeovers — 0 or 1 per process, but a
	// counter so fleet-wide failover rates aggregate in one query. The
	// Follower counts submissions failed closed, in the registry it
	// registers into.
	lagRejects, promotions *obs.Counter
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
		LocalAdmits:      b.LocalAdmits(),
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
// generation of followers — on the same listener, registry and limits.
// The promoted System is the replica's, so it keeps the replicated
// tokens, which now authenticate and rotate against the promoted log, and
// its audit sink, whose records are stamped "primary" now.
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
	s.mux.Handle("/v1/repl/", replHandler)
	s.setBackend(localBackend{sys: dur.System()})
	fb.promotions.Inc()
	wire.WriteJSON(w, http.StatusOK, repl.PromoteResponse{
		Epoch:      dur.Epoch(),
		Dir:        fb.opts.PromoteDir,
		AppliedOps: applied,
	})
}

// promoteConflict answers a promotion request on an already-promoted node.
func promoteConflict(w http.ResponseWriter, epoch uint64) {
	wire.WriteJSON(w, http.StatusConflict, ErrorResponse{
		Error: fmt.Sprintf("node is already promoted and decides under epoch %d", epoch),
		Code:  repl.CodeAlreadyPromoted,
		Epoch: epoch,
	})
}
