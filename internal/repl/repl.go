// Package repl is the WAL-shipping replication layer: a primary
// disclosured process streams its per-shard write-ahead log — sealed
// generations and the committed prefix of each live tail, in the exact
// on-disk framing — to follower processes, which apply the operations into
// an in-memory disclosure.Replica and serve read traffic against it.
//
// The design splits the reference monitor's two halves across the wire the
// only way that keeps the paper's guarantee intact under replication:
//
//   - Followers EVALUATE. Explain, stats and the answer rows of admitted
//     queries are served from the follower's bounded-stale replica,
//     scaling read throughput with the number of followers.
//   - The primary ADMITS what moves a session. Cumulative-disclosure
//     admission is only sound against complete history, so every
//     submission a follower might admit, and cannot prove the primary
//     would admit without a transition, is sent through a decision RPC to
//     the primary, which labels the query, runs the principal's monitor,
//     logs the session transition (if the decision made one) to its WAL
//     and returns admit/refuse. A lagging, partitioned or freshly
//     restarted follower can therefore never re-admit a query the primary
//     refused: it either relays the primary's refusal or fails the
//     submission closed when the primary is unreachable. The
//     fault-injection suite in repl_test.go (TestFollowerNeverReAdmits)
//     pins this down.
//   - A follower under a read lease ADMITS what its replica settles. Every
//     tails pull asks for a lease of two poll intervals (capped at
//     disclosure.MaxReadLease); the primary records it before it reads
//     the tails and acknowledges no policy install, removal or token
//     rotation until every lease live at its commit has lapsed or its
//     follower has pulled again. While the caught-up replica holds the
//     lease, a label every live partition of its session dominates and
//     its cumulative disclosure already covers is one the primary would
//     admit without moving anything, and the follower admits it itself
//     (disclosure.Durable.GrantReadLease, System.decideReplica;
//     lease_test.go).
//   - A follower in contact REFUSES what its replica already refuses. A
//     session's live partitions only shrink within one policy
//     installation and the replica holds a prefix of its transitions, so
//     the replica's live set contains the primary's: a label the replica's
//     session refuses, the primary's refuses too, and the RPC would only
//     fetch the same answer (disclosure.Replica, System.decideReplica;
//     local_test.go). "In contact" is Follower.InContact: the latest sync
//     pass succeeded within two poll intervals, so a partitioned, fenced
//     or hung follower sends everything to the primary and fails closed
//     exactly as before.
//
// Wire protocol (mounted under /v1/repl/ on the primary, bearer-token
// authenticated):
//
//	GET  /v1/repl/tails                         per-shard replication cursors + epoch (+ read-lease grant)
//	GET  /v1/repl/checkpoint?shard=S            newest checkpoint file for S
//	GET  /v1/repl/segment?shard=S&gen=G&off=O   raw committed segment bytes
//	POST /v1/repl/decide                        delegated admission decision
//
// A follower additionally serves POST /v1/repl/promote (admin
// authenticated, mounted by the follower serving layer): it drains the
// replication cursors as far as the old primary is still reachable,
// materializes the replica into a fresh durable deployment under the
// successor decision epoch (Follower.Promote), and flips the node into a
// full primary. Every replication message carries decision epochs
// (HeaderEpoch, TailsResponse.Epoch, DecideRequest.Epoch), and both sides
// enforce them: a primary refuses — and permanently fences itself on —
// any request from a higher epoch, and a follower refuses to apply from
// or rebuild against a node whose epoch is behind what it already knows
// (ErrStalePrimary), so a fenced leftover of a completed failover can
// neither decide nor feed replicas.
//
// Segment bytes are served only up to the shard's committed offset
// (wal.GroupLog.CommittedOffset), so a follower never observes bytes a
// primary crash could truncate; a pruned generation (404) or a framing
// divergence (wal.ErrCorruptStream) makes the follower rebuild its replica
// from fresh checkpoints — replicas are disposable by construction.
package repl

import (
	"crypto/subtle"
	"net/http"
	"strings"

	disclosure "repro"
	"repro/internal/wal"
)

// TailsResponse is the body of GET /v1/repl/tails: every shard's current
// replication cursor — the open generation and the committed byte offset a
// follower may stream up to.
type TailsResponse struct {
	// Shards maps shard name (wal.MetaShard or a data shard) to its tail.
	Shards map[string]wal.Cursor `json:"shards"`
	// Epoch is the primary's decision epoch — constant for the life of a
	// primary. A follower that knows a higher epoch refuses to apply
	// anything from this node (it is a fenced leftover of a completed
	// failover); a follower at a lower epoch resyncs from fresh
	// checkpoints to adopt it.
	Epoch uint64 `json:"epoch"`
	// Lease reports that the pull's read lease was granted: the follower
	// may admit on its own, until the pull's start plus the window it asked
	// for, what its caught-up replica's sessions settle. A primary that
	// predates read leases never sets it, so its followers never admit on
	// their own.
	Lease bool `json:"lease,omitempty"`
}

// DecideRequest is the body of POST /v1/repl/decide: a follower delegating
// one submission's admit/refuse decision to the primary.
type DecideRequest struct {
	// Principal is the submitting principal, resolved by the follower from
	// its replicated token table.
	Principal string `json:"principal"`
	// Query is the submitted conjunctive query in datalog syntax.
	Query string `json:"query"`
	// Fingerprint is the hex form of the query's canonical-form fingerprint
	// as the follower computed it. The primary recomputes the fingerprint
	// from Query and refuses the RPC on mismatch: the nodes canonicalize
	// the query differently (version skew, or corruption in transit), so a
	// decision here would be about a different canonical form than the one
	// the follower evaluates.
	Fingerprint string `json:"fingerprint"`
	// Epoch is the decision epoch the follower believes is current. The
	// primary refuses a mismatched epoch with a structured 409: a lower
	// epoch — an omitted one is 0 — means the follower predates a
	// completed failover and must resync; a higher one means the primary
	// itself has been superseded — it fences itself and refuses.
	Epoch uint64 `json:"epoch,omitempty"`
}

// DecideResponse is the body of a successful decision RPC. Refusals are
// 200 responses with Allowed false — refusal is a policy outcome, exactly
// as on the local submit path.
type DecideResponse struct {
	// Allowed reports the primary's reference-monitor decision.
	Allowed bool `json:"allowed"`
	// Live lists the policy partitions still consistent after the decision
	// (when allowed) or live at refusal time.
	Live []string `json:"live,omitempty"`
	// Refusal is the primary's explanation of a refusal, built on the
	// session state the refusal was decided on. The follower relays it as
	// is: its own replica may lag that state.
	Refusal *disclosure.Explanation `json:"refusal,omitempty"`
}

// PromoteResponse is the body of a successful POST /v1/repl/promote: the
// follower drained its replication cursors as far as it could reach,
// durably recorded the successor epoch in a fresh data directory, and now
// serves the full primary surface (local decisions, replication endpoints)
// on its existing listener.
type PromoteResponse struct {
	// Epoch is the new decision epoch the promoted node decides under.
	Epoch uint64 `json:"epoch"`
	// Dir is the data directory the promoted state was materialized into.
	Dir string `json:"dir"`
	// AppliedOps is the number of log operations the follower had applied
	// when it took over — the drained prefix the new history extends.
	AppliedOps uint64 `json:"applied_ops"`
}

// Machine-readable error codes carried by replication error bodies.
const (
	// CodeStaleEpoch marks a 409 refusing an epoch mismatch between the
	// request and the serving node; Epoch and RequestEpoch say which side
	// is behind.
	CodeStaleEpoch = "stale_epoch"
	// CodeFenced marks a 409 from a node that has been fenced by a higher
	// epoch: it refuses decisions, submits and its replication surface.
	CodeFenced = "fenced"
	// CodeAlreadyPromoted marks the 409 of a repeated promotion: the node
	// already decides locally under Epoch.
	CodeAlreadyPromoted = "already_promoted"
)

// ErrorResponse is the body of every non-2xx response, of the replication
// surface and of the serving layer alike. Epoch conflicts (fenced node,
// stale promotion) additionally carry a machine-readable code and the
// epochs involved, so a client can tell them from ordinary failures and a
// follower can tell "I am stale, resync" apart from "the node I am talking
// to is a fenced leftover"; all other errors set Error alone.
type ErrorResponse struct {
	// Error is the human-readable failure.
	Error string `json:"error"`
	// Code, when set, is one of the Code* constants.
	Code string `json:"code,omitempty"`
	// Epoch is the serving node's decision epoch (epoch conflicts only).
	Epoch uint64 `json:"epoch,omitempty"`
	// RequestEpoch echoes the epoch the request carried (epoch conflicts
	// only).
	RequestEpoch uint64 `json:"request_epoch,omitempty"`
	// FencedBy is the higher epoch that superseded the serving node
	// (CodeFenced only).
	FencedBy uint64 `json:"fenced_by,omitempty"`
}

// Replication response headers.
const (
	// HeaderSealed is "true" on a /v1/repl/segment response for a
	// generation older than the shard's open one: the segment is complete,
	// and a follower that has consumed it entirely advances to the next
	// generation at offset 0.
	HeaderSealed = "X-Disclosure-Sealed"
	// HeaderLimit carries the committed size of the requested segment: the
	// file size for a sealed segment, the group-commit committed offset for
	// the live one. Bytes at or past the limit are not served.
	HeaderLimit = "X-Disclosure-Limit"
	// HeaderEpoch carries a decision epoch in both directions: followers
	// stamp every replication request with the epoch they believe is
	// current, and every replication response declares the serving node's
	// epoch. A request whose epoch exceeds the serving node's proves a
	// completed failover and fences that node.
	HeaderEpoch = "X-Disclosure-Epoch"
	// HeaderLease and HeaderLeaseWindow ask, on a /v1/repl/tails request,
	// for a read lease: the follower's id (random, one per process) and the
	// window it wants, as a Go duration. TailsResponse.Lease answers.
	HeaderLease       = "X-Disclosure-Lease"
	HeaderLeaseWindow = "X-Disclosure-Lease-Window"
)

// Bearer extracts a request's bearer token, or "".
func Bearer(r *http.Request) string {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) > len(prefix) && strings.EqualFold(h[:len(prefix)], prefix) {
		return h[len(prefix):]
	}
	return ""
}

// Authorized reports whether a request's bearer token equals token,
// comparing in time independent of where the two differ. Every check of
// the admin/replication credential goes through it.
func Authorized(r *http.Request, token string) bool {
	return subtle.ConstantTimeCompare([]byte(Bearer(r)), []byte(token)) == 1
}
