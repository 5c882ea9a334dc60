package server

import (
	disclosure "repro"
	"repro/internal/obs"
	"repro/internal/repl"
)

// This file defines the wire types of the disclosured HTTP/JSON API. They
// are shared by the server handlers, the Client the load generator
// (benchmark/) drives the daemon with and the end-to-end tests, so the
// three can never drift apart.

// SubmitRequest is the body of POST /v1/submit. Exactly one of Query
// (single submission) or Queries (batch submission) must be set. Queries
// are conjunctive queries in datalog syntax, e.g.
// "Q(t) :- Meetings(t, p)". A batch maps onto the System's submit
// pipeline, so its queries are labeled and decided in slice order, as
// that many single submissions would be, and evaluated against one
// database snapshot. A query body may hold at most cq.MaxBodyAtoms atoms.
type SubmitRequest struct {
	Query   string   `json:"query,omitempty"`
	Queries []string `json:"queries,omitempty"`
}

// SubmitResult is the outcome of one submitted query.
type SubmitResult struct {
	// Query is the head name of the submitted query.
	Query string `json:"query"`
	// Allowed reports the reference monitor's decision.
	Allowed bool `json:"allowed"`
	// Live lists the policy partitions still consistent after the decision
	// (when allowed) or the partitions that were live when the query was
	// refused.
	Live []string `json:"live,omitempty"`
	// Rows holds the answer tuples of an admitted query.
	Rows [][]string `json:"rows,omitempty"`
	// Error reports a submission error (no policy, labeling failure,
	// evaluation failure). Refusals are not errors.
	Error string `json:"error,omitempty"`
	// Refusal carries the structured account of a refusal: the query's
	// label, the session's cumulative disclosure, and per-partition status
	// rows (the offending partitions are the live ones that do not
	// dominate the label). It is the explanation the decision itself
	// carries: the session state the refusal was decided on — in a batch,
	// after the queries before it and before the queries after it; on a
	// follower, the primary's session, not the replica's copy.
	Refusal *disclosure.Explanation `json:"refusal,omitempty"`
}

// SubmitResponse is the body of a POST /v1/submit response. For a single
// submission Results has exactly one element.
type SubmitResponse struct {
	Principal string         `json:"principal"`
	Results   []SubmitResult `json:"results"`
}

// PolicyRequest is the body of PUT /v1/policy/{principal}: the principal's
// partitioned policy plus the bearer token that will authenticate its
// submissions. Replacing a policy resets the principal's session and
// rotates its token.
type PolicyRequest struct {
	Token      string              `json:"token"`
	Partitions map[string][]string `json:"partitions"`
}

// PolicyResponse is the body of a successful policy installation.
type PolicyResponse struct {
	Principal  string `json:"principal"`
	Partitions int    `json:"partitions"`
}

// LoadRow is one row of a bulk load.
type LoadRow struct {
	Rel    string   `json:"rel"`
	Values []string `json:"values"`
}

// LoadRequest is the body of POST /v1/load. The rows are inserted through
// System.LoadBatch: concurrent submissions see either none or all of them.
type LoadRequest struct {
	Rows []LoadRow `json:"rows"`
}

// LoadResponse is the body of a successful bulk load.
type LoadResponse struct {
	Rows int `json:"rows"`
}

// StatsResponse is the body of GET /v1/stats: the system counters (see
// disclosure.SystemStats for the accounting identity they satisfy) plus
// server-level gauges.
type StatsResponse struct {
	disclosure.SystemStats
	// Principals is the number of principals with an installed policy.
	Principals int `json:"principals"`
	// UptimeSeconds is the time since the server was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Build identifies the serving binary (module version, VCS revision,
	// Go toolchain), so a deployment is identifiable from a stats call.
	Build obs.BuildInfo `json:"build"`
	// Epoch is the decision epoch this node decides under (zero on an
	// in-memory deployment, which has no failover story).
	Epoch uint64 `json:"epoch,omitempty"`
}

// FollowerStatus is the replication block of a follower's stats response:
// the lag metrics an operator monitors (docs/OPERATIONS.md, "Followers").
type FollowerStatus struct {
	// Primary is the primary's base URL.
	Primary string `json:"primary"`
	// Synced reports whether the replica has ever fully matched the
	// primary's log tails.
	Synced bool `json:"synced"`
	// StalenessSeconds is how long ago the replica last fully matched the
	// primary (-1 before the first completed sync). The same value is
	// stamped on data responses as the X-Disclosure-Staleness header.
	StalenessSeconds float64 `json:"staleness_seconds"`
	// AppliedOps counts log operations applied over the follower's
	// lifetime; Resyncs counts checkpoint re-bootstraps after divergence.
	AppliedOps uint64 `json:"applied_ops"`
	// Resyncs counts checkpoint re-bootstraps after the initial one.
	Resyncs uint64 `json:"resyncs"`
	// LocalRefusals counts refusals this follower decided from its
	// replica's own sessions, without a decision RPC; the primary's
	// counters and audit log never see them.
	LocalRefusals uint64 `json:"local_refusals"`
	// LocalAdmits counts admits this follower decided from its leased
	// replica's own sessions, without a decision RPC: admits that moved no
	// session, which the primary would have admitted and logged nothing
	// for. The primary's counters and audit log never see them either.
	LocalAdmits uint64 `json:"local_admits"`
	// Epoch is the decision epoch the replica has replicated. A promoted
	// node serves the primary's stats body — no follower block, and its
	// successor epoch in StatsResponse.Epoch.
	Epoch uint64 `json:"epoch,omitempty"`
}

// FollowerStatsResponse is the body of GET /v1/stats on a follower: the
// node-local counters (the SystemStats identity holds per node — a
// delegated decision also counts on the primary, a replica-decided refusal
// here only; they restart, like the cache gauges, when a resync rebuilds
// the replica) plus the replication status block.
type FollowerStatsResponse struct {
	StatsResponse
	// Follower is the replication status block.
	Follower FollowerStatus `json:"follower"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse = repl.ErrorResponse
