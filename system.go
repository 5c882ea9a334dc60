package disclosure

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/label"
	"repro/internal/obs"
	"repro/internal/policy"
)

// ErrNoPolicy is returned (wrapped, with the principal name) by Submit,
// SubmitBatch and Explain when the principal has no installed policy; match
// it with errors.Is. Principals without a policy are refused everything.
var ErrNoPolicy = errors.New("disclosure: principal has no policy")

// noPolicy turns the policy store's unknown-principal error into the
// package's ErrNoPolicy; every other error passes through.
func noPolicy(principal string, err error) error {
	if errors.Is(err, policy.ErrUnknownPrincipal) {
		return fmt.Errorf("%w: %q", ErrNoPolicy, principal)
	}
	return err
}

// System is the end-to-end disclosure-control deployment of the paper's
// Figure 2: a database, a security-view catalog, a labeler, and one
// reference monitor per principal (app). Apps submit conjunctive queries;
// the system labels each query, checks the principal's policy (including
// cumulative disclosure across the session), and only evaluates admitted
// queries.
//
// Concurrency contract: every method of System is safe for concurrent use.
// Submissions are labeled through a sharded canonical-form cache, decided
// under a per-principal lock (submissions for different principals proceed
// in parallel; submissions for one principal serialize, preserving the
// cumulative-disclosure semantics), and evaluated lock-free against an
// immutable database snapshot through a compiled-plan cache. Insert and
// LoadBatch build the next snapshot under the engine's write lock and
// publish it atomically, so they never block in-flight evaluations;
// SetPolicy may likewise be called at any time. Both caches are built with
// the System and never swapped.
//
// A System opened with OpenDurable additionally write-ahead logs every
// state-changing operation — row loads, policy installs and removals, and
// each reference-monitor decision that moves its session's state — before
// it is acknowledged, so a restarted
// deployment recovers its rows, policies and cumulative-disclosure state
// and keeps refusing what it refused before the crash. Durability
// serializes state-changing operations on the log; the read path is
// unchanged, and a System built with NewSystem pays nothing.
type System struct {
	db      *engine.Database
	cat     *label.Catalog
	labeler *label.CachedLabeler
	store   *policy.ConcurrentStore
	// memo resolves a query text the node has seen before to its prepared
	// query (Prepare); it holds nothing derived from the state above.
	memo *cq.Memo

	// dur, when non-nil, is the write-ahead logging layer: OpenDurable
	// attaches it before the System is shared, PromoteReplica to a
	// replica's System that requests are already reaching, hence the
	// atomic. It never changes once set.
	dur atomic.Pointer[Durable]
	// up, when non-nil, makes this a replica's System (Replica.Follow): it
	// decides on its own what its sessions prove the primary would decide
	// without a transition, and sends every other decision upstream.
	// Attached before the System is shared; a promotion attaches dur on
	// top, which takes precedence from then on.
	up Upstream
	// lease is a replica's read lease (Replica.GrantLease), nil while it
	// holds none: the standing to admit on its own.
	lease atomic.Pointer[readLease]

	// The submission-token table: owners resolves a token to its principal,
	// tokens is the inverse. Both are written only by installToken and
	// dropToken, under tokMu's write lock, which is held for the map
	// update alone, so a lookup never waits on a log append or an fsync.
	// tokSet serializes SetToken: its collision check and its install.
	tokSet sync.Mutex
	tokMu  sync.RWMutex
	owners map[string]string
	tokens map[string]string

	// mets holds the submit-pipeline collectors (nil = uninstrumented),
	// attached by NewSystem and never changed afterwards. audit is the
	// structured decision audit sink (nil = off); a promotion attaches it to
	// a replica's System that requests may already be reaching, hence the
	// atomic.
	mets  *systemMetrics
	audit atomic.Pointer[auditSink]

	// Counter identity (see Stats): queries is incremented when a
	// submission enters the system; exactly one of admitted, refused or
	// errored is incremented before that submission returns. All four
	// counters are monotone.
	queries  atomic.Uint64
	admitted atomic.Uint64
	refused  atomic.Uint64
	errored  atomic.Uint64
}

// NewSystem wires a database, catalog and cached labeler over the given
// schema and single-atom security views. The label cache holds
// label.DefaultCacheCapacity canonical forms and the plan cache
// engine.DefaultPlanCacheCapacity; both are fixed for the System's life.
func NewSystem(s *Schema, securityViews ...*Query) (*System, error) {
	cat, err := label.NewCatalog(s, securityViews...)
	if err != nil {
		return nil, err
	}
	return &System{
		db:      engine.NewDatabase(s),
		cat:     cat,
		labeler: label.NewCachedLabeler(label.NewLabeler(cat), label.DefaultCacheCapacity),
		store:   policy.NewConcurrentStore(),
		memo:    cq.NewMemo(),
		owners:  make(map[string]string),
		tokens:  make(map[string]string),
		mets:    newSystemMetrics(obs.Default),
	}, nil
}

// Insert adds a tuple to the named relation and publishes a database
// snapshot containing it; it is safe concurrently with submissions, which
// keep evaluating against the previous snapshot until publication. On a
// durable System the row is logged (as a one-row batch) before the
// snapshot publishes.
func (sys *System) Insert(rel string, values ...string) error {
	if sys.dur.Load() != nil {
		return sys.LoadBatch(func(ld *Loader) error { return ld.Insert(rel, values...) })
	}
	return sys.db.Insert(rel, values...)
}

// LoadBatch runs fn with a batch loader and publishes a single database
// snapshot afterwards — the bulk-loading path that participates in snapshot
// publication: concurrent submissions see either the database before the
// batch or the database with every row fn inserted before returning (or
// failing). fn must not call back into the System's write methods.
//
// On a durable System the batch's inserted rows are appended to the
// meta write-ahead log as one record — and made durable — before
// LoadBatch returns, so a batch whose LoadBatch call returned survives a
// crash in full, and a batch interrupted by a crash is recovered either
// whole or not at all (the log record is framed and checksummed as a
// unit). Bulk loads never contend with submissions, which log to the data
// log.
func (sys *System) LoadBatch(fn func(ld *Loader) error) error {
	if d := sys.dur.Load(); d != nil {
		return d.loadBatch(fn)
	}
	return sys.db.Load(fn)
}

// Table returns a read-only snapshot view of the named relation, or nil for
// unknown relations. The view is immutable: later inserts do not affect it.
func (sys *System) Table(name string) *Table { return sys.db.Table(name) }

// Catalog returns the security-view catalog.
func (sys *System) Catalog() *Catalog { return sys.cat }

// Labeler returns the system's labeler (the caching wrapper used by
// Submit).
func (sys *System) Labeler() Labeler { return sys.labeler }

// SetPolicy installs (or replaces) a principal's security policy; partition
// values list security-view names. Replacing a policy resets the
// principal's cumulative-disclosure state. On a durable System the
// installation is logged (after validation) before it takes effect.
func (sys *System) SetPolicy(principal string, partitions map[string][]string) error {
	return sys.setPolicy(principal, partitions, "")
}

// SetPolicyAndToken is SetPolicy followed by SetToken, as one installation:
// a token another principal holds is refused with ErrTokenTaken before
// anything changes, the token resolves only once the policy is installed,
// and on a durable System both records are committed before the one wait
// for the read leases granted before them (Durable.GrantReadLease) — where
// the two calls would wait once each.
func (sys *System) SetPolicyAndToken(principal string, partitions map[string][]string, token string) error {
	sys.tokSet.Lock()
	defer sys.tokSet.Unlock()
	switch owner, ok := sys.TokenOwner(token); {
	case ok && owner != principal:
		return ErrTokenTaken
	case ok:
		token = "" // the principal's current token: nothing to install
	}
	return sys.setPolicy(principal, partitions, token)
}

// setPolicy validates and installs a policy, then the principal's new
// token unless token is empty.
func (sys *System) setPolicy(principal string, partitions map[string][]string, token string) error {
	p, err := policy.New(sys.cat, partitions)
	if err != nil {
		return err
	}
	if d := sys.dur.Load(); d != nil {
		return d.setPolicy(principal, partitions, p, token)
	}
	sys.store.SetPolicy(principal, p)
	if token != "" {
		sys.installToken(principal, token)
	}
	return nil
}

// RemovePolicy deletes a principal's policy, session state and submission
// token. The only error source is the write-ahead log; an in-memory System
// always returns nil.
func (sys *System) RemovePolicy(principal string) error {
	if d := sys.dur.Load(); d != nil {
		return d.removePolicy(principal)
	}
	sys.store.Remove(principal)
	sys.dropToken(principal)
	return nil
}

// ErrTokenTaken is returned by SetToken for a token another principal
// holds: accepting it would let that principal's requests act as this one,
// and this one's next rotation would revoke the other's only credential.
var ErrTokenTaken = errors.New("disclosure: token already assigned to another principal")

// SetToken makes token the principal's submission token; the token it
// supersedes stops resolving. A token another principal holds is refused
// with ErrTokenTaken, and re-installing the principal's current token
// changes nothing. On a durable System the token is logged
// (Durable.LogToken) before it resolves, and a decision made for a request
// that presented it is released only once that record is durable. SetToken
// calls serialize; TokenOwner never waits on them.
func (sys *System) SetToken(principal, token string) error {
	sys.tokSet.Lock()
	defer sys.tokSet.Unlock()
	switch owner, ok := sys.TokenOwner(token); {
	case ok && owner != principal:
		return ErrTokenTaken
	case ok:
		return nil
	}
	if d := sys.dur.Load(); d != nil {
		return d.LogToken(principal, token)
	}
	sys.installToken(principal, token)
	return nil
}

// TokenOwner resolves a submission token to its principal — the serving
// layer's authentication lookup, on a primary and a replica alike.
func (sys *System) TokenOwner(token string) (string, bool) {
	sys.tokMu.RLock()
	defer sys.tokMu.RUnlock()
	principal, ok := sys.owners[token]
	return principal, ok
}

// installToken applies a token rotation to the table — SetToken's on an
// in-memory System, a logged or replayed token record's otherwise.
func (sys *System) installToken(principal, token string) {
	sys.tokMu.Lock()
	defer sys.tokMu.Unlock()
	if old, ok := sys.tokens[principal]; ok {
		delete(sys.owners, old)
	}
	sys.tokens[principal], sys.owners[token] = token, principal
}

// dropToken forgets the principal's submission token.
func (sys *System) dropToken(principal string) {
	sys.tokMu.Lock()
	defer sys.tokMu.Unlock()
	delete(sys.owners, sys.tokens[principal])
	delete(sys.tokens, principal)
}

// tokenTable returns a copy of the principal → token map.
func (sys *System) tokenTable() map[string]string {
	sys.tokMu.RLock()
	defer sys.tokMu.RUnlock()
	return maps.Clone(sys.tokens)
}

// Principals returns the number of principals with an installed policy.
func (sys *System) Principals() int { return sys.store.Len() }

// Epoch returns the decision epoch a durable System decides under, or zero
// for an in-memory System (epochs exist to coordinate durable nodes; a
// process-local deployment has nothing to hand off).
func (sys *System) Epoch() uint64 {
	if d := sys.dur.Load(); d != nil {
		return d.Epoch()
	}
	return 0
}

// FencedBy returns the higher decision epoch a durable System has been
// superseded by, or zero while it is the authority (always zero for an
// in-memory System).
func (sys *System) FencedBy() uint64 {
	if d := sys.dur.Load(); d != nil {
		return d.FencedBy()
	}
	return 0
}

// DecisionErr reports whether this node may currently make admission
// decisions: nil when it may, an error wrapping ErrFenced or
// ErrLeaseExpired when it may not. In-memory Systems always may.
func (sys *System) DecisionErr() error {
	if d := sys.dur.Load(); d != nil {
		return d.DecisionErr()
	}
	return nil
}

// Session returns a principal's live partitions.
func (sys *System) Session(principal string) ([]string, error) {
	live, err := sys.store.Snapshot(principal)
	if err != nil {
		return nil, noPolicy(principal, err)
	}
	return live, nil
}

// Label computes the disclosure label of a query without submitting it.
func (sys *System) Label(q *Query) (Label, error) { return sys.labeler.Label(q) }

// Submit runs a query on behalf of a principal: the query is labeled and
// checked against the principal's policy; if admitted, it is evaluated and
// its answers returned. Refusals are (Decision{Allowed: false}, nil, nil) —
// refusal is a policy outcome, not an error — and carry their structured
// explanation in Decision.Refusal. Principals without a policy get
// (Decision{Allowed: false}, nil, err) with err wrapping ErrNoPolicy.
// Submit is SubmitBatch of one query.
func (sys *System) Submit(principal string, q *Query) (Decision, []Tuple, error) {
	r := sys.pipeline(principal, []*Prepared{cq.PrepareQuery(q)}, true)[0]
	return r.Decision, r.Answer.Rows(), r.Err
}

// Prepare turns a query text into a prepared query — parsed, canonicalized,
// ready for SubmitPrepared and DecidePrepared — through the System's
// source-text memo (cq.Memo): a text these exact bytes of which the node
// has prepared before, and seen at least twice, costs a lookup. The memo
// holds nothing derived from data, policies or sessions, so a prepared
// query stays valid for the life of the System and may be shared. src is
// not retained.
func (sys *System) Prepare(src []byte) (*Prepared, error) { return sys.memo.Prepare(src) }

// Decide labels a query and runs it through the principal's reference
// monitor — advancing the session's cumulative-disclosure state and, on a
// durable System, logging the transition if there was one — without
// evaluating it: the submit pipeline with the evaluation stage off. It is
// the primary's half of a delegated follower submission (internal/repl):
// the follower's own pipeline evaluates an admitted query against its
// replica, but the admission is decided here, against the complete
// history. Outcomes, counters, metrics and audit records are exactly
// Submit's.
func (sys *System) Decide(principal string, q *Query) (Decision, error) {
	return sys.DecidePrepared(principal, cq.PrepareQuery(q))
}

// DecidePrepared is Decide for a prepared query.
func (sys *System) DecidePrepared(principal string, p *Prepared) (Decision, error) {
	r := sys.pipeline(principal, []*Prepared{p}, false)[0]
	return r.Decision, r.Err
}

// Evaluate runs a query against the current database snapshot without
// consulting any policy or advancing any session — the pipeline's
// evaluation stage on its own, for a caller that holds a decision made
// elsewhere (the benchmark's traced replay walks a follower's submission
// as Follower.Decide, then this). It never touches the Stats counters.
func (sys *System) Evaluate(q *Query) ([]Tuple, error) {
	return sys.db.Eval(q)
}

// decide runs a labeled submission through the principal's reference
// monitor. On a durable System the decision is made under the data log's
// lock and, when it moved the session state, the state it moved to is
// logged there — so the log's order equals its apply order and replay
// reproduces every session's security state exactly; a decision that
// changed nothing (every refusal, every repeated admit) logs nothing.
// Either way the caller then waits, outside the lock, until every record
// the decision rests on has reached disk before the decision is released
// (Durable.decide). A replica's System decides on its own what its
// session proves the primary would decide without a transition, and asks
// its primary otherwise (decideReplica); byReplica reports the former.
func (sys *System) decide(principal string, p *Prepared, lbl Label) (dec Decision, byReplica bool, err error) {
	switch d := sys.dur.Load(); {
	case d != nil:
		dec, err = d.decide(principal, p.Name, lbl)
	case sys.up != nil:
		return sys.decideReplica(principal, p, lbl)
	default:
		err = sys.store.Do(principal, func(m *Monitor) { dec = sys.decideLocked(m, p.Name, lbl) })
	}
	if err != nil {
		return Decision{Allowed: false}, false, noPolicy(principal, err)
	}
	return dec, false, nil
}

// Upstream is the primary as a replica's System reaches it — implemented by
// the replication follower (internal/repl), which this package cannot
// import.
type Upstream interface {
	// InContact reports whether the replica may refuse for the primary
	// where the two provably agree: its latest sync pass succeeded,
	// recently.
	InContact() bool
	// DecidePrepared is the decision RPC: the primary decides against the
	// complete history and logs the transition before it answers. The
	// prepared query crosses as its source text and its key's fingerprint.
	DecidePrepared(principal string, p *Prepared) (Decision, error)
	// RefusedLocally and AdmittedLocally count one refusal and one admit
	// decided without the RPC.
	RefusedLocally()
	AdmittedLocally()
	// Staleness is the replica's age for the audit record, false before
	// the first sync.
	Staleness() (time.Duration, bool)
}

// decideReplica is a follower's decision. A session's live partitions only
// ever shrink, and its cumulative disclosure only grows, within one policy
// installation, and a replica holds a prefix of each session's
// transitions: its live set contains the primary's and its cumulative
// label lies below the primary's. So an in-contact replica
// (Upstream.InContact) answers two kinds of submission itself, under the
// one monitor lock, nothing shipped:
//
//   - a label no live partition of the replica dominates: the primary
//     refuses it too. Against a policy installation or removal the replica
//     has not applied yet this costs a refusal stale by under two poll
//     intervals from the pull, never an admission;
//   - a label the replica's session settles (Monitor.Settled): every live
//     partition dominates it and it lies below the cumulative label, so
//     the primary admits it, logs nothing and moves nothing. An
//     installation, removal or token record the replica has not applied
//     is the one way the two could differ, so this also needs the
//     replica's read lease: the primary acknowledges none of those records
//     until every lease granted before it has lapsed or its follower has
//     pulled again (Durable.GrantReadLease). The grant is loaded before the
//     session read and must still be the current one, unexpired, after it;
//     a pull, and the acknowledgement it releases, could otherwise slip in
//     between the check and the decision.
//
// Everything else — an admit that moves the session, an admit out of
// lease, a replica out of contact — is the primary's call.
func (sys *System) decideReplica(principal string, p *Prepared, lbl Label) (Decision, bool, error) {
	if sys.up.InContact() {
		var dec Decision
		var local bool
		err := sys.store.Do(principal, func(m *Monitor) {
			if !m.Check(lbl) {
				e := m.Explanation(sys.cat, p.Name, lbl)
				dec, local = Decision{Live: m.LiveNames(), Refusal: &e}, true
			} else if grant := sys.lease.Load(); grant != nil {
				dec, local = m.Settled(lbl)
				local = local && sys.lease.Load() == grant && grant.valid()
			}
		})
		switch {
		case err != nil || !local:
		case dec.Allowed:
			sys.up.AdmittedLocally()
			return dec, true, nil
		default:
			sys.up.RefusedLocally()
			return dec, true, nil
		}
	}
	dec, err := sys.up.DecidePrepared(principal, p)
	return dec, false, err
}

// decideLocked is the decision itself, under the principal's monitor lock
// (a store.Do closure): the monitor decides, and a refusal's explanation
// is built before the lock is released, so it describes the session the
// refusal was decided on — not whatever a concurrent submission or a
// later query of the same batch has made of it since.
func (sys *System) decideLocked(m *Monitor, name string, lbl Label) Decision {
	dec := m.Submit(lbl)
	if !dec.Allowed {
		e := m.Explanation(sys.cat, name, lbl)
		dec.Refusal = &e
	}
	return dec
}

// BatchResult is the outcome of one query of a SubmitBatch call. Answer is
// an admitted query's rows, still the interned ids the engine computed: the
// serving layer writes them to the wire without building a tuple, a library
// caller renders them with Answer.Rows().
type BatchResult struct {
	Decision Decision
	Answer   Answer
	Err      error
}

// SubmitBatch submits a batch of queries for one principal: it is Submit in
// a loop — each query is prepared, labeled and decided in slice order, so
// cumulative-disclosure semantics, counters, metrics and audit records are
// exactly those of n submissions — except that every admitted query is
// evaluated against one database snapshot, taken at the first admission.
// Isomorphic queries in a batch share an answer through the plan cache's
// answer memo once their form's plan is resident (the plan cache keeps it on
// the form's second miss). Results are positionally aligned with qs.
func (sys *System) SubmitBatch(principal string, qs []*Query) []BatchResult {
	ps := make([]*Prepared, len(qs))
	for i, q := range qs {
		ps[i] = cq.PrepareQuery(q)
	}
	return sys.pipeline(principal, ps, true)
}

// SubmitPrepared is SubmitBatch for queries that are already prepared
// (Prepare): the serving layer's entry, on which a query text the node has
// seen before is neither parsed nor canonicalized.
func (sys *System) SubmitPrepared(principal string, ps []*Prepared) []BatchResult {
	return sys.pipeline(principal, ps, true)
}

// pipeline is the one submit path behind Submit, Decide, SubmitBatch and
// their prepared forms: label and decide each query in slice order under
// the key it was prepared with, then — with eval set — evaluate each
// admitted query at one snapshot. A batch of n is n submissions. It never
// canonicalizes, and reaches a parsed query only on a label- or plan-cache
// miss. Stage timing, outcome counters, error mapping and the audit record
// exist here and nowhere else.
//
// Every instrumentation touch is gated on timed: with metrics and audit
// both off (obs.Disabled) the pipeline takes no timestamps at all, and
// with them on it allocates nothing the uninstrumented run does not.
func (sys *System) pipeline(principal string, ps []*Prepared, eval bool) []BatchResult {
	m, audit := sys.mets, sys.audit.Load()
	timed := m != nil || audit != nil
	out := make([]BatchResult, len(ps))
	clocks := make([]stageClock, len(ps))
	var now time.Time
	if timed {
		now = time.Now()
	}
	sys.queries.Add(uint64(len(ps)))

	if !sys.store.Has(principal) {
		// Fail the whole batch before labeling: unauthenticated principals
		// must not consume labeling work or label-cache capacity. A policy
		// removed mid-batch is still caught per query by decide.
		err := fmt.Errorf("%w: %q", ErrNoPolicy, principal)
		for i := range out {
			out[i].Err = err
		}
	} else {
		// Label, then decide, each query in slice order; each stage's clock
		// runs from the end of the previous one.
		for i, p := range ps {
			lbl, err := sys.labeler.LabelPrepared(p)
			if timed {
				t := time.Now()
				clocks[i].label, now = t.Sub(now), t
				if m != nil {
					m.stageLabel.Observe(clocks[i].label.Seconds())
				}
			}
			if err != nil {
				out[i].Err = fmt.Errorf("disclosure: labeling %s: %w", p.Name, err)
				continue
			}
			out[i].Decision, clocks[i].byReplica, out[i].Err = sys.decide(principal, p, lbl)
			if timed {
				t := time.Now()
				clocks[i].decide, now = t.Sub(now), t
				if m != nil {
					m.stageDecide.Observe(clocks[i].decide.Seconds())
				}
			}
		}
		if eval {
			// Every admitted query is evaluated at one snapshot, so the batch
			// reflects a single database state even while inserts land
			// mid-batch; a batch that admitted nothing takes none.
			var snap *engine.Snapshot
			for i, p := range ps {
				if !out[i].Decision.Allowed {
					continue
				}
				if snap == nil {
					snap = sys.db.Snapshot()
				}
				out[i].Answer, clocks[i].eval, out[i].Err = sys.evalOne(snap, p, timed)
			}
		}
	}

	// Outcomes: every query lands in exactly one counter (the Stats
	// identity), one end-to-end observation and at most one audit record.
	// An evaluation failure after admission stays "admitted" with the
	// error recorded — the disclosure decision was made and the session
	// advanced.
	for i := range out {
		r := &out[i]
		outcome := outcomeAdmitted
		switch {
		case r.Decision.Allowed:
			sys.admitted.Add(1)
		case r.Err != nil:
			outcome = outcomeErrored
			sys.errored.Add(1)
		default:
			outcome = outcomeRefused
			sys.refused.Add(1)
		}
		if !timed {
			continue
		}
		if m != nil {
			m.outcomes[outcome].Inc()
			m.e2e[outcome].Observe(clocks[i].total().Seconds())
		}
		if audit != nil {
			sys.auditSubmission(audit, outcome, principal, ps[i], r, clocks[i])
		}
	}
	return out
}

// evalOne evaluates one admitted query at the batch's snapshot, timing it
// as one observation of the eval stage.
func (sys *System) evalOne(snap *engine.Snapshot, p *Prepared, timed bool) (Answer, time.Duration, error) {
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	ans, err := sys.db.EvalCanonicalAt(snap, p)
	if !timed {
		return ans, 0, err
	}
	d := time.Since(t0)
	if m := sys.mets; m != nil {
		m.stageEval.Observe(d.Seconds())
	}
	return ans, d, err
}

// SystemStats is a point-in-time snapshot of system-wide counters. All
// counters are monotone, and they satisfy the accounting identity
//
//	Queries == Admitted + Refused + Errored + in-flight
//
// where in-flight is the number of submissions that have entered Submit or
// SubmitBatch but not yet reached their outcome counter. When the system is
// quiescent (no submission in flight) the identity is exact:
// Queries == Admitted + Refused + Errored. TestStatsIdentity enforces this.
type SystemStats struct {
	// Queries counts every submission (admitted, refused, or errored),
	// incremented on entry.
	Queries uint64 `json:"queries"`
	// Admitted and Refused count policy outcomes. A submission whose
	// evaluation fails after the monitor admitted it still counts as
	// admitted — the disclosure decision was made and the session state
	// advanced, even though no rows were returned.
	Admitted uint64 `json:"admitted"`
	Refused  uint64 `json:"refused"`
	// Errored counts submissions that never reached a policy outcome:
	// principals without a policy and labeling failures.
	Errored uint64 `json:"errored"`
	// Cache reports label-cache effectiveness (hits, misses, evictions,
	// residency).
	Cache label.CacheStats `json:"cache"`
	// Plans reports compiled-plan-cache effectiveness for the evaluation of
	// admitted queries.
	Plans engine.PlanCacheStats `json:"plans"`
	// Memo reports the source-text memo in front of both caches: a hit is a
	// submission whose text was neither parsed nor canonicalized. A hit
	// ratio well below Cache's means clients spell one template many ways.
	Memo cq.MemoStats `json:"query_memo"`
	// FoldExhausted counts label-cache misses whose fold (query
	// minimization) ran out of its fixed step budget. Such a query is
	// labeled from a body that is equivalent but possibly not minimal, so
	// its label is sound and can only be higher than the exact one.
	FoldExhausted uint64 `json:"fold_exhausted"`
}

// CacheHitRate returns the label-cache hit rate, 0 before any lookup.
func (s SystemStats) CacheHitRate() float64 { return s.Cache.HitRate() }

// Stats returns a snapshot of the system's counters. Each counter is read
// atomically; while submissions are in flight the snapshot may observe a
// submission in Queries whose outcome counter has not landed yet (the
// in-flight term of the SystemStats identity), but never the reverse:
// outcome counters are incremented strictly after Queries, and read
// strictly before it.
func (sys *System) Stats() SystemStats {
	st := SystemStats{
		Admitted:      sys.admitted.Load(),
		Refused:       sys.refused.Load(),
		Errored:       sys.errored.Load(),
		Cache:         sys.labeler.Stats(),
		Plans:         sys.db.PlanStats(),
		Memo:          sys.memo.Stats(),
		FoldExhausted: sys.labeler.FoldExhausted(),
	}
	st.Queries = sys.queries.Load()
	return st
}

// Explain renders a human-readable account of a query's label and how it
// compares against each policy partition of the principal: the text form
// of ExplainDecision.
func (sys *System) Explain(principal string, q *Query) (string, error) {
	e, err := sys.ExplainDecision(principal, q)
	if err != nil {
		return "", err
	}
	return e.String(), nil
}

// ExplainDecision is the structured form of Explain: the query's rendered
// label, its admissibility, the session's cumulative disclosure, and one
// status row per policy partition, without submitting the query or
// mutating session state. It reflects the session at the moment it is
// called — the "would this be admitted now?" surface behind GET
// /v1/explain and library callers. It is not how a refusal is explained:
// a refused submission carries the explanation of the very state it was
// refused on in Decision.Refusal.
func (sys *System) ExplainDecision(principal string, q *Query) (Explanation, error) {
	// Same invariant as the submit pipeline: no labeling (and no
	// label-cache use) for principals without a policy.
	if !sys.store.Has(principal) {
		return Explanation{}, fmt.Errorf("%w: %q", ErrNoPolicy, principal)
	}
	lbl, err := sys.labeler.Label(q)
	if err != nil {
		return Explanation{}, err
	}
	var out Explanation
	err = sys.store.Do(principal, func(m *Monitor) { out = m.Explanation(sys.cat, q.Name, lbl) })
	return out, noPolicy(principal, err)
}
