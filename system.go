package disclosure

import (
	"errors"
	"fmt"
	"runtime"
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

	// dur, when non-nil, is the write-ahead logging layer (OpenDurable);
	// it is attached once before the System is shared and never changes.
	dur *Durable
	// up, when non-nil, makes this a replica's System (Replica.Follow): it
	// refuses what its own sessions refuse and sends every other decision
	// upstream. Attached before the System is shared; a promotion attaches
	// dur on top, which takes precedence from then on.
	up Upstream

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
		mets:    newSystemMetrics(obs.Default),
	}, nil
}

// Insert adds a tuple to the named relation and publishes a database
// snapshot containing it; it is safe concurrently with submissions, which
// keep evaluating against the previous snapshot until publication. On a
// durable System the row is logged (as a one-row batch) before the
// snapshot publishes.
func (sys *System) Insert(rel string, values ...string) error {
	if sys.dur != nil {
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
// write-ahead log's meta shard as one record — and made durable — before
// LoadBatch returns, so a batch whose LoadBatch call returned survives a
// crash in full, and a batch interrupted by a crash is recovered either
// whole or not at all (the log record is framed and checksummed as a
// unit). Bulk loads never contend with submissions, which log to the data
// shards.
func (sys *System) LoadBatch(fn func(ld *Loader) error) error {
	if d := sys.dur; d != nil {
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
	p, err := policy.New(sys.cat, partitions)
	if err != nil {
		return err
	}
	if d := sys.dur; d != nil {
		return d.setPolicy(principal, partitions, p)
	}
	sys.store.SetPolicy(principal, p)
	return nil
}

// RemovePolicy deletes a principal's policy and session state (and, on a
// durable System, retires its logged submission token). The only error
// source is the write-ahead log; an in-memory System always returns nil.
func (sys *System) RemovePolicy(principal string) error {
	if d := sys.dur; d != nil {
		return d.removePolicy(principal)
	}
	sys.store.Remove(principal)
	return nil
}

// Principals returns the number of principals with an installed policy.
func (sys *System) Principals() int { return sys.store.Len() }

// Epoch returns the decision epoch a durable System decides under, or zero
// for an in-memory System (epochs exist to coordinate durable nodes; a
// process-local deployment has nothing to hand off).
func (sys *System) Epoch() uint64 {
	if d := sys.dur; d != nil {
		return d.Epoch()
	}
	return 0
}

// FencedBy returns the higher decision epoch a durable System has been
// superseded by, or zero while it is the authority (always zero for an
// in-memory System).
func (sys *System) FencedBy() uint64 {
	if d := sys.dur; d != nil {
		return d.FencedBy()
	}
	return 0
}

// DecisionErr reports whether this node may currently make admission
// decisions: nil when it may, an error wrapping ErrFenced or
// ErrLeaseExpired when it may not. In-memory Systems always may.
func (sys *System) DecisionErr() error {
	if d := sys.dur; d != nil {
		return d.DecisionErr()
	}
	return nil
}

// Session returns a principal's live partitions and accept/refuse counts.
func (sys *System) Session(principal string) (live []string, accepted, refused int, err error) {
	live, accepted, refused, err = sys.store.Snapshot(principal)
	if err != nil {
		return nil, 0, 0, noPolicy(principal, err)
	}
	return live, accepted, refused, nil
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
// monitor. On a durable System the decision is made under the principal's
// write-ahead-log shard lock and, when it moved the session state, the
// state it moved to is logged there — so each shard's log order equals its
// apply order and replay reproduces every session's security state
// exactly; a decision that changed nothing (every refusal, every repeated
// admit) logs nothing. Either way the caller then waits, outside the lock,
// until every record the decision rests on has reached disk before the
// decision is released (Durable.decide). A replica's System refuses what
// its own session refuses and asks its primary otherwise (decideReplica);
// byReplica reports the former.
func (sys *System) decide(principal string, p *Prepared, lbl Label) (dec Decision, byReplica bool, err error) {
	switch {
	case sys.dur != nil:
		dec, err = sys.dur.decide(principal, p.Name, lbl)
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
	// InContact reports whether the replica may answer for the primary
	// where the two provably agree: its latest sync pass succeeded, recently.
	InContact() bool
	// DecidePrepared is the decision RPC: the primary decides against the
	// complete history and logs the transition before it answers. The
	// prepared query crosses as its source text and its key's fingerprint.
	DecidePrepared(principal string, p *Prepared) (Decision, error)
	// RefusedLocally counts one refusal decided without the RPC.
	RefusedLocally()
	// Staleness is the replica's age for the audit record, false before
	// the first sync.
	Staleness() (time.Duration, bool)
}

// decideReplica is a follower's decision. A session's live partitions only
// ever shrink within one policy installation, and a replica holds a prefix
// of each session's transitions, so its live set contains the primary's: a
// label no live partition of the replica dominates is refused by the
// primary too, and the replica says so itself — a read of its session, no
// tally, nothing shipped, the explanation built under the same monitor
// lock. The one way the two can differ is a policy installation or removal
// the replica has not applied yet, which costs a refusal at most one poll
// interval stale and never an admission. Everything else — a label the
// replica would admit, a replica out of contact — is the primary's call.
func (sys *System) decideReplica(principal string, p *Prepared, lbl Label) (Decision, bool, error) {
	if sys.up.InContact() {
		var dec Decision
		err := sys.store.Do(principal, func(m *Monitor) {
			if !m.Check(lbl) {
				e := m.Explanation(sys.cat, p.Name, lbl)
				dec = Decision{Live: m.LiveNames(), Refusal: &e}
			}
		})
		if err == nil && dec.Refusal != nil {
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

// SubmitBatch submits a batch of queries for one principal through a
// three-stage pipeline: all queries are canonicalized concurrently
// (prepared) and labeled in a single batch pass — one label-cache lookup (and at most one
// labeling) per distinct canonical form in the batch — the policy decisions
// are then applied sequentially in slice order — so cumulative-disclosure
// semantics are exactly those of calling Submit in a loop — and finally
// each distinct admitted form is evaluated once against one shared
// snapshot, with its Answer shared by every query of that form. Results are
// positionally aligned with qs.
func (sys *System) SubmitBatch(principal string, qs []*Query) []BatchResult {
	ps := make([]*Prepared, len(qs))
	forEachConcurrent(len(qs), func(i int) { ps[i] = cq.PrepareQuery(qs[i]) })
	return sys.pipeline(principal, ps, true)
}

// SubmitPrepared is SubmitBatch for queries that are already prepared
// (Prepare): the serving layer's entry, on which a query text the node has
// seen before is neither parsed nor canonicalized.
func (sys *System) SubmitPrepared(principal string, ps []*Prepared) []BatchResult {
	return sys.pipeline(principal, ps, true)
}

// pipeline is the one submit path behind Submit, Decide, SubmitBatch and
// their prepared forms: batch-label under the keys the queries were
// prepared with, decide sequentially, and — with eval set — evaluate each
// distinct admitted form once at one snapshot. It never canonicalizes, and
// reaches a parsed query only on a label- or plan-cache miss. Stage timing,
// outcome counters, error mapping and the audit record exist here and
// nowhere else.
//
// Every instrumentation touch is gated on timed: with metrics and audit
// both off (obs.Disabled) the pipeline takes no timestamps at all, and
// with them on it allocates nothing the uninstrumented run does not.
func (sys *System) pipeline(principal string, ps []*Prepared, eval bool) []BatchResult {
	m, audit := sys.mets, sys.audit.Load()
	timed := m != nil || audit != nil
	out := make([]BatchResult, len(ps))
	clocks := make([]stageClock, len(ps))
	var start, now time.Time
	if timed {
		start = time.Now()
	}
	sys.queries.Add(uint64(len(ps)))

	// label is the time every query of the batch spent in the shared
	// first stage.
	var label time.Duration
	if !sys.store.Has(principal) {
		// Fail the whole batch before labeling: unauthenticated principals
		// must not consume labeling work or label-cache capacity. A policy
		// removed mid-batch is still caught per query by decide.
		err := fmt.Errorf("%w: %q", ErrNoPolicy, principal)
		for i := range out {
			out[i].Err = err
		}
	} else {
		// Stage 1: one labeling round over the distinct canonical forms,
		// under the keys the queries were prepared with — the same keys the
		// plan cache reads in stage 3. The label-stage histogram sees one
		// observation per batch — the point of batch labeling is that the
		// stage is shared.
		labels, labelErrs := sys.labeler.LabelBatchCanonical(ps)
		if timed {
			now = time.Now()
			label = now.Sub(start)
			if m != nil {
				m.stageLabel.Observe(label.Seconds())
			}
		}

		// Stage 2: sequential decisions in slice order; each decision's
		// clock runs from the end of the previous one.
		for i, p := range ps {
			if labelErrs[i] != nil {
				out[i].Err = fmt.Errorf("disclosure: labeling %s: %w", p.Name, labelErrs[i])
				continue
			}
			out[i].Decision, clocks[i].byReplica, out[i].Err = sys.decide(principal, p, labels[i])
			if timed {
				t := time.Now()
				clocks[i].decide, now = t.Sub(now), t
				if m != nil {
					m.stageDecide.Observe(clocks[i].decide.Seconds())
				}
			}
		}
		if eval {
			sys.evalAdmitted(ps, out, clocks, timed)
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
		// A query's clock is the batch's shared label stage plus its own
		// decision plus its form's evaluation.
		c := clocks[i]
		c.label = label
		if m != nil {
			m.outcomes[outcome].Inc()
			m.e2e[outcome].Observe(c.total().Seconds())
		}
		if audit != nil {
			sys.auditSubmission(audit, outcome, principal, ps[i], r, c)
		}
	}
	return out
}

// evalAdmitted is the pipeline's third stage: concurrent, lock-free
// evaluation of the admitted queries, all pinned to one snapshot so the
// whole batch reflects a single database state even while inserts land
// mid-batch. Admitted queries are grouped by canonical form first:
// isomorphic queries have identical answers (the same property the plan
// cache exploits), so each distinct form is evaluated once and its answer
// shared. A batch that admitted nothing — two thirds of the expected
// regime's submissions — costs a scan of its decisions, and one that
// admitted a single query, every admitted Submit, has nothing to group.
func (sys *System) evalAdmitted(ps []*Prepared, out []BatchResult, clocks []stageClock, timed bool) {
	admitted, only := 0, 0
	for i := range out {
		if out[i].Decision.Allowed {
			admitted++
			only = i
		}
	}
	if admitted == 0 {
		return
	}
	snap := sys.db.Snapshot()
	if admitted == 1 {
		out[only].Answer, clocks[only].eval, out[only].Err = sys.evalOne(snap, ps[only], timed)
		return
	}
	groups := make(map[string][]int, admitted)
	distinct := make([]string, 0, admitted)
	for i, p := range ps {
		if !out[i].Decision.Allowed {
			continue
		}
		if _, ok := groups[p.Key]; !ok {
			distinct = append(distinct, p.Key)
		}
		groups[p.Key] = append(groups[p.Key], i)
	}
	forEachConcurrent(len(distinct), func(g int) {
		idx := groups[distinct[g]]
		ans, d, err := sys.evalOne(snap, ps[idx[0]], timed)
		// Indices of one group are distinct, so concurrent workers write
		// disjoint elements of out and clocks.
		for _, i := range idx {
			out[i].Answer, clocks[i].eval, out[i].Err = ans, d, err
		}
	})
}

// evalOne evaluates one admitted form at the batch's snapshot, timing it as
// one observation of the eval stage.
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

// forEachConcurrent runs f(0..n-1) across min(n, GOMAXPROCS) workers.
func forEachConcurrent(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
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
