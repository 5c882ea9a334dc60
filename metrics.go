package disclosure

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// This file is the observability seam of the root package: the
// submit-pipeline metrics a System maintains (per-stage latency
// histograms and outcome counters, see ARCHITECTURE.md "Observability"),
// the checkpoint metrics of the durable layer, and the structured
// decision audit hook. All hot-path updates go through internal/obs
// collectors, which are allocation-free; the audit path allocates only
// for the records it actually writes (refusals, errors, slow
// submissions).

// Submission outcome indices — array positions into systemMetrics so
// the hot path never builds a label string.
const (
	outcomeAdmitted = iota
	outcomeRefused
	outcomeErrored
)

// outcomeNames maps outcome indices to their metric label and audit
// rendering.
var outcomeNames = [3]string{"admitted", "refused", "errored"}

// systemMetrics holds one System's submit-pipeline collectors. A nil
// *systemMetrics (registry obs.Disabled) disables instrumentation; the
// collectors themselves are nil-safe, so a partially built value is
// never observed.
type systemMetrics struct {
	// outcomes counts submissions by reference-monitor outcome; e2e is
	// the end-to-end Submit/Decide latency by the same outcome.
	outcomes [3]*obs.Counter
	e2e      [3]*obs.Histogram
	// stageLabel, stageDecide and stageEval split a submission by
	// pipeline stage: labeling (a cache lookup, or the labeler on a miss),
	// the reference-monitor decision (including the WAL commit wait on a
	// durable System), and evaluation of admitted queries. stagePrepare
	// and stageEncode are the serving layer's two ends around the pipeline
	// (ObserveServing), one observation per request.
	stageLabel   *obs.Histogram
	stageDecide  *obs.Histogram
	stageEval    *obs.Histogram
	stagePrepare *obs.Histogram
	stageEncode  *obs.Histogram
	// decisionsLogged and decisionsReadOnly split a durable System's
	// decisions by whether they appended a WAL record (the session state
	// moved) or were served as pure reads — logged/(logged+read_only) is
	// the write amplification the benchmark derives as wal.frames_per_op.
	decisionsLogged   *obs.Counter
	decisionsReadOnly *obs.Counter
	// auditDrops counts audit records lost to write failures.
	auditDrops *obs.Counter
}

// newSystemMetrics registers (get-or-create) the submit-pipeline
// families in r; a nil registry returns nil, turning instrumentation
// off.
func newSystemMetrics(r *obs.Registry) *systemMetrics {
	if r == nil {
		return nil
	}
	m := &systemMetrics{}
	for i, name := range outcomeNames {
		m.outcomes[i] = r.Counter("disclosure_submissions_total",
			"Submissions by reference-monitor outcome.", "outcome", name)
		m.e2e[i] = r.Histogram("disclosure_submit_seconds",
			"Submit/Decide latency by outcome: label + decide + eval. An admitted answer leaves eval as interned ids; its strings are produced by the serving layer, in the encode stage of disclosure_submit_stage_seconds.", obs.LatencyBuckets, "outcome", name)
	}
	stage := func(name string) *obs.Histogram {
		return r.Histogram("disclosure_submit_stage_seconds",
			"Submission latency by stage: prepare (per request: body read, decode, query-memo lookup or parse+canonicalize), label, monitor decide (including WAL wait), eval (the join, to an answer of interned ids; no strings yet), encode (per request: the response body, where an answer's strings are produced).",
			obs.LatencyBuckets, "stage", name)
	}
	m.stageLabel, m.stageDecide, m.stageEval = stage("label"), stage("decide"), stage("eval")
	m.stagePrepare, m.stageEncode = stage("prepare"), stage("encode")
	const decisionsHelp = "Decisions of a durable System by durability cost: logged appended a session-transition record and waited for its fsync, read_only changed nothing and appended nothing."
	m.decisionsLogged = r.Counter("disclosure_durable_decisions_total", decisionsHelp, "durability", "logged")
	m.decisionsReadOnly = r.Counter("disclosure_durable_decisions_total", decisionsHelp, "durability", "read_only")
	m.auditDrops = r.Counter("disclosure_audit_drops_total",
		"Audit records lost to write failures.")
	return m
}

// durableDecision counts one decision of a durable System by whether it
// appended a log record.
func (m *systemMetrics) durableDecision(logged bool) {
	switch {
	case m == nil:
	case logged:
		m.decisionsLogged.Inc()
	default:
		m.decisionsReadOnly.Inc()
	}
}

// Checkpoint metrics live on the process-wide registry: every Durable in
// the process shares them, and they exist (at zero) from process start,
// so a scrape sees the families before the first rotation.
var (
	checkpointSeconds = obs.Default.Histogram("disclosure_checkpoint_seconds",
		"Duration of one shard checkpoint rotation (capture, flush, snapshot write, prune).",
		obs.DurationBuckets)
	checkpointFailures = obs.Default.Counter("disclosure_checkpoint_failures_total",
		"Shard checkpoint rotations that failed (the previous generation stays current).")
)

// ObserveServing records what a serving layer spent on one submit request
// on either side of the pipeline: prepare, from the request's arrival to
// the prepared queries (body read, decode, memo lookup or parse and
// canonicalization), and encode, rendering the response. They are the
// front and back of disclosure_submit_stage_seconds, whose middle stages
// the pipeline observes itself.
func (sys *System) ObserveServing(prepare, encode time.Duration) {
	if m := sys.mets; m != nil {
		m.stagePrepare.Observe(prepare.Seconds())
		m.stageEncode.Observe(encode.Seconds())
	}
}

// auditSink is an attached decision audit log and its slow-submission
// threshold.
type auditSink struct {
	log       *obs.AuditLog
	slowQuery time.Duration
}

// SetAudit attaches a structured decision audit log (see
// obs.AuditRecord): every refused and errored submission is recorded,
// and — when slowQuery is positive — every submission whose end-to-end
// time reaches the threshold. A nil log detaches auditing. It may be
// called while submissions are in flight; each submission uses the sink
// it started with.
func (sys *System) SetAudit(log *obs.AuditLog, slowQuery time.Duration) {
	if log == nil {
		sys.audit.Store(nil)
		return
	}
	sys.audit.Store(&auditSink{log: log, slowQuery: slowQuery})
}

// stageClock is one query's time in each stage of a pipeline run: its own
// label lookup, decision and evaluation (zero for stages it never reached,
// and throughout when the pipeline is uninstrumented). byReplica marks a
// follower's refusal that its own replica decided (System.decideReplica).
type stageClock struct {
	label, decide, eval time.Duration
	byReplica           bool
}

// total is the query's end-to-end time.
func (c stageClock) total() time.Duration { return c.label + c.decide + c.eval }

// auditSubmission writes one decision audit record if the outcome
// warrants it: refusals and errors always, admissions only past the
// slow-query threshold. A refusal's offending partitions come from the
// explanation its decision carries.
func (sys *System) auditSubmission(al *auditSink, outcome int, principal string, p *Prepared, r *BatchResult, c stageClock) {
	slow := al.slowQuery > 0 && c.total() >= al.slowQuery
	if outcome == outcomeAdmitted && !slow {
		return
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rec := &obs.AuditRecord{
		Node:      "primary",
		Principal: principal,
		Query:     p.Name,
		Outcome:   outcomeNames[outcome],
		Slow:      slow,
		Live:      r.Decision.Live,
		LabelMs:   ms(c.label),
		DecideMs:  ms(c.decide),
		EvalMs:    ms(c.eval),
		Rows:      r.Answer.Len(),
		TotalMs:   ms(c.total()),
	}
	rec.Fingerprint = strconv.FormatUint(p.Fingerprint, 16)
	if r.Err != nil {
		rec.Error = r.Err.Error()
	}
	if r.Decision.Refusal != nil {
		rec.Offending = r.Decision.Refusal.Offending()
	}
	if up := sys.up; up != nil && sys.dur.Load() == nil {
		// A follower's record: how stale its replica was, and which node's
		// session the outcome was decided on.
		rec.Node, rec.StalenessSeconds = "follower", -1
		if age, ok := up.Staleness(); ok {
			rec.StalenessSeconds = age.Seconds()
		}
		switch {
		case c.byReplica:
			rec.DecidedBy = "replica"
		case outcome != outcomeErrored:
			rec.DecidedBy = "primary"
		}
	}
	if lerr := al.log.Log(rec); lerr != nil {
		if m := sys.mets; m != nil {
			m.auditDrops.Inc()
		}
	}
}
