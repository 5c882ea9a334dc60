package disclosure

import (
	"strconv"
	"time"

	"repro/internal/cq"
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
	// pipeline stage: canonicalization+labeling, the reference-monitor
	// decision (including the WAL group-commit wait on a durable
	// System), and evaluation of admitted queries.
	stageLabel  *obs.Histogram
	stageDecide *obs.Histogram
	stageEval   *obs.Histogram
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
			"End-to-end Submit/Decide latency by outcome.", obs.LatencyBuckets, "outcome", name)
	}
	m.stageLabel = r.Histogram("disclosure_submit_stage_seconds",
		"Submit-pipeline stage latency: canonicalize+label, monitor decide (including WAL wait), evaluate.",
		obs.LatencyBuckets, "stage", "label")
	m.stageDecide = r.Histogram("disclosure_submit_stage_seconds",
		"Submit-pipeline stage latency: canonicalize+label, monitor decide (including WAL wait), evaluate.",
		obs.LatencyBuckets, "stage", "decide")
	m.stageEval = r.Histogram("disclosure_submit_stage_seconds",
		"Submit-pipeline stage latency: canonicalize+label, monitor decide (including WAL wait), evaluate.",
		obs.LatencyBuckets, "stage", "eval")
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

// SetMetricsRegistry re-registers the System's submit-pipeline metrics
// in r — obs.Default is the construction-time default, a fresh registry
// isolates an instance (benchmarks, multi-node tests), and obs.Disabled
// turns instrumentation off entirely. Call it before the System is
// shared: the swap is not synchronized with in-flight submissions.
func (sys *System) SetMetricsRegistry(r *obs.Registry) {
	sys.mets = newSystemMetrics(r)
}

// SetAudit attaches a structured decision audit log (see
// obs.AuditRecord): every refused and errored submission is recorded,
// and — when slowQuery is positive — every submission whose end-to-end
// time reaches the threshold. Call it before the System is shared. A
// nil log detaches auditing.
func (sys *System) SetAudit(log *obs.AuditLog, slowQuery time.Duration) {
	sys.audit = log
	sys.slowQuery = slowQuery
}

// stageTrace carries a submission's stage-boundary timestamps through
// Submit and Decide on the stack: one time.Now per boundary actually
// crossed, no timestamp for the finish (finishSubmit derives total from
// the last boundary, so a fully traced submission costs exactly
// boundaries+1 clock reads). Boundaries the submission never reached
// stay zero.
type stageTrace struct {
	start   time.Time
	tLabel  time.Time // after canonicalize+label
	tDecide time.Time // after the reference-monitor decision
	tEval   time.Time // after evaluation
}

// finishSubmit lands a submission's metrics and, when warranted, its
// audit record. It is called on every return path of Submit and Decide
// when instrumentation or auditing is on (timed). dec and err describe
// the outcome; key is empty when the submission failed before
// canonicalization.
func (sys *System) finishSubmit(tr stageTrace, outcome int, principal string, q *Query, key string, dec Decision, err error) {
	var label, decide, eval, total time.Duration
	end := tr.start
	if !tr.tLabel.IsZero() {
		label = tr.tLabel.Sub(tr.start)
		end = tr.tLabel
	}
	if !tr.tDecide.IsZero() {
		decide = tr.tDecide.Sub(end)
		end = tr.tDecide
	}
	if !tr.tEval.IsZero() {
		eval = tr.tEval.Sub(end)
		end = tr.tEval
	}
	if end == tr.start {
		// Failed before the first boundary (unknown principal): the only
		// path that pays an extra clock read, off the common case.
		total = time.Since(tr.start)
	} else {
		total = end.Sub(tr.start)
	}
	if m := sys.mets; m != nil {
		if label > 0 {
			m.stageLabel.Observe(label.Seconds())
		}
		if decide > 0 {
			m.stageDecide.Observe(decide.Seconds())
		}
		if eval > 0 {
			m.stageEval.Observe(eval.Seconds())
		}
		m.outcomes[outcome].Inc()
		m.e2e[outcome].Observe(total.Seconds())
	}
	sys.auditSubmission(outcome, principal, q, key, dec, err, label, decide, eval, total)
}

// auditSubmission writes one decision audit record if the attached log
// and the outcome warrant it: refusals and errors always, admissions
// only past the slow-query threshold. Shared by the Submit/Decide
// return paths (via finishSubmit) and the SubmitBatch audit pass.
func (sys *System) auditSubmission(outcome int, principal string, q *Query, key string, dec Decision, err error, label, decide, eval, total time.Duration) {
	al := sys.audit
	if al == nil {
		return
	}
	slow := sys.slowQuery > 0 && total >= sys.slowQuery
	if outcome == outcomeAdmitted && !slow {
		return
	}
	rec := &obs.AuditRecord{
		Node:      "primary",
		Principal: principal,
		Outcome:   outcomeNames[outcome],
		Slow:      slow,
		Live:      dec.Live,
		LabelMs:   float64(label) / float64(time.Millisecond),
		DecideMs:  float64(decide) / float64(time.Millisecond),
		EvalMs:    float64(eval) / float64(time.Millisecond),
		TotalMs:   float64(total) / float64(time.Millisecond),
	}
	if q != nil {
		rec.Query = q.Name
	}
	if key != "" {
		rec.Fingerprint = strconv.FormatUint(cq.FingerprintKey(key), 16)
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if outcome == outcomeRefused {
		if e, eerr := sys.ExplainDecision(principal, q); eerr == nil {
			rec.Offending = e.Offending()
		}
	}
	if lerr := al.Log(rec); lerr != nil {
		if m := sys.mets; m != nil {
			m.auditDrops.Inc()
		}
	}
}
