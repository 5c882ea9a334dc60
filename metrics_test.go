package disclosure

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// metricsSystem is figure1System with a fresh instance registry attached,
// so assertions never race other tests' submissions on obs.Default.
func metricsSystem(t *testing.T) (*System, *obs.Registry) {
	t.Helper()
	sys := figure1System(t)
	reg := obs.NewRegistry()
	sys.mets = newSystemMetrics(reg)
	if err := sys.SetPolicy("app", map[string][]string{"times": {"V2"}}); err != nil {
		t.Fatal(err)
	}
	return sys, reg
}

// expose renders a registry to a string for substring assertions.
func expose(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestSubmitMetrics drives every outcome class through Submit, Decide and
// SubmitBatch and checks the outcome counters agree with Stats and that
// the per-stage histograms saw the submissions that reached each stage.
func TestSubmitMetrics(t *testing.T) {
	sys, reg := metricsSystem(t)
	admittedQ := MustParse("Free(t) :- Meetings(t, p)")
	refusedQ := MustParse("Q1(x) :- Meetings(x, 'Cathy')")

	sys.Submit("app", admittedQ)
	sys.Submit("app", refusedQ)
	sys.Submit("nobody", admittedQ)  // errored: no policy
	sys.Submit("app", unsafeQuery()) // errored: labeling failure
	sys.Decide("app", admittedQ)
	sys.SubmitBatch("app", []*Query{admittedQ, refusedQ, unsafeQuery()})
	sys.SubmitBatch("nobody", []*Query{admittedQ}) // errored per item

	out := expose(t, reg)
	for _, want := range []string{
		`disclosure_submissions_total{outcome="admitted"} 3`,
		`disclosure_submissions_total{outcome="refused"} 2`,
		`disclosure_submissions_total{outcome="errored"} 4`,
		// Every submission, on every entry point, lands in the end-to-end
		// histogram of its outcome.
		`disclosure_submit_seconds_count{outcome="admitted"} 3`,
		`disclosure_submit_seconds_count{outcome="refused"} 2`,
		`disclosure_submit_seconds_count{outcome="errored"} 4`,
		`disclosure_submit_stage_seconds_count{stage="decide"} 5`,
		// An in-memory System has no log to split its decisions over.
		`disclosure_durable_decisions_total{durability="logged"} 0`,
		`disclosure_durable_decisions_total{durability="read_only"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	st := sys.Stats()
	if st.Queries != 3+2+4 {
		t.Fatalf("Stats.Queries = %d, want 9", st.Queries)
	}
}

// TestBatchAudit checks that SubmitBatch audits per item: labeling errors
// and refusals are recorded, admitted items only when slow.
func TestBatchAudit(t *testing.T) {
	sys, _ := metricsSystem(t)
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	audit, err := obs.OpenAuditLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer audit.Close()
	sys.SetAudit(audit, 0)

	sys.SubmitBatch("app", []*Query{
		MustParse("Free(t) :- Meetings(t, p)"),
		MustParse("Q1(x) :- Meetings(x, 'Cathy')"),
		unsafeQuery(),
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d audit records, want 2 (refusal + labeling error):\n%s", len(lines), data)
	}
	outcomes := make(map[string]int)
	for _, line := range lines {
		var r obs.AuditRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		outcomes[r.Outcome]++
	}
	if outcomes["refused"] != 1 || outcomes["errored"] != 1 {
		t.Fatalf("batch audit outcomes = %v, want one refused and one errored", outcomes)
	}
}

// TestCheckpointMetric checks that shard checkpoints observe the
// process-wide checkpoint-duration histogram.
func TestCheckpointMetric(t *testing.T) {
	before := checkpointSeconds.Count()
	dir := t.TempDir()
	dur, err := OpenDurable(dir, DurabilityOptions{},
		MustSchema(MustRelation("Meetings", "time", "person")),
		MustParse("V2(t) :- Meetings(t, p)"))
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	if err := dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := checkpointSeconds.Count(); after <= before {
		t.Fatalf("checkpointSeconds.Count() = %d, want > %d", after, before)
	}
}

// TestDurableDecisionMetrics checks the write-amplification counters of a
// durable System: of all decisions that reached a monitor, only the ones
// that moved a session's state count as logged; refusals and repeated
// admits — through Submit, Decide and SubmitBatch alike — count as
// read-only, and submissions that never reach a monitor count as neither.
func TestDurableDecisionMetrics(t *testing.T) {
	dur, err := OpenDurable(t.TempDir(), DurabilityOptions{},
		MustSchema(
			MustRelation("Meetings", "time", "person"),
			MustRelation("Contacts", "person", "email", "position"),
		),
		MustParse("V2(t) :- Meetings(t, p)"),
		MustParse("V3(p, e, r) :- Contacts(p, e, r)"))
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	sys := dur.System()
	reg := obs.NewRegistry()
	sys.mets = newSystemMetrics(reg)
	if err := sys.SetPolicy("app", map[string][]string{"times": {"V2"}, "contacts": {"V3"}}); err != nil {
		t.Fatal(err)
	}
	admittedQ := MustParse("Free(t) :- Meetings(t, p)")
	refusedQ := MustParse("Q(p, e) :- Contacts(p, e, r)")

	sys.Submit("app", admittedQ) // chooses the wall: the one transition
	sys.Submit("app", admittedQ)
	sys.Submit("app", refusedQ)
	sys.Decide("app", admittedQ)
	sys.SubmitBatch("app", []*Query{admittedQ, refusedQ})
	sys.Submit("nobody", admittedQ) // errored before any monitor

	out := expose(t, reg)
	for _, want := range []string{
		`disclosure_durable_decisions_total{durability="logged"} 1`,
		`disclosure_durable_decisions_total{durability="read_only"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}
