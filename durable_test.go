package disclosure_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	disclosure "repro"
	"repro/internal/wal"
)

// durableFixture returns the small Section-1.1 deployment used by the
// durability tests: Meetings/Contacts with one full view over each.
func durableFixture() (*disclosure.Schema, []*disclosure.Query) {
	s := disclosure.MustSchema(
		disclosure.MustRelation("M", "time", "person"),
		disclosure.MustRelation("C", "person", "email", "position"),
	)
	views := []*disclosure.Query{
		disclosure.MustParse("V1(t, p) :- M(t, p)"),
		disclosure.MustParse("V3(p, e, r) :- C(p, e, r)"),
	}
	return s, views
}

func openFixture(t *testing.T, dir string) *disclosure.Durable {
	t.Helper()
	s, views := durableFixture()
	d, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{}, s, views...)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return d
}

// loadCathy loads the fixture's one meeting row and one contact row.
func loadCathy(t *testing.T, sys *disclosure.System) {
	t.Helper()
	if err := sys.LoadBatch(func(ld *disclosure.Loader) error {
		ld.MustInsert("M", "10", "Cathy")
		ld.MustInsert("C", "Cathy", "c@example.com", "Boss")
		return nil
	}); err != nil {
		t.Fatalf("LoadBatch: %v", err)
	}
}

// TestDurableRecoversStateAndRefusals is the core recovery contract: after
// a simulated kill -9 (the handle is abandoned, never closed, never
// checkpointed beyond generation 0), a reopened deployment has its rows,
// policy, token and — critically — its cumulative-disclosure state, so the
// Chinese-Wall refusal issued before the crash is issued again after it.
func TestDurableRecoversStateAndRefusals(t *testing.T) {
	dir := t.TempDir()
	d := openFixture(t, dir)
	sys := d.System()

	loadCathy(t, sys)
	if err := sys.SetPolicy("app", map[string][]string{"W1": {"V1"}, "W2": {"V3"}}); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	if err := d.LogToken("app", "tok"); err != nil {
		t.Fatalf("LogToken: %v", err)
	}

	// Touch Contacts: admitted, retires W1. Then Meetings: walled off.
	qc := disclosure.MustParse("QC(p, e) :- C(p, e, r)")
	qm := disclosure.MustParse("QM(t) :- M(t, p)")
	if dec, _, err := sys.Submit("app", qc); err != nil || !dec.Allowed {
		t.Fatalf("contacts query: allowed=%v err=%v, want admitted", dec.Allowed, err)
	}
	if dec, _, err := sys.Submit("app", qm); err != nil || dec.Allowed {
		t.Fatalf("meetings query: allowed=%v err=%v, want refused", dec.Allowed, err)
	}
	liveBefore, err := sys.Session("app")
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	expBefore, err := sys.ExplainDecision("app", qm)
	if err != nil {
		t.Fatalf("ExplainDecision: %v", err)
	}

	// Crash: abandon the handle without Close or Checkpoint.
	d2 := openFixture(t, dir)
	sys2 := d2.System()
	defer d2.Close()

	if !d2.Recovered() {
		t.Fatalf("second open did not recover")
	}
	if d2.Replayed() == 0 {
		t.Fatalf("recovery replayed no operations")
	}
	if got := sys2.Table("M").Len(); got != 1 {
		t.Errorf("recovered M has %d rows, want 1", got)
	}
	if got := sys2.Table("C").Len(); got != 1 {
		t.Errorf("recovered C has %d rows, want 1", got)
	}
	if got := d2.Tokens()["app"]; got != "tok" {
		t.Errorf("recovered token = %q, want %q", got, "tok")
	}
	live, err := sys2.Session("app")
	if err != nil {
		t.Fatalf("recovered Session: %v", err)
	}
	if fmt.Sprint(live) != fmt.Sprint(liveBefore) {
		t.Errorf("recovered live partitions = %v, want %v", live, liveBefore)
	}
	if dec, _, err := sys2.Submit("app", qm); err != nil || dec.Allowed {
		t.Errorf("recovered monitor admitted the walled-off meetings query (allowed=%v err=%v)", dec.Allowed, err)
	}
	if dec, rows, err := sys2.Submit("app", qc); err != nil || !dec.Allowed || len(rows) != 1 {
		t.Errorf("recovered monitor: contacts query allowed=%v rows=%d err=%v, want admitted with 1 row", dec.Allowed, len(rows), err)
	}
	expAfter, err := sys2.ExplainDecision("app", qm)
	if err != nil {
		t.Fatalf("recovered ExplainDecision: %v", err)
	}
	if expAfter.Cumulative != expBefore.Cumulative {
		t.Errorf("recovered cumulative disclosure = %q, want %q", expAfter.Cumulative, expBefore.Cumulative)
	}
}

// TestDurableCheckpointRotation checks that checkpoints capture the full
// state (recovery after a checkpoint replays only the tail), that repeated
// checkpoints prune old generations, and that state written after the last
// checkpoint still recovers from the log tail.
func TestDurableCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	d := openFixture(t, dir)
	sys := d.System()

	if err := sys.Insert("M", "10", "Cathy"); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := sys.SetPolicy("app", map[string][]string{"all": {"V1", "V3"}}); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint 1: %v", err)
	}
	if err := sys.Insert("M", "11", "Dave"); err != nil {
		t.Fatalf("Insert after checkpoint: %v", err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint 2: %v", err)
	}
	if got := d.Generation(); got != 2 {
		t.Fatalf("generation = %d, want 2", got)
	}
	for _, shard := range []string{wal.MetaShard, wal.DataShard} {
		if _, err := os.Stat(wal.ShardCheckpointPath(dir, shard, 0)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("shard %s generation 0 checkpoint not pruned (err=%v)", shard, err)
		}
		if _, err := os.Stat(wal.ShardCheckpointPath(dir, shard, 1)); err != nil {
			t.Errorf("shard %s previous generation checkpoint missing: %v", shard, err)
		}
	}
	// Post-checkpoint tail.
	if err := sys.Insert("M", "12", "Eve"); err != nil {
		t.Fatalf("Insert into tail: %v", err)
	}

	d2 := openFixture(t, dir)
	defer d2.Close()
	if got := d2.System().Table("M").Len(); got != 3 {
		t.Errorf("recovered M has %d rows, want 3", got)
	}
	if got := d2.Replayed(); got != 1 {
		t.Errorf("recovery replayed %d operations, want 1 (the post-checkpoint insert)", got)
	}
	if got := d2.System().Principals(); got != 1 {
		t.Errorf("recovered %d principals, want 1", got)
	}
}

// TestDurablePrunesBelowPreviousGeneration: recovery prunes by the rule
// rotation prunes by. Files a crash can leave below the previous
// generation — a checkpoint with its segment, and a segment whose
// checkpoint is already gone — are removed on reopen, the current and
// previous generations stay, and the recovered state is the state before.
func TestDurablePrunesBelowPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	d := openFixture(t, dir)
	sys := d.System()
	if err := sys.Insert("M", "10", "Cathy"); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := sys.SetPolicy("app", map[string][]string{"W1": {"V1"}, "W2": {"V3"}}); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	if err := d.LogToken("app", "tok"); err != nil {
		t.Fatalf("LogToken: %v", err)
	}
	logs := []string{wal.MetaShard, wal.DataShard}
	// saved holds the bytes of the files planted back after generation 3.
	saved := map[string][]byte{}
	save := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("saving %s: %v", path, err)
		}
		saved[path] = b
	}
	for _, sh := range logs {
		save(wal.ShardCheckpointPath(dir, sh, 0))
		save(wal.ShardSegmentPath(dir, sh, 0))
	}
	for gen := 1; gen <= 3; gen++ {
		if err := sys.Insert("M", strconv.Itoa(10+gen), "Dave"); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if gen == 3 {
			for _, sh := range logs {
				save(wal.ShardSegmentPath(dir, sh, 1))
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint %d: %v", gen, err)
		}
	}
	qm := disclosure.MustParse("QM(t) :- M(t, p)")
	if dec, _, err := sys.Submit("app", qm); err != nil || !dec.Allowed {
		t.Fatalf("meetings query: allowed=%v err=%v, want admitted", dec.Allowed, err)
	}
	before, err := sys.ExplainDecision("app", disclosure.MustParse("QC(p) :- C(p, e, r)"))
	if err != nil {
		t.Fatal(err)
	}
	// A crash left generations 0 and 1 behind: abandon the handle and plant
	// them back.
	for path, b := range saved {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d2 := openFixture(t, dir)
	defer d2.Close()
	for _, sh := range logs {
		for _, path := range []string{wal.ShardCheckpointPath(dir, sh, 0), wal.ShardSegmentPath(dir, sh, 0), wal.ShardSegmentPath(dir, sh, 1)} {
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s survived recovery (err=%v)", filepath.Base(path), err)
			}
		}
		for gen := uint64(2); gen <= 3; gen++ {
			for _, path := range []string{wal.ShardCheckpointPath(dir, sh, gen), wal.ShardSegmentPath(dir, sh, gen)} {
				if _, err := os.Stat(path); err != nil {
					t.Errorf("generation %d pruned: %v", gen, err)
				}
			}
		}
	}
	sys2 := d2.System()
	if got := sys2.Table("M").Len(); got != 4 {
		t.Errorf("recovered M has %d rows, want 4", got)
	}
	if got := d2.Tokens()["app"]; got != "tok" {
		t.Errorf("recovered token = %q, want %q", got, "tok")
	}
	after, err := sys2.ExplainDecision("app", disclosure.MustParse("QC(p) :- C(p, e, r)"))
	if err != nil {
		t.Fatal(err)
	}
	if after.Admissible || fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("recovered explanation = %+v, want the refusal %+v", after, before)
	}
}

// TestDurablePruneKeepsRecoveredCheckpoint: when the two newest
// checkpoints of each log are unloadable, recovery falls back to an older
// one, and the prune that follows keeps it — the next restart recovers the
// same state through it again.
func TestDurablePruneKeepsRecoveredCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d := openFixture(t, dir)
	sys := d.System()
	if err := sys.SetPolicy("app", map[string][]string{"all": {"V1", "V3"}}); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	logs := []string{wal.MetaShard, wal.DataShard}
	saved := map[string][]byte{}
	for gen := 1; gen <= 2; gen++ {
		if err := sys.Insert("M", strconv.Itoa(gen), "Dave"); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint %d: %v", gen, err)
		}
		if gen != 1 {
			continue
		}
		for _, sh := range logs { // generation 0, whole once 1 exists
			for _, path := range []string{wal.ShardCheckpointPath(dir, sh, 0), wal.ShardSegmentPath(dir, sh, 0)} {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				saved[path] = b
			}
		}
	}
	if err := sys.Insert("M", "3", "Eve"); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// A crash left generation 0 behind, and generations 1 and 2 lost their
	// checkpoints' contents: abandon the handle.
	for path, b := range saved {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, sh := range logs {
		for _, gen := range []uint64{1, 2} {
			if err := os.WriteFile(wal.ShardCheckpointPath(dir, sh, gen), []byte("damaged"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for restart := 1; restart <= 2; restart++ {
		d2, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{}, nil)
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		if got := d2.System().Table("M").Len(); got != 3 {
			t.Errorf("restart %d recovered %d M rows, want 3", restart, got)
		}
		if got := d2.System().Principals(); got != 1 {
			t.Errorf("restart %d recovered %d principals, want 1", restart, got)
		}
		// Abandon d2: the next restart recovers from what it left.
	}
}

// TestDurableTornTailDiscarded writes garbage after the last valid record
// — the shape a crash mid-append leaves — and checks that recovery keeps
// the valid prefix, discards the tail, and can append cleanly afterwards.
func TestDurableTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	d := openFixture(t, dir)
	if err := d.System().Insert("M", "10", "Cathy"); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	seg := wal.ShardSegmentPath(dir, wal.MetaShard, d.Generation())

	// Crash mid-append: a partial frame lands after the valid records.
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write([]byte{0xFF, 0x13, 0x07}); err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	f.Close()

	d2 := openFixture(t, dir)
	if got := d2.System().Table("M").Len(); got != 1 {
		t.Fatalf("recovered M has %d rows, want 1", got)
	}
	// The torn tail must be physically gone so new records append after
	// the valid prefix, not after garbage.
	if err := d2.System().Insert("M", "11", "Dave"); err != nil {
		t.Fatalf("Insert after torn-tail recovery: %v", err)
	}
	d2.Close()

	d3 := openFixture(t, dir)
	defer d3.Close()
	if got := d3.System().Table("M").Len(); got != 2 {
		t.Errorf("after torn tail + append, recovered M has %d rows, want 2", got)
	}
}

// TestDurablePartialBatchLogged pins the semantics of a failing LoadBatch:
// rows inserted before the callback's error are published (LoadBatch is
// not transactional) and must therefore be logged, or recovery would
// diverge from memory.
func TestDurablePartialBatchLogged(t *testing.T) {
	dir := t.TempDir()
	d := openFixture(t, dir)
	boom := errors.New("boom")
	err := d.System().LoadBatch(func(ld *disclosure.Loader) error {
		ld.MustInsert("M", "10", "Cathy")
		ld.MustInsert("M", "11", "Dave")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("LoadBatch error = %v, want boom", err)
	}
	if got := d.System().Table("M").Len(); got != 2 {
		t.Fatalf("in-memory M has %d rows, want 2", got)
	}
	d2 := openFixture(t, dir)
	defer d2.Close()
	if got := d2.System().Table("M").Len(); got != 2 {
		t.Errorf("recovered M has %d rows, want 2 (partial batch must be logged)", got)
	}
}

// TestDurableRemovePolicyRetiresToken checks that removing a principal
// durably retires its token and session.
func TestDurableRemovePolicyRetiresToken(t *testing.T) {
	dir := t.TempDir()
	d := openFixture(t, dir)
	sys := d.System()
	if err := sys.SetPolicy("app", map[string][]string{"all": {"V1"}}); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	if err := d.LogToken("app", "tok"); err != nil {
		t.Fatalf("LogToken: %v", err)
	}
	if err := sys.RemovePolicy("app"); err != nil {
		t.Fatalf("RemovePolicy: %v", err)
	}
	d2 := openFixture(t, dir)
	defer d2.Close()
	if got := d2.System().Principals(); got != 0 {
		t.Errorf("recovered %d principals, want 0", got)
	}
	if _, ok := d2.Tokens()["app"]; ok {
		t.Errorf("removed principal's token survived recovery")
	}
}

// TestDurableConfigMismatch checks that recovering with a different
// security-view catalog is refused — recovered labels and sessions are
// only meaningful against the catalog they were computed under — while a
// nil schema recovers whatever the directory holds.
func TestDurableConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	openFixture(t, dir).Close()

	s, views := durableFixture()
	extra := append(append([]*disclosure.Query(nil), views...), disclosure.MustParse("V2(t) :- M(t, p)"))
	if _, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{}, s, extra...); err == nil {
		t.Fatalf("OpenDurable accepted a mismatched view catalog")
	}
	d, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{}, nil)
	if err != nil {
		t.Fatalf("OpenDurable with nil schema: %v", err)
	}
	defer d.Close()
	if !d.Recovered() {
		t.Errorf("nil-schema open did not recover")
	}
	if got := len(d.System().Catalog().Views()); got != 2 {
		t.Errorf("recovered catalog has %d views, want 2", got)
	}
}

// TestDurableConcurrentSubmissions hammers a durable System with
// concurrent submissions, loads and checkpoints, closes it gracefully and
// checks that the reopened session — live partitions and cumulative
// disclosure — equals the live one, whatever checkpoints raced the
// decisions that moved it.
func TestDurableConcurrentSubmissions(t *testing.T) {
	dir := t.TempDir()
	d := openFixture(t, dir)
	sys := d.System()
	if err := sys.SetPolicy("app", map[string][]string{"all": {"V1", "V3"}}); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	const workers, perWorker = 4, 25
	queries := []*disclosure.Query{disclosure.MustParse("Q(t) :- M(t, p)"), disclosure.MustParse("QC(p) :- C(p, e, r)")}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, _, err := sys.Submit("app", queries[(w+i)%2]); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if i%10 == 0 {
					if err := sys.Insert("M", fmt.Sprintf("t%d-%d", w, i), "p"); err != nil {
						t.Errorf("Insert: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := d.Checkpoint(); err != nil {
				t.Errorf("Checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	qc := disclosure.MustParse("QC(p, e) :- C(p, e, r)")
	before := capturePrefixState(t, d, qc)
	if before.cum != "{V1} ⊗ {V3}" && before.cum != "{V3} ⊗ {V1}" {
		t.Fatalf("cumulative disclosure = %q, want both views after both queries", before.cum)
	}
	rowsBefore := sys.Table("M").Len()
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2 := openFixture(t, dir)
	defer d2.Close()
	if got := capturePrefixState(t, d2, qc); got != before {
		t.Errorf("recovered session = %+v, want %+v", got, before)
	}
	if got := d2.System().Table("M").Len(); got != rowsBefore {
		t.Errorf("recovered M has %d rows, want %d", got, rowsBefore)
	}
}

// TestWallHoldsUnderRacingTransitions checks the security invariant — a
// query the monitor has walled off is never admitted afterwards — where
// transitions race: eight goroutines submit both sides of a two-partition
// Chinese Wall for one principal while another takes checkpoints, over
// several policy installations. In each installation exactly one side is
// ever admitted. The handle is then abandoned without Close, and the
// recovered session must equal the one before the crash and still refuse
// the walled-off side.
func TestWallHoldsUnderRacingTransitions(t *testing.T) {
	dir := t.TempDir()
	s, views := durableFixture()
	d, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{}, s, views...)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	sys := d.System()
	loadCathy(t, sys)
	sides := []*disclosure.Query{disclosure.MustParse("QM(t) :- M(t, p)"), disclosure.MustParse("QC(p, e) :- C(p, e, r)")}
	const rounds, submitters, perSubmitter = 6, 8, 40
	chosen := -1
	for round := 0; round < rounds; round++ {
		if err := sys.SetPolicy("app", map[string][]string{"W1": {"V1"}, "W2": {"V3"}}); err != nil {
			t.Fatalf("round %d: SetPolicy: %v", round, err)
		}
		var admitted [2]atomic.Int64
		var wg sync.WaitGroup
		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := d.Checkpoint(); err != nil {
					t.Errorf("Checkpoint: %v", err)
					return
				}
			}
		}()
		var subs sync.WaitGroup
		for g := 0; g < submitters; g++ {
			subs.Add(1)
			go func(g int) {
				defer subs.Done()
				for i := 0; i < perSubmitter; i++ {
					side := (g + i) % 2
					dec, _, err := sys.Submit("app", sides[side])
					if err != nil {
						t.Errorf("Submit: %v", err)
						return
					}
					if dec.Allowed {
						admitted[side].Add(1)
					}
				}
			}(g)
		}
		subs.Wait()
		close(done)
		wg.Wait()
		if a, b := admitted[0].Load(), admitted[1].Load(); (a == 0) == (b == 0) {
			t.Fatalf("round %d: meetings admitted %d times and contacts %d times: want exactly one side of the wall", round, a, b)
		} else if a == 0 {
			chosen = 1
		} else {
			chosen = 0
		}
	}
	before, err := sys.Session("app")
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	// Crash: the handle is abandoned, never closed.

	d2, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{}, s, views...)
	if err != nil {
		t.Fatalf("recovering OpenDurable: %v", err)
	}
	defer d2.Close()
	after, err := d2.System().Session("app")
	if err != nil {
		t.Fatalf("recovered Session: %v", err)
	}
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("recovered live partitions %v, want %v as before the crash", after, before)
	}
	if dec, _, err := d2.System().Submit("app", sides[1-chosen]); err != nil || dec.Allowed {
		t.Errorf("recovered monitor decided the walled-off side allowed=%v err=%v, want refused", dec.Allowed, err)
	}
	if dec, _, err := d2.System().Submit("app", sides[chosen]); err != nil || !dec.Allowed {
		t.Errorf("recovered monitor decided the chosen side allowed=%v err=%v, want admitted", dec.Allowed, err)
	}
}

// TestDurableRefusesNegativeOptions: a negative checkpoint cadence, and a
// shard count other than 0 or 1, is an error, not a silent default — a
// negative CheckpointOps would otherwise turn per-log rotation off without
// a word.
func TestDurableRefusesNegativeOptions(t *testing.T) {
	s, views := durableFixture()
	for _, opts := range []disclosure.DurabilityOptions{{Shards: -1}, {Shards: 2}, {CheckpointOps: -1}} {
		if d, err := disclosure.OpenDurable(t.TempDir(), opts, s, views...); err == nil {
			d.Close()
			t.Errorf("OpenDurable accepted %+v", opts)
		}
	}
}

// TestDurableRefusesNegativeLeaseTTL: OpenDurable and PromoteReplica both
// refuse a negative lease TTL rather than read it as "no lease", which would
// drop the split-brain guard without a word; the same promotion with a
// positive TTL arms the lease.
func TestDurableRefusesNegativeLeaseTTL(t *testing.T) {
	s, views := durableFixture()
	neg := disclosure.DurabilityOptions{LeaseTTL: -time.Second}
	if d, err := disclosure.OpenDurable(t.TempDir(), neg, s, views...); err == nil {
		d.Close()
		t.Error("OpenDurable accepted a negative LeaseTTL")
	}
	dir := t.TempDir()
	if err := openFixture(t, dir).Close(); err != nil {
		t.Fatal(err)
	}
	rep := replicaOf(t, dir)
	if d, err := disclosure.PromoteReplica(t.TempDir(), rep, 2, neg); err == nil {
		d.Close()
		t.Fatal("PromoteReplica accepted a negative LeaseTTL")
	}
	d, err := disclosure.PromoteReplica(t.TempDir(), rep, 2, disclosure.DurabilityOptions{LeaseTTL: time.Second})
	if err != nil {
		t.Fatalf("PromoteReplica with a one-second lease: %v", err)
	}
	defer d.Close()
	if got := d.Lease().TTL(); got != time.Second {
		t.Errorf("promoted lease TTL = %v, want 1s", got)
	}
}

// TestDurableLegacyTransitionRecovers: a transition record written when
// sessions still kept decision tallies carries "accepted" and "refused"
// keys. Recovery ignores them and installs the session the record names.
func TestDurableLegacyTransitionRecovers(t *testing.T) {
	dir := t.TempDir()
	d := openFixture(t, dir)
	if err := d.System().SetPolicy("app", map[string][]string{"W1": {"V1"}, "W2": {"V3"}}); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seg := wal.ShardSegmentPath(dir, wal.DataShard, 0)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := wal.OpenAppendGroup(seg, fi.Size(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append([]byte(`{"transition":{"principal":"app","live":["W2"],"cumulative":[["V3"]],"accepted":4,"refused":5}}`)); err != nil {
		t.Fatalf("appending the legacy record: %v", err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openFixture(t, dir)
	defer d2.Close()
	if n := d2.Replayed(); n != 3 {
		t.Errorf("recovery replayed %d records, want 3 (the epoch stamp, the policy and the legacy transition)", n)
	}
	qm := disclosure.MustParse("QM(t) :- M(t, p)")
	if st := capturePrefixState(t, d2, qm); st.live != "[W2]" || st.cum != "{V3}" || st.admissibleQC {
		t.Errorf("recovered session = %+v, want live [W2], cumulative {V3} and the meetings query walled off", st)
	}
}

// TestDurableShardCountMismatch opens directories that a release which
// split principals across several data shards wrote (testdata). One was
// initialized with the default single data shard: it is this release's
// layout and recovers unchanged. The other has two data shards: it is
// refused with the error docs/OPERATIONS.md quotes, and so is what is left
// of it once shard 1's files are deleted — its checkpoints still record
// two data shards, and opening it would silently drop shard 1's
// principals.
func TestDurableShardCountMismatch(t *testing.T) {
	s, views := durableFixture()
	d, err := disclosure.OpenDurable(copyDir(t, filepath.Join("testdata", "one-data-shard-datadir")), disclosure.DurabilityOptions{Shards: 1}, s, views...)
	if err != nil {
		t.Fatalf("OpenDurable of a one-data-shard directory: %v", err)
	}
	defer d.Close()
	sys := d.System()
	if got := sys.Principals(); got != 4 {
		t.Errorf("recovered %d principals, want 4", got)
	}
	if got := fmt.Sprint(d.Tokens()); got != "map[app:tok other:tok2]" {
		t.Errorf("recovered tokens %s, want app's and other's", got)
	}
	if got := sys.Table("M").Len(); got != 2 {
		t.Errorf("recovered M has %d rows, want 2", got)
	}
	if live, err := sys.Session("app"); err != nil || fmt.Sprint(live) != "[W2]" {
		t.Errorf("recovered app session = %v (err %v), want [W2]", live, err)
	}
	if dec, _, err := sys.Submit("app", disclosure.MustParse("QM(t) :- M(t, p)")); err != nil || dec.Allowed {
		t.Errorf("recovered monitor admitted the walled-off query (allowed=%v err=%v)", dec.Allowed, err)
	}

	two := copyDir(t, filepath.Join("testdata", "two-data-shard-datadir"))
	refused := func(what string) {
		t.Helper()
		d, err := disclosure.OpenDurable(two, disclosure.DurabilityOptions{}, s, views...)
		if err == nil {
			d.Close()
			t.Fatalf("%s: OpenDurable accepted a directory with two data shards", what)
		}
		for _, want := range []string{"multi-shard layout", "re-initialize it from a fresh directory", "recover it with a build from before the one-data-log change"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: refusal %q does not say %q", what, err, want)
			}
		}
	}
	refused("both data shards")
	for _, name := range []string{wal.ShardCheckpointPath(two, "1", 0), wal.ShardCheckpointPath(two, "1", 1), wal.ShardSegmentPath(two, "1", 0), wal.ShardSegmentPath(two, "1", 1)} {
		if err := os.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	refused("shard 1 deleted")
}

// TestDurableShardCheckpointCadence checks per-log self-rotation: with
// CheckpointOps set, a log that records enough rotates its own
// generation without a global Checkpoint call, and recovery still sees
// everything. Only logged records count toward the cadence: each round
// below logs two (a policy re-install and the transition of the first
// admit after it), while the repeated admits and refusals log none.
func TestDurableShardCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	s, views := durableFixture()
	d, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{CheckpointOps: 5}, s, views...)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	sys := d.System()
	qc := disclosure.MustParse("QC(p, e) :- C(p, e, r)")
	qm := disclosure.MustParse("QM(t) :- M(t, p)")
	const rounds = 12
	for i := 0; i < rounds; i++ {
		if err := sys.SetPolicy("app", map[string][]string{"W1": {"V1"}, "W2": {"V3"}}); err != nil {
			t.Fatalf("SetPolicy %d: %v", i, err)
		}
		for _, q := range []*disclosure.Query{qc, qc, qm} {
			if _, _, err := sys.Submit("app", q); err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
		}
	}
	// 24 records on the data log at cadence 5: it must have rotated four
	// times on its own; the meta log, which saw no traffic, must still be
	// at generation 0.
	if got := d.Generation(); got != 0 {
		t.Errorf("meta generation = %d, want 0 (no meta traffic)", got)
	}
	scan, _, err := wal.ScanShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	rotated := uint64(0)
	for name, files := range scan {
		if name != wal.MetaShard && len(files.Checkpoints) > 0 {
			rotated = max(rotated, files.Checkpoints[len(files.Checkpoints)-1])
		}
	}
	if rotated != 4 {
		t.Errorf("data log is at generation %d, want 4 (24 records / cadence 5)", rotated)
	}
	d2, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{}, s, views...)
	if err != nil {
		t.Fatalf("recovering OpenDurable: %v", err)
	}
	defer d2.Close()
	live, err := d2.System().Session("app")
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	if fmt.Sprint(live) != "[W2]" {
		t.Errorf("recovered live partitions = %v, want [W2]", live)
	}
	if dec, _, err := d2.System().Submit("app", qm); err != nil || dec.Allowed {
		t.Errorf("recovered monitor admitted the walled-off query (allowed=%v err=%v)", dec.Allowed, err)
	}
	// Self-rotation prunes like explicit checkpoints: at most the current
	// and previous generation remain on disk for the busy log.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 8 {
		t.Errorf("%d files in data dir, want ≤ 8 (2 generations × 2 files × 2 logs)", len(entries))
	}
}

// prefixState is one point of the prefix chain in
// TestDurablePrefixReplayDeterminism: the security-relevant session state
// after the first k data-shard records.
type prefixState struct {
	hasPolicy    bool
	token        string
	live, cum    string
	admissibleQC bool
}

// capturePrefixState snapshots the fixture principal's security state; qc
// is the query the wall cuts off.
func capturePrefixState(t *testing.T, d *disclosure.Durable, qc *disclosure.Query) prefixState {
	t.Helper()
	sys := d.System()
	st := prefixState{token: d.Tokens()["app"]}
	live, err := sys.Session("app")
	if err != nil {
		if !errors.Is(err, disclosure.ErrNoPolicy) {
			t.Fatalf("Session: %v", err)
		}
		return st
	}
	e, err := sys.ExplainDecision("app", qc)
	if err != nil {
		t.Fatalf("ExplainDecision: %v", err)
	}
	st.hasPolicy, st.live, st.cum, st.admissibleQC = true, fmt.Sprint(live), e.Cumulative, e.Admissible
	return st
}

// dataFrames decodes the data log's generation-0 segment into operations.
func dataFrames(t *testing.T, dir string) []*wal.Op {
	t.Helper()
	seg, err := os.ReadFile(wal.ShardSegmentPath(dir, wal.DataShard, 0))
	if err != nil {
		t.Fatalf("reading data shard segment: %v", err)
	}
	var ops []*wal.Op
	if _, err := wal.Frames(seg, func(payload []byte) error {
		op, err := wal.DecodeOp(payload)
		ops = append(ops, op)
		return err
	}); err != nil {
		t.Fatalf("decoding data shard segment: %v", err)
	}
	return ops
}

// frameBoundaries returns the byte offset after each whole frame of buf,
// computed through the exported decoder alone: Frames aborts on a callback
// error and reports the bytes consumed up to the aborting frame.
func frameBoundaries(t *testing.T, buf []byte) []int {
	t.Helper()
	stop := errors.New("stop")
	total := 0
	full, err := wal.Frames(buf, func([]byte) error { total++; return nil })
	if err != nil {
		t.Fatalf("Frames over the whole segment: %v", err)
	}
	if full != len(buf) {
		t.Fatalf("segment has %d trailing bytes past the last whole frame", len(buf)-full)
	}
	bounds := make([]int, 0, total)
	for k := 1; k < total; k++ {
		calls := 0
		b, err := wal.Frames(buf, func([]byte) error {
			calls++
			if calls > k {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) {
			t.Fatalf("Frames aborted with %v, want the sentinel", err)
		}
		bounds = append(bounds, b)
	}
	return append(bounds, full)
}

// copyDir copies a flat durable data directory into a fresh temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("unexpected subdirectory %s in data dir", e.Name())
		}
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// wallFixture is durableFixture plus the times-only view V2, which gives a
// session two transitions to log: a query V2 answers chooses the wall, and
// a later query only V1 answers grows the cumulative disclosure.
func wallFixture(t *testing.T, dir string) *disclosure.Durable {
	t.Helper()
	s, views := durableFixture()
	views = append(views, disclosure.MustParse("V2(t) :- M(t, p)"))
	d, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{}, s, views...)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return d
}

// TestDurablePrefixReplayDeterminism pins the determinism that both crash
// recovery and replication rest on: recovering any frame-aligned prefix of
// a shard's log yields exactly the security state the live system had
// after those records — same live partitions, same cumulative disclosure,
// same token, and the same next decision on the walled-off query. It runs
// a workload in which only some steps log a record, checks that the steps
// which logged nothing left the state where it was, truncates a copy of
// the data shard's segment at every frame boundary, and recovers each
// prefix. A replica applying the same frames runs this exact code path
// (see replayState), so this test is also the replication convergence
// proof in miniature.
func TestDurablePrefixReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	d := wallFixture(t, dir)
	sys := d.System()
	loadCathy(t, sys)

	qt := disclosure.MustParse("QT(t) :- M(t, p)")
	qm := disclosure.MustParse("QM(t, p) :- M(t, p)")
	qc := disclosure.MustParse("QC(p, e) :- C(p, e, r)")

	// states[k] is the state after the first k data-shard frames (rows went
	// to the meta shard already). A step that appends no frame must leave
	// the state of its frame count untouched.
	states := []prefixState{capturePrefixState(t, d, qc)}
	step := func(name string, frames int, fn func() error) {
		t.Helper()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := capturePrefixState(t, d, qc)
		if n := len(dataFrames(t, dir)); n != len(states)-1+frames {
			t.Fatalf("%s: segment holds %d frames, want %d", name, n, len(states)-1+frames)
		}
		if frames == 1 {
			states = append(states, got)
		} else if got != states[len(states)-1] {
			t.Fatalf("%s logged nothing but moved the state from %+v to %+v", name, states[len(states)-1], got)
		}
	}
	submit := func(q *disclosure.Query, allowed bool) func() error {
		return func() error {
			dec, _, err := sys.Submit("app", q)
			if err == nil && dec.Allowed != allowed {
				err = fmt.Errorf("allowed=%v, want %v", dec.Allowed, allowed)
			}
			return err
		}
	}
	step("SetPolicy", 1, func() error {
		return sys.SetPolicy("app", map[string][]string{"meetings": {"V1"}, "contacts": {"V3"}})
	})
	step("LogToken", 1, func() error { return d.LogToken("app", "tok") })
	step("Submit QT (chooses the wall)", 1, submit(qt, true))
	step("Submit QC (walled off)", 0, submit(qc, false))
	step("Submit QM (discloses more)", 1, submit(qm, true))
	step("Submit QT again", 0, submit(qt, true))
	step("Submit QC again", 0, submit(qc, false))
	// Crash: the handle is abandoned, never closed or checkpointed.

	seg, err := os.ReadFile(wal.ShardSegmentPath(dir, wal.DataShard, 0))
	if err != nil {
		t.Fatalf("reading data shard segment: %v", err)
	}
	bounds := append([]int{0}, frameBoundaries(t, seg)...)
	if len(bounds) != len(states) {
		t.Fatalf("segment has %d frame boundaries for %d recorded states — the workload-to-frame mapping drifted", len(bounds), len(states))
	}

	for k, b := range bounds {
		prefix := copyDir(t, dir)
		if err := os.Truncate(wal.ShardSegmentPath(prefix, wal.DataShard, 0), int64(b)); err != nil {
			t.Fatalf("truncating to boundary %d: %v", k, err)
		}
		rec := wallFixture(t, prefix)
		got := capturePrefixState(t, rec, qc)
		want := states[k]
		if got != want {
			rec.Close()
			t.Fatalf("prefix of %d records recovered as %+v, want %+v", k, got, want)
		}
		// The next decision is part of the determinism contract: the
		// recovered monitor must decide the walled query exactly as the
		// live one would have at this point — refused from the frame that
		// chose the wall onwards.
		if want.hasPolicy {
			dec, _, err := rec.System().Submit("app", qc)
			if err != nil || dec.Allowed != want.admissibleQC || (k >= 3 && dec.Allowed) {
				rec.Close()
				t.Fatalf("prefix of %d records decides QC allowed=%v err=%v, want %v", k, dec.Allowed, err, want.admissibleQC)
			}
		}
		rec.Close()
	}
}

// TestDurableLogsTransitionsNotTraffic is the write-amplification contract
// as a frame count: a refusal appends nothing, a repeated admit appends
// nothing, the admit that chooses the wall appends exactly one absolute
// state record, and a policy re-install still appends one.
func TestDurableLogsTransitionsNotTraffic(t *testing.T) {
	dir := t.TempDir()
	d := openFixture(t, dir)
	defer d.Close()
	sys := d.System()
	qc := disclosure.MustParse("QC(p, e) :- C(p, e, r)")
	qm := disclosure.MustParse("QM(t) :- M(t, p)")
	policy := map[string][]string{"W1": {"V1"}, "W2": {"V3"}}

	expect := func(what string, frames int, fn func() error) {
		t.Helper()
		before := len(dataFrames(t, dir))
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := len(dataFrames(t, dir)) - before; got != frames {
			t.Fatalf("%s appended %d frames, want %d", what, got, frames)
		}
	}
	submit := func(q *disclosure.Query) func() error {
		return func() error { _, _, err := sys.Submit("app", q); return err }
	}
	expect("policy install", 1, func() error { return sys.SetPolicy("app", policy) })
	expect("wall-choosing admit", 1, submit(qc))
	expect("repeated admit", 0, submit(qc))
	expect("refusal", 0, submit(qm))
	expect("delegated decision (Decide)", 0, func() error { _, err := sys.Decide("app", qc); return err })
	expect("batch of repeats and refusals", 0, func() error {
		for _, r := range sys.SubmitBatch("app", []*disclosure.Query{qc, qm, qc}) {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	})
	expect("policy re-install", 1, func() error { return sys.SetPolicy("app", policy) })
	expect("wall-choosing admit after the re-install", 1, submit(qm))

	ops := dataFrames(t, dir)
	tr := ops[len(ops)-1].Transition
	if tr == nil || tr.Principal != "app" || fmt.Sprint(tr.Live) != "[W1]" || fmt.Sprint(tr.Cumulative) != "[[V1]]" {
		t.Fatalf("last record = %+v, want the absolute state (app, [W1], [[V1]])", ops[len(ops)-1])
	}
}

// TestReplicaTransitionIdempotent pins the property follower resync leans
// on: a transition record is an absolute state, so applying it twice is
// the same as applying it once, and a record that does not fit the
// principal's policy is refused without touching the session.
func TestReplicaTransitionIdempotent(t *testing.T) {
	dir := t.TempDir()
	d := openFixture(t, dir)
	if err := d.System().SetPolicy("app", map[string][]string{"W1": {"V1"}, "W2": {"V3"}}); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	qm := disclosure.MustParse("QM(t) :- M(t, p)")
	rep := replicaOf(t, dir)
	state := func() string {
		t.Helper()
		live, err := rep.System().Session("app")
		if err != nil {
			t.Fatalf("replica Session: %v", err)
		}
		e, err := rep.System().ExplainDecision("app", qm)
		if err != nil {
			t.Fatalf("replica ExplainDecision: %v", err)
		}
		return fmt.Sprint(live, e.Cumulative, e.Admissible)
	}
	fresh := state()
	tr := &wal.Op{Transition: &wal.TransitionOp{Principal: "app", Live: []string{"W2"}, Cumulative: [][]string{{"V3"}}}}
	if err := rep.Apply(tr); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	once := state()
	if once == fresh {
		t.Fatalf("the transition left the replica session at %s", fresh)
	}
	if err := rep.Apply(tr); err != nil {
		t.Fatalf("second Apply: %v", err)
	}
	if twice := state(); twice != once {
		t.Fatalf("replaying the transition moved the session from %s to %s", once, twice)
	}
	for _, bad := range []*wal.TransitionOp{
		{Principal: "app", Live: []string{"W9"}},
		{Principal: "app", Live: []string{"W2"}, Cumulative: [][]string{{"V9"}}},
		{Principal: "nobody", Live: []string{"W2"}},
	} {
		if err := rep.Apply(&wal.Op{Transition: bad}); err == nil {
			t.Errorf("Apply accepted the ill-fitting transition %+v", bad)
		}
		if got := state(); got != once {
			t.Fatalf("a refused transition moved the session from %s to %s", once, got)
		}
	}
}

// replicaOf builds a Replica from the newest checkpoints of a directory by
// treating each one as what it is — a log: the files are read with
// wal.Frames and wal.DecodeOp and nothing else, the meta shard's header
// builds the replica, and every other record goes through Apply.
func replicaOf(t *testing.T, dir string) *disclosure.Replica {
	t.Helper()
	scan, _, err := wal.ScanShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	var rep *disclosure.Replica
	load := func(shard string) {
		t.Helper()
		gens := scan[shard].Checkpoints
		buf, err := os.ReadFile(wal.ShardCheckpointPath(dir, shard, gens[len(gens)-1]))
		if err != nil {
			t.Fatal(err)
		}
		consumed, err := wal.Frames(buf, func(payload []byte) error {
			op, err := wal.DecodeOp(payload)
			if err != nil {
				return err
			}
			if rep == nil {
				rep, err = disclosure.NewReplica(op.Header)
				return err
			}
			return rep.Apply(op)
		})
		if err != nil || consumed != len(buf) {
			t.Fatalf("reading shard %s checkpoint as a log: consumed %d of %d bytes, err=%v", shard, consumed, len(buf), err)
		}
	}
	load(wal.MetaShard)
	for shard := range scan {
		if shard != wal.MetaShard {
			load(shard)
		}
	}
	return rep
}

// deploymentState renders everything a checkpoint has to carry — rows,
// each principal's live partitions and cumulative disclosure, the
// owner of each token ever issued, the decision epoch and the fence — so
// two deployments can be compared by one string.
func deploymentState(t *testing.T, sys *disclosure.System, owner func(token string) (string, bool), epoch, fencedBy uint64) string {
	t.Helper()
	var b strings.Builder
	for _, rel := range []string{"M", "C"} {
		var rows []string
		for row := range sys.Table(rel).All() {
			rows = append(rows, fmt.Sprintf("%q", row))
		}
		slices.Sort(rows)
		fmt.Fprintf(&b, "%s=%v\n", rel, rows)
	}
	qc := disclosure.MustParse("QC(p, e) :- C(p, e, r)")
	for _, principal := range []string{"app", "other", "gone"} {
		live, err := sys.Session(principal)
		if errors.Is(err, disclosure.ErrNoPolicy) {
			fmt.Fprintf(&b, "%s: no policy\n", principal)
			continue
		}
		if err != nil {
			t.Fatalf("Session(%s): %v", principal, err)
		}
		e, err := sys.ExplainDecision(principal, qc)
		if err != nil {
			t.Fatalf("ExplainDecision(%s): %v", principal, err)
		}
		fmt.Fprintf(&b, "%s: live=%v cum=%s\n", principal, live, e.Cumulative)
	}
	for _, token := range []string{"tok1", "tok2", "g"} {
		principal, ok := owner(token)
		fmt.Fprintf(&b, "token %s: %q %v\n", token, principal, ok)
	}
	fmt.Fprintf(&b, "epoch=%d fencedBy=%d\n", epoch, fencedBy)
	return b.String()
}

// durableState is deploymentState of a Durable.
func durableState(t *testing.T, d *disclosure.Durable) string {
	t.Helper()
	owner := func(token string) (string, bool) {
		for principal, tok := range d.Tokens() {
			if tok == token {
				return principal, true
			}
		}
		return "", false
	}
	return deploymentState(t, d.System(), owner, d.Epoch(), d.FencedBy())
}

// scriptedHistory drives a wallFixture deployment through
// every kind of state change the log knows: two bulk loads, policy installs
// and a replace, transitions down a 3-partition wall, refusals and repeats
// that move nothing, a token rotation and a removal.
func scriptedHistory(t *testing.T, dir string) *disclosure.Durable {
	t.Helper()
	s, views := durableFixture()
	views = append(views, disclosure.MustParse("V2(t) :- M(t, p)"))
	d, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{}, s, views...)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	sys := d.System()
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	submit := func(principal, query string, allowed bool, times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			dec, _, err := sys.Submit(principal, disclosure.MustParse(query))
			if err != nil || dec.Allowed != allowed {
				t.Fatalf("%s submits %s: allowed=%v err=%v, want allowed=%v", principal, query, dec.Allowed, err, allowed)
			}
		}
	}
	must("LoadBatch", sys.LoadBatch(func(ld *disclosure.Loader) error {
		ld.MustInsert("M", "10", "Cathy")
		ld.MustInsert("M", "\x00", "")
		ld.MustInsert("C", "Cathy", "c@example.com", "Boss")
		return nil
	}))
	must("SetPolicy app", sys.SetPolicy("app", map[string][]string{"meetings": {"V1"}, "times": {"V2"}, "contacts": {"V3"}}))
	must("SetPolicy other", sys.SetPolicy("other", map[string][]string{"all": {"V1", "V3"}}))
	must("SetPolicy gone", sys.SetPolicy("gone", map[string][]string{"all": {"V1"}}))
	must("LogToken app", d.LogToken("app", "tok1"))
	must("LogToken gone", d.LogToken("gone", "g"))
	submit("app", "QT(t) :- M(t, p)", true, 2)    // retires contacts
	submit("app", "QM(t, p) :- M(t, p)", true, 1) // retires times
	submit("app", "QC(p, e) :- C(p, e, r)", false, 3)
	submit("other", "QC(p, e) :- C(p, e, r)", true, 4)
	must("replace other's policy", sys.SetPolicy("other", map[string][]string{"W1": {"V1"}, "W2": {"V3"}}))
	submit("other", "QC(p, e) :- C(p, e, r)", true, 1)
	submit("other", "QM(t, p) :- M(t, p)", false, 2)
	must("rotate app's token", d.LogToken("app", "tok2"))
	must("RemovePolicy gone", sys.RemovePolicy("gone"))
	must("second LoadBatch", sys.LoadBatch(func(ld *disclosure.Loader) error {
		ld.MustInsert("M", "11", "Dave")
		ld.MustInsert("C", "Dave", "d@example.com", "Intern")
		return nil
	}))
	return d
}

// TestCheckpointIsALog is the tentpole's contract: a checkpoint file is a
// sequence of the log's own records. After a scripted history and a fence
// the deployment checkpoints; the .ckpt files are then read with nothing
// but wal.Frames and wal.DecodeOp, the meta header goes to NewReplica and
// every other record to Replica.Apply (replicaOf) — and the replica so
// built equals the live deployment and a reopened one in every part of the
// state, while the reopened one replayed no log record to get there.
func TestCheckpointIsALog(t *testing.T) {
	dir := t.TempDir()
	d := scriptedHistory(t, dir)
	d.Fence(7)
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	want := durableState(t, d)
	for _, part := range []string{`M=[["10" "Cathy"] ["11" "Dave"] ["\x00" ""]]`, "app: live=[meetings]",
		"other: live=[W2]", "gone: no policy", `token tok1: "" false`, `token tok2: "app" true`, "epoch=1 fencedBy=7"} {
		if !strings.Contains(want, part) {
			t.Fatalf("the scripted history did not reach %q:\n%s", part, want)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rep := replicaOf(t, dir)
	if got := deploymentState(t, rep.System(), rep.TokenOwner, rep.Epoch(), rep.FencedBy()); got != want {
		t.Errorf("replica built from the checkpoints' records:\n%s\nwant the live deployment's:\n%s", got, want)
	}
	reopened, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{}, nil)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer reopened.Close()
	if got := durableState(t, reopened); got != want {
		t.Errorf("reopened deployment:\n%s\nwant the live deployment's:\n%s", got, want)
	}
	if n := reopened.Replayed(); n != 0 {
		t.Errorf("reopening after a checkpoint replayed %d log records, want 0: checkpoint records are loaded, not replayed", n)
	}
}

// TestCheckpointDamageFailsClosed cuts the newest checkpoint of each log
// at every frame boundary, flips a byte inside every frame, and replaces
// it with a whole, valid checkpoint of the other log or of its own
// previous generation. A cut at a boundary leaves nothing but whole,
// CRC-valid records — only the header's count can tell — and a replaced
// file is valid throughout — only its header's log and generation can
// tell. Every damaged file must send recovery through the previous
// generation to the identical state, never to a partial or misplaced load.
// A directory whose only generation is damaged must refuse to open rather
// than open empty.
func TestCheckpointDamageFailsClosed(t *testing.T) {
	dir := t.TempDir()
	d := scriptedHistory(t, dir)
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint 1: %v", err)
	}
	// Between the checkpoints: a policy install, a token and a row, which a
	// fallback to generation 1 recovers by replaying its segment.
	if err := d.System().SetPolicy("gone", map[string][]string{"all": {"V1"}}); err != nil {
		t.Fatalf("SetPolicy between checkpoints: %v", err)
	}
	if err := d.LogToken("gone", "g"); err != nil {
		t.Fatalf("LogToken between checkpoints: %v", err)
	}
	if err := d.System().Insert("M", "12", "Eve"); err != nil {
		t.Fatalf("Insert between checkpoints: %v", err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint 2: %v", err)
	}
	want := durableState(t, d)
	// Crash: the handle is abandoned.

	recoverDamaged := func(what, shard string, damage func(ckpt []byte) []byte) {
		t.Helper()
		damaged := copyDir(t, dir)
		path := wal.ShardCheckpointPath(damaged, shard, 2)
		ckpt, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, damage(ckpt), 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := disclosure.OpenDurable(damaged, disclosure.DurabilityOptions{}, nil)
		if err != nil {
			t.Fatalf("shard %s checkpoint %s: OpenDurable: %v", shard, what, err)
		}
		defer rec.Close()
		if got := durableState(t, rec); got != want {
			t.Fatalf("shard %s checkpoint %s: recovered\n%s\nwant\n%s", shard, what, got, want)
		}
	}
	read := func(shard string, gen uint64) []byte {
		t.Helper()
		buf, err := os.ReadFile(wal.ShardCheckpointPath(dir, shard, gen))
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	for _, shard := range []string{wal.MetaShard, wal.DataShard} {
		ckpt := read(shard, 2)
		bounds := append([]int{0}, frameBoundaries(t, ckpt)...)
		for i, b := range bounds[:len(bounds)-1] {
			recoverDamaged(fmt.Sprintf("cut after %d of %d records", i, len(bounds)-1), shard, func(c []byte) []byte { return c[:b] })
			mid := (b + bounds[i+1]) / 2
			recoverDamaged(fmt.Sprintf("with byte %d (record %d) flipped", mid, i), shard, func(c []byte) []byte { c[mid] ^= 0xFF; return c })
		}
		other := wal.MetaShard
		if shard == wal.MetaShard {
			other = wal.DataShard
		}
		recoverDamaged("replaced by the "+other+" log's", shard, func([]byte) []byte { return read(other, 2) })
		recoverDamaged("replaced by its generation 1", shard, func([]byte) []byte { return read(shard, 1) })
	}

	fresh := t.TempDir()
	scriptedHistory(t, fresh) // abandoned at generation 0
	path := wal.ShardCheckpointPath(fresh, wal.MetaShard, 0)
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, ckpt[:frameBoundaries(t, ckpt)[0]], 0o644); err != nil {
		t.Fatal(err)
	}
	if rec, err := disclosure.OpenDurable(fresh, disclosure.DurabilityOptions{}, nil); err == nil {
		rec.Close()
		t.Fatalf("a directory whose only meta checkpoint lost its records opened anyway")
	}
}

// TestCheckpointChunksRows checks that a checkpoint has no size ceiling of
// its own: a table of 3×wal.RowsPerRecord+1 rows is spread over at least
// four rows records, each a frame like any log record's, and loads back.
func TestCheckpointChunksRows(t *testing.T) {
	dir := t.TempDir()
	d := openFixture(t, dir)
	const rows = 3*wal.RowsPerRecord + 1
	if err := d.System().LoadBatch(func(ld *disclosure.Loader) error {
		for i := 0; i < rows; i++ {
			ld.MustInsert("M", strconv.Itoa(i), "Cathy")
		}
		return nil
	}); err != nil {
		t.Fatalf("LoadBatch: %v", err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ckpt, err := os.ReadFile(wal.ShardCheckpointPath(dir, wal.MetaShard, 1))
	if err != nil {
		t.Fatal(err)
	}
	records, held := 0, 0
	if _, err := wal.Frames(ckpt, func(payload []byte) error {
		if len(payload) > wal.MaxRecordBytes {
			t.Errorf("a checkpoint record of %d bytes exceeds wal.MaxRecordBytes", len(payload))
		}
		op, err := wal.DecodeOp(payload)
		if err == nil && op.Rows != nil {
			records++
			held += len(op.Rows.Rows)
			if len(op.Rows.Rows) > wal.RowsPerRecord {
				t.Errorf("a rows record holds %d rows, more than wal.RowsPerRecord", len(op.Rows.Rows))
			}
		}
		return err
	}); err != nil {
		t.Fatalf("reading the meta checkpoint as a log: %v", err)
	}
	if records < 4 || held != rows {
		t.Fatalf("meta checkpoint holds %d rows in %d rows records, want %d rows in at least 4", held, records, rows)
	}
	d2 := openFixture(t, dir)
	defer d2.Close()
	if got := d2.System().Table("M").Len(); got != rows {
		t.Errorf("reopened M has %d rows, want %d", got, rows)
	}
}

// TestParentFormatCheckpointRefused opens a directory the previous release
// wrote (testdata/parent-format-datadir: each checkpoint one frame holding
// the shard's whole state as a single JSON object). No decoder for that
// format remains, and the refusal says what to do.
func TestParentFormatCheckpointRefused(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "parent-format-datadir"))
	d, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{}, nil)
	if err == nil {
		d.Close()
		t.Fatalf("OpenDurable loaded a data directory in the previous checkpoint format")
	}
	if !strings.Contains(err.Error(), "re-initialize") {
		t.Fatalf("refusal %q does not tell the operator to re-initialize", err)
	}
}

// TestSetTokenLogsOnlyChanges: on a durable System a token install is one
// data-log record when it changes the table and none otherwise — a
// re-install of the principal's current token and a refused collision
// append nothing — and the log replays to the same table.
func TestSetTokenLogsOnlyChanges(t *testing.T) {
	dir := t.TempDir()
	d := wallFixture(t, dir)
	sys := d.System()
	for _, step := range []struct {
		principal, token string
		frames           int
		err              error
	}{
		{"app", "tok", 1, nil},
		{"app", "tok", 0, nil},
		{"other", "tok", 0, disclosure.ErrTokenTaken},
		{"app", "tok2", 1, nil},
		{"app", "tok2", 0, nil},
		{"other", "tok", 1, nil},
	} {
		before := len(dataFrames(t, dir))
		if err := sys.SetToken(step.principal, step.token); !errors.Is(err, step.err) {
			t.Fatalf("SetToken(%s, %s) = %v, want %v", step.principal, step.token, err, step.err)
		}
		if n := len(dataFrames(t, dir)) - before; n != step.frames {
			t.Fatalf("SetToken(%s, %s) appended %d records, want %d", step.principal, step.token, n, step.frames)
		}
	}
	want := "map[app:tok2 other:tok]"
	if got := fmt.Sprint(d.Tokens()); got != want {
		t.Fatalf("tokens = %s, want %s", got, want)
	}
	reopened, err := disclosure.OpenDurable(copyDir(t, dir), disclosure.DurabilityOptions{}, nil)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer reopened.Close()
	if got := fmt.Sprint(reopened.Tokens()); got != want {
		t.Fatalf("recovered tokens = %s, want %s", got, want)
	}
}
