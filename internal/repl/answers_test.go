package repl_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	disclosure "repro"
	"repro/internal/engine"
	"repro/internal/fb"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/workload"
)

// This file holds the answer an app receives equal to the reference
// evaluator's on every hop it takes as interned ids: out of the pipeline
// (Answer.Rows), onto the wire (the served bytes, read by encoding/json) and
// into a client's hands (Client.Submit's scanner) — from a primary and from
// a follower, whose dictionary was interned in another order.

// answerNodes is a durable primary over a generated facebook graph behind
// its HTTP server, a follower of it behind a follower server, and a
// reference database holding the same graph. One policy partition lists
// every security view, so whatever labels below ⊤ is admitted, always.
type answerNodes struct {
	sys      *disclosure.System
	ref      *engine.Database
	fol      *repl.Follower
	primary  *server.Client
	follower *server.Client
}

func newAnswerNodes(t *testing.T, users int) *answerNodes {
	t.Helper()
	s := fb.Schema()
	views, err := fb.SecurityViews(s)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]string, len(views))
	for i, v := range views {
		all[i] = v.Name
	}
	d, err := disclosure.OpenDurable(t.TempDir(), disclosure.DurabilityOptions{}, s, views...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	n := &answerNodes{sys: d.System(), ref: engine.NewDatabase(s)}
	if err := n.sys.LoadBatch(func(ld *disclosure.Loader) error { return fb.GenerateGraph(ld, users, 7) }); err != nil {
		t.Fatal(err)
	}
	if err := fb.GenerateGraph(n.ref, users, 7); err != nil {
		t.Fatal(err)
	}
	if err := n.sys.SetPolicy("app", map[string][]string{"all": all}); err != nil {
		t.Fatal(err)
	}
	if err := d.LogToken("app", "tok"); err != nil {
		t.Fatal(err)
	}
	prim, err := repl.NewPrimary(d, "admin")
	if err != nil {
		t.Fatal(err)
	}
	primSrv, err := server.New(n.sys, server.Options{AdminToken: "admin", Repl: prim.Handler(), Tokens: d.Tokens()})
	if err != nil {
		t.Fatal(err)
	}
	primHTTP := httptest.NewServer(primSrv.Handler())
	t.Cleanup(primHTTP.Close)
	if n.fol, err = repl.NewFollower(repl.FollowerOptions{Primary: primHTTP.URL, Token: "admin", Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	folHTTP := httptest.NewServer(server.NewFollower(n.fol, server.FollowerOptions{}).Handler())
	t.Cleanup(folHTTP.Close)
	n.primary = &server.Client{BaseURL: primHTTP.URL, Token: "tok"}
	n.follower = &server.Client{BaseURL: folHTTP.URL, Token: "tok"}
	return n
}

// servedRows posts one query without the typed client and reads the body
// with encoding/json: the bytes as any other client would see them.
func servedRows(t *testing.T, base, src string) server.SubmitResult {
	t.Helper()
	body, _ := json.Marshal(server.SubmitRequest{Query: src})
	req, err := http.NewRequest(http.MethodPost, base+"/v1/submit", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer tok")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out server.SubmitResponse
	if err := json.Unmarshal(raw, &out); err != nil || len(out.Results) != 1 {
		t.Fatalf("%s: served body %q does not hold one result: %v", src, raw, err)
	}
	return out.Results[0]
}

// sameRows reports whether got holds want's rows in want's order; no rows
// are no rows, nil or empty.
func sameRows[T ~[]string](got []T, want []engine.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !reflect.DeepEqual([]string(got[i]), []string(want[i])) {
			return false
		}
	}
	return true
}

func TestAnswersEqualReference(t *testing.T) {
	n := newAnswerNodes(t, 150)
	if err := n.fol.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	srcs := []string{
		fb.LargeAnswerQuery,
		"Const(x, 'interned nowhere') :- friend('me', x, s)",
		"AllConst('a', 'b') :- friend('me', x, s)",
		"NoneConst('a') :- friend('me', 'nobody', s)",
		"Twice(x, x, s) :- friend('me', x, s)",
		"Any() :- friend('me', x, s)",
		"None() :- friend('me', 'nobody', s)",
		"Empty(s) :- friend('me', 'nobody', s)",
	}
	hand := len(srcs)
	g := workload.MustNew(fb.Schema(), workload.Options{Seed: 19, MaxSubqueries: 2, FriendScopesMarkIsFriend: true})
	for _, q := range g.Batch(40) {
		srcs = append(srcs, q.String())
	}
	admitted, rows := 0, 0
	for i, src := range srcs {
		q := disclosure.MustParse(src)
		want, err := n.ref.EvalReference(q)
		if err != nil {
			t.Fatal(err)
		}
		res := n.sys.SubmitPrepared("app", []*disclosure.Prepared{disclosure.PrepareQuery(q)})[0]
		if res.Err != nil {
			t.Fatalf("%s: %v", src, res.Err)
		}
		if !res.Decision.Allowed {
			if i < hand {
				t.Fatalf("%s is refused: %+v", src, res.Decision.Refusal)
			}
			continue // a generated template no view covers is labeled ⊤
		}
		admitted++
		rows += len(want)
		if got := res.Answer.Rows(); !sameRows(got, want) || res.Answer.Len() != len(want) {
			t.Fatalf("%s: Answer.Rows() = %q, the reference %q", src, got, want)
		}
		for node, cl := range map[string]*server.Client{"primary": n.primary, "follower": n.follower} {
			if got := servedRows(t, cl.BaseURL, src); !got.Allowed || got.Error != "" || !sameRows(got.Rows, want) {
				t.Fatalf("%s: the %s served %+v, the reference has %q", src, node, got, want)
			}
			if got, err := cl.Submit(src); err != nil || !got.Allowed || got.Error != "" || !sameRows(got.Rows, want) {
				t.Fatalf("%s: the client decoded the %s's answer as %+v (%v), the reference has %q", src, node, got, err, want)
			}
		}
	}
	t.Logf("%d of %d queries admitted, %d rows between them", admitted, len(srcs), rows)
	if admitted < 20 || rows < 500 {
		t.Fatalf("%d queries admitted with %d rows between them: the differential is close to vacuous", admitted, rows)
	}

	// Isomorphs in one batch are evaluated once and carry one Answer; a
	// batch's rows cross the wire result by result.
	iso := []string{"A(x) :- friend('me', x, s)", "B(y) :- friend('me', y, t)", fb.LargeAnswerQuery}
	qs := make([]*disclosure.Query, len(iso))
	for i, src := range iso {
		qs[i] = disclosure.MustParse(src)
	}
	batch := n.sys.SubmitBatch("app", qs)
	if batch[0].Answer.Len() == 0 || !reflect.DeepEqual(batch[0].Answer, batch[1].Answer) || reflect.DeepEqual(batch[0].Answer, batch[2].Answer) {
		t.Fatalf("isomorphs of one batch carry answers of %d and %d rows, want one shared Answer", batch[0].Answer.Len(), batch[1].Answer.Len())
	}
	got, err := n.follower.SubmitBatch(iso)
	if err != nil || len(got) != len(iso) {
		t.Fatalf("batch through the follower: %d results, %v", len(got), err)
	}
	for i, q := range qs {
		want, _ := n.ref.EvalReference(q)
		if !sameRows(got[i].Rows, want) {
			t.Fatalf("%s in a batch through the follower: %q, the reference %q", iso[i], got[i].Rows, want)
		}
	}
}

// TestAnswersPinnedUnderLoad submits batches of two queries over one
// relation while a writer bulk-loads it (run with -race). Each batch is
// evaluated at one snapshot: its two answers count the same rows, a whole
// number of loads, and are the reference's answers over exactly that prefix
// of the loads — the ids an Answer holds are read through the dictionary of
// the snapshot it was pinned to, however far the interner has moved on.
func TestAnswersPinnedUnderLoad(t *testing.T) {
	const loads, perLoad = 60, 8
	n := newAnswerNodes(t, 60)
	srcs := []string{"UP(u, p) :- likes(u, p, n, f)", "PU(p, u, n) :- likes(u, p, n, f)"}
	q0, q1 := disclosure.MustParse(srcs[0]), disclosure.MustParse(srcs[1])
	load := func(ld interface {
		Insert(rel string, values ...string) error
	}, k int) error {
		for j := 0; j < perLoad; j++ {
			if err := ld.Insert("likes", fmt.Sprintf("u%d", j), fmt.Sprintf("page_%d_%d", k, j), fmt.Sprintf("Page %d", k), "0"); err != nil {
				return err
			}
		}
		return nil
	}
	base, err := n.ref.EvalReference(q0)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for k := 0; k < loads; k++ {
			if err := n.sys.LoadBatch(func(ld *disclosure.Loader) error { return load(ld, k) }); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	seen := make(map[int][2][][]string) // loads applied → the batch's two answers
	for running := true; running; {
		select {
		case <-done:
			running = false // one more batch, over the final state
		default:
		}
		got, err := n.primary.SubmitBatch(srcs)
		if err != nil || len(got) != 2 || !got[0].Allowed || !got[1].Allowed {
			t.Fatalf("batch under load: %+v, %v", got, err)
		}
		extra := len(got[0].Rows) - len(base)
		if len(got[1].Rows) != len(got[0].Rows) || extra < 0 || extra%perLoad != 0 {
			t.Fatalf("a batch's answers have %d and %d rows over a base of %d and loads of %d: not one snapshot", len(got[0].Rows), len(got[1].Rows), len(base), perLoad)
		}
		seen[extra/perLoad] = [2][][]string{got[0].Rows, got[1].Rows}
	}
	wg.Wait()
	t.Logf("batches saw %d distinct states over %d loads", len(seen), loads)
	if _, ok := seen[loads]; !ok || len(seen) < 2 {
		t.Fatalf("batches saw %d distinct states, the final one included: %v", len(seen), ok)
	}
	for k := 0; k <= loads; k++ {
		if got, ok := seen[k]; ok {
			for i, q := range []*disclosure.Query{q0, q1} {
				if want, _ := n.ref.EvalReference(q); !sameRows(got[i], want) {
					t.Fatalf("%s after %d loads differs from the reference over the same prefix", srcs[i], k)
				}
			}
		}
		if k < loads {
			if err := n.ref.Load(func(ld *engine.Loader) error { return load(ld, k) }); err != nil {
				t.Fatal(err)
			}
		}
	}
}
