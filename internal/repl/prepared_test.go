package repl_test

import (
	"reflect"
	"testing"

	disclosure "repro"
	"repro/internal/server"
)

// TestFollowerShipsTheTextItWasSent: a query whose constants hold a quote
// or a backslash is admitted or refused through a follower exactly as on
// the primary. The decision RPC carries the text the client sent — or, for
// a query built in code, a rendering that escapes what the parser reads as
// escapes. An unescaped rendering made the first text a 400 at the primary,
// the second a different constant than the one the follower evaluated, and
// the third — one atom over M — two atoms, one of them over the uncovered S:
// a fingerprint-mismatch 409 blaming drifted node versions.
func TestFollowerShipsTheTextItWasSent(t *testing.T) {
	for _, src := range []string{
		`Q(t) :- M(t, "it's")`,
		`Q(t) :- M(t, 'a\\b')`,
		`Q(t) :- M(t, 'a\'), S(y, \'b')`,
	} {
		c := newCluster(t, server.FollowerOptions{})
		c.sync()
		q := disclosure.MustParse(src)
		if len(q.Body) != 1 {
			t.Fatalf("%s parsed to %d atoms, want 1", src, len(q.Body))
		}
		err := c.dur.System().LoadBatch(func(ld *disclosure.Loader) error {
			return ld.Insert("M", "11", q.Body[0].Args[1].Value)
		})
		if err != nil {
			t.Fatal(err)
		}
		c.sync()

		// As text through the follower's HTTP surface: the text itself crosses.
		res, err := c.client("tok").Submit(src)
		if err != nil || res.Error != "" || !res.Allowed || !reflect.DeepEqual(res.Rows, [][]string{{"11"}}) {
			t.Fatalf("%s via the follower = (%+v, %v), want admitted with the row loaded for its constant", src, res, err)
		}
		// As a built query through the library surface: its rendering crosses.
		dec, err := c.fol.Decide("app", q)
		if err != nil || !dec.Allowed {
			t.Fatalf("%s via Follower.Decide = (%+v, %v), want admitted", src, dec, err)
		}
		want, rows, err := c.dur.System().Submit("app", q)
		if err != nil || want.Allowed != res.Allowed || len(rows) != len(res.Rows) {
			t.Fatalf("%s on the primary = (%+v, %d rows, %v), via the follower (%+v, %d rows)", src, want, len(rows), err, res.Allowed, len(res.Rows))
		}
		if rpcs := decideRPCs(c.reg); rpcs != 2 {
			t.Errorf("%s: %d decision RPCs, want 2 (both admits are the primary's)", src, rpcs)
		}
	}
}

// TestFollowerMemoAcrossResyncAndRPC: the texts a follower serves are
// memoized on its replica's System and, arriving byte-identical over the
// decision RPC, on the primary's. Neither memo holds state: after a policy
// re-install on the primary that walls the query off and a resync that
// replaces the replica — and with it the follower's memo — the same text is
// refused, as on the primary.
func TestFollowerMemoAcrossResyncAndRPC(t *testing.T) {
	c := newCluster(t, server.FollowerOptions{})
	c.sync()
	const src = "QM(t) :- M(t, p)"
	cl := c.client("tok")
	for i := 0; i < 4; i++ {
		if res, err := cl.Submit(src); err != nil || !res.Allowed || res.Error != "" {
			t.Fatalf("sighting %d via the follower = (%+v, %v), want admitted", i+1, res, err)
		}
	}
	if st := c.fol.System().Stats().Memo; st.Hits != 2 || st.Entries != 1 {
		t.Errorf("follower memo after four sightings: %s, want 2 hits on 1 entry", st)
	}
	// Every one of the four admits crossed the RPC with the client's bytes.
	if st := c.dur.System().Stats().Memo; st.Hits != 2 || st.Entries != 1 {
		t.Errorf("primary memo after four decision RPCs: %s, want 2 hits on 1 entry", st)
	}

	c.sync()
	if err := c.dur.System().SetPolicy("app", map[string][]string{"W2": {"V3"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // prune the generation the follower tails
		if err := c.dur.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	c.sync()
	if c.fol.Resyncs() == 0 {
		t.Fatal("pruned generations did not trigger a resync")
	}
	if st := c.fol.System().Stats().Memo; st.Hits+st.Misses != 0 {
		t.Errorf("the rebuilt replica's memo is not new: %s", st)
	}
	res, err := cl.Submit(src)
	if err != nil || res.Allowed || res.Error != "" || res.Refusal == nil {
		t.Fatalf("after the re-install and a resync, via the follower = (%+v, %v), want a refusal with a body", res, err)
	}
	if dec, _, err := c.dur.System().Submit("app", c.qm); err != nil || dec.Allowed {
		t.Fatalf("after the re-install, on the primary = (%+v, %v), want refused", dec, err)
	}
}
