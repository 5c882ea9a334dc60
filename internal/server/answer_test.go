package server

import (
	"fmt"
	"testing"

	disclosure "repro"
	"repro/internal/cq"
	"repro/internal/engine"
)

// answerOf returns the engine's Answer holding exactly the given rows (all
// of one width; as a set, in answer order), each followed by consts as head
// constants that are interned nowhere: a fresh database with one relation
// is loaded with the rows and asked for them. Rows of width zero stand for a
// satisfied boolean query (or, with consts, an all-constant head); no rows
// is the zero Answer.
func answerOf(tb testing.TB, consts []string, rows ...disclosure.Tuple) disclosure.Answer {
	tb.Helper()
	var head []cq.Term
	if len(rows) > 0 {
		for i := range rows[0] {
			head = append(head, cq.V(fmt.Sprintf("v%d", i)))
		}
	}
	for _, c := range consts {
		head = append(head, cq.C(c))
	}
	return answerHead(tb, head, rows...)
}

// answerHead returns the engine's Answer to Q(head) :- R(v0, …) over a
// fresh database whose one relation R holds exactly rows: head may name the
// variables v0, v1, … of the rows' columns in any order, repeat them, and
// put constants, interned nowhere, anywhere among them. Rows of width zero
// stand for a satisfied body; no rows is the zero Answer.
func answerHead(tb testing.TB, head []cq.Term, rows ...disclosure.Tuple) disclosure.Answer {
	tb.Helper()
	if len(rows) == 0 {
		return disclosure.Answer{}
	}
	w := len(rows[0])
	attrs, vars := []string{"a0"}, []cq.Term{cq.V("v0")}
	for i := 1; i < w; i++ {
		attrs, vars = append(attrs, fmt.Sprintf("a%d", i)), append(vars, cq.V(fmt.Sprintf("v%d", i)))
	}
	db := engine.NewDatabase(disclosure.MustSchema(disclosure.MustRelation("R", attrs...)))
	err := db.Load(func(ld *engine.Loader) error {
		for _, row := range rows {
			if w == 0 {
				row = disclosure.Tuple{"present"}
			}
			if err := ld.Insert("R", row...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	q := cq.MustQuery("Q", head, []cq.Atom{cq.NewAtom("R", vars...)})
	ans, err := db.EvalCanonicalAt(db.Snapshot(), cq.PrepareQuery(q))
	if err != nil {
		tb.Fatal(err)
	}
	return ans
}
