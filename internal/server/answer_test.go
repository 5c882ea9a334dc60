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
	head := append([]cq.Term{}, vars[:w]...)
	for _, c := range consts {
		head = append(head, cq.C(c))
	}
	q := cq.MustQuery("Q", head, []cq.Atom{cq.NewAtom("R", vars...)})
	ans, err := db.EvalCanonicalAt(db.Snapshot(), cq.PrepareQuery(q))
	if err != nil {
		tb.Fatal(err)
	}
	return ans
}
