package engine

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cq"
	"repro/internal/schema"
)

// jsonEscape is the escape callback of the AppendRow tests: encoding/json's
// rendering of the cell, counted in *calls.
func jsonEscape(calls *int) func(dst, b []byte) []byte {
	return func(dst, b []byte) []byte {
		*calls++
		q, _ := json.Marshal(string(b)) // marshaling a string cannot fail
		return append(dst, q...)
	}
}

// TestAppendRow: for every class of cell — plain values inline, of exactly
// the slot's twelve bytes and in the arena, values that are not plain on
// both sides of that boundary, head constants plain and not, before,
// between and after the variables, a repeated head variable, rows wide
// enough to outgrow the room reserved at their start, the unit row of a
// head without variables, and heads of variables only (appendInline's):
// one of sixteen positions, and one whose arena and escaped cells come
// before and after inline ones — the kernel appends the bytes
// encoding/json gives for the row Answer.Rows renders, hands escape
// exactly the cells that are not plain, and leaves what dst held alone,
// whatever room dst had.
func TestAppendRow(t *testing.T) {
	vals := []string{
		"v1", "", // inline plain
		"twelve bytes", "12 bytes <&>", // exactly a slot: plain and not
		"thirteen byte", "a plain value well past the slot", "v2", // arena plain, then inline
		`q"`, "é", "sep \u2028", "bad \xff", // inline, not plain
		`13 bytes: "\"`, "multi-byte é 世界 😀 past the slot", // arena, not plain
	}
	db := NewDatabase(schema.MustNew(schema.MustRelation("R", "a", "b")))
	err := db.Load(func(ld *Loader) error {
		for i, v := range vals {
			ld.MustInsert("R", v, vals[(i+1)%len(vals)])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := cq.V("a"), cq.V("b")
	wide := []cq.Term{a, b, a, b, a, b, a, b, a, b, cq.C("a plain head constant past the slot")}
	sixteen := []cq.Term{a, b, a, b, a, b, a, b, a, b, a, b, a, b, a, b}
	for _, head := range [][]cq.Term{
		{a, b},
		{cq.C("k"), a, cq.C("<c>"), b, cq.C("a long plain head constant")},
		{a, a, cq.C("é")},
		wide,
		sixteen,
		{b, a, b, b, a, b},         // b inline where a is in the arena or escaped
		{},                         // a satisfied boolean query: the unit row
		{cq.C("k"), cq.C("x < y")}, // a head of constants only
	} {
		q := cq.MustQuery("Q", head, []cq.Atom{cq.NewAtom("R", a, b)})
		ans, err := db.EvalCanonicalAt(db.Snapshot(), cq.PrepareQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		rows := ans.Rows()
		if len(rows) == 0 {
			t.Fatalf("%s: no rows", q)
		}
		for i, row := range rows {
			want, err := json.Marshal(append([]string{}, row...))
			if err != nil {
				t.Fatal(err)
			}
			escaped := 0
			for _, cell := range row {
				if !isPlain(cell) {
					escaped++
				}
			}
			for _, dst := range [][]byte{nil, []byte("[["), append(make([]byte, 0, 1<<10), ',')} {
				prefix := string(dst)
				calls := 0
				got := ans.AppendRow(dst, i, jsonEscape(&calls))
				if string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], want) {
					t.Fatalf("%s, row %d after %q: AppendRow appends %s, encoding/json gives %s", q, i, prefix, got[len(prefix):], want)
				}
				if calls != escaped {
					t.Fatalf("%s, row %d: escape called for %d cells, %d are not plain", q, i, calls, escaped)
				}
			}
		}
	}
}
