package cq_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/fb"
	"repro/internal/workload"
)

// TestParseQueryAtomBound: a body of MaxBodyAtoms atoms parses, one more
// is refused, and parentheses inside quoted constants are not atoms.
func TestParseQueryAtomBound(t *testing.T) {
	chain := func(n int, arg string) string {
		atoms := make([]string, n)
		for i := range atoms {
			atoms[i] = fmt.Sprintf("friend(x%d, x%d, %s)", i, i+1, arg)
		}
		return "Q(x0) :- " + strings.Join(atoms, ", ")
	}
	if q, err := cq.ParseQuery(chain(cq.MaxBodyAtoms, "s")); err != nil || len(q.Body) != cq.MaxBodyAtoms {
		t.Fatalf("a %d-atom chain: %v", cq.MaxBodyAtoms, err)
	}
	if _, err := cq.ParseQuery(chain(cq.MaxBodyAtoms, "')))'")); err != nil {
		t.Fatalf("a %d-atom chain with parentheses in its constants: %v", cq.MaxBodyAtoms, err)
	}
	_, err := cq.ParseQuery(chain(cq.MaxBodyAtoms+1, "s"))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d atoms", cq.MaxBodyAtoms+1)) {
		t.Fatalf("a %d-atom chain: %v, want it refused", cq.MaxBodyAtoms+1, err)
	}
}

// TestParserRightSizes: the parser sizes every slice it fills from the text
// ahead, so a parsed query carries none of append's doubling slack, and its
// constants and names are substrings of the source. Before, a 34-argument
// user atom held capacity 64 and a warm-workload template averaged 1340 B
// of heap beside its 200-byte text; what is left is 24 bytes per term (35
// of them on average) plus the atom and query headers. Allocations of other
// goroutines can land between the two heap reads, so the measure is the
// least of three passes, each over freshly parsed queries.
func TestParserRightSizes(t *testing.T) {
	g := workload.MustNew(fb.Schema(), workload.Options{Seed: 2013, MaxSubqueries: 3, FriendScopesMarkIsFriend: true})
	srcs := make([]string, 2000)
	for i := range srcs {
		srcs[i] = g.Next().String()
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	perQuery := math.Inf(1)
	for range 3 {
		qs := make([]*cq.Query, len(srcs))
		before := heap()
		for i, src := range srcs {
			q, err := cq.ParseQuery(src)
			if err != nil {
				t.Fatal(err)
			}
			if cap(q.Head) != len(q.Head) || cap(q.Body) != len(q.Body) {
				t.Fatalf("%s: head %d/%d, body %d/%d (len/cap)", src, len(q.Head), cap(q.Head), len(q.Body), cap(q.Body))
			}
			for _, a := range q.Body {
				if cap(a.Args) != len(a.Args) {
					t.Fatalf("%s: atom %s has %d arguments in capacity %d", src, a.Rel, len(a.Args), cap(a.Args))
				}
			}
			qs[i] = q
		}
		perQuery = min(perQuery, float64(heap()-before)/float64(len(qs)))
		runtime.KeepAlive(qs)
	}
	if perQuery > 1150 {
		t.Errorf("a parsed template holds %.0f B of heap beside its text, want ≤ 1150", perQuery)
	}
}
