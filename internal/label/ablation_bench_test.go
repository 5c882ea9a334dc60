package label_test

// Ablation benchmarks for the design choices called out in DESIGN.md:
//
//   - compiled positionwise matching vs the generic rewrite.SingleAtom
//     decision (the precompilation half of the bit-vector optimization);
//   - the folding fast path (skip minimization when no relation repeats);
//   - label normalization cost.
//
// Run with: go test -bench 'Ablation' -benchmem ./internal/label/

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/rewrite"
	"repro/internal/workload"
)

func BenchmarkAblationGenericRewritability(b *testing.B) {
	v := cq.MustParse("V9(x) :- C(x, y, z)")
	s := cq.MustParse("V6(x, y) :- C(x, y, z)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !rewrite.SingleAtomRewritable(v, s) {
			b.Fatal("broken")
		}
	}
}

func BenchmarkAblationFoldFastPath(b *testing.B) {
	// Identical shape, differing only in whether a relation repeats (the
	// condition that forces the homomorphism-based fold).
	noRepeat := cq.MustParse("Q(x) :- R(x, y), S(y, z), T(z, w)")
	repeat := cq.MustParse("Q(x) :- R(x, y), R(x, z), T(z, w)")
	b.Run("unique-relations", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = cq.MinimizeShared(noRepeat)
		}
	})
	b.Run("repeated-relations", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = cq.MinimizeShared(repeat)
		}
	})
}

func BenchmarkAblationNormalize(b *testing.B) {
	cat, err := fb.Catalog()
	if err != nil {
		b.Fatal(err)
	}
	l := label.NewLabeler(cat)
	g := workload.MustNew(fb.Schema(), workload.Options{Seed: 3, MaxSubqueries: 3, FriendScopesMarkIsFriend: true})
	labels := make([]label.Label, 200)
	for i := range labels {
		lbl, err := l.Label(g.Next())
		if err != nil {
			b.Fatal(err)
		}
		labels[i] = lbl
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = labels[i%len(labels)].Normalize()
	}
}
