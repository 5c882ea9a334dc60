package server

import (
	"testing"

	disclosure "repro"
	"repro/internal/engine"
	"repro/internal/fb"
)

// BenchmarkAnswerPath carries one scan_load-shaped answer (fb.LargeAnswerQuery
// at 2000 users: ≈ 640 rows of six values, ≈ 24 KB on the wire) from the
// engine to a client's hands, each stage on its own and all three in a row:
// evaluate to an Answer of interned ids, encode it into a reused buffer as
// the handler does, decode the body as Client.Submit does (the string
// conversion of the read buffer included). Information, not a gate; the
// allocation counts are gated by TestAdmittedAnswerAllocs.
func BenchmarkAnswerPath(b *testing.B) {
	db := engine.NewDatabase(fb.Schema())
	if err := fb.GenerateGraph(db, 2000, 2013); err != nil {
		b.Fatal(err)
	}
	pq := disclosure.PrepareQuery(disclosure.MustParse(fb.LargeAnswerQuery))
	snap := db.Snapshot()
	ps := []*disclosure.Prepared{pq}
	results := []disclosure.BatchResult{{Decision: disclosure.Decision{Allowed: true, Live: []string{"P0"}}}}
	var buf []byte
	evaluate := func() {
		ans, err := db.EvalCanonicalAt(snap, pq)
		if err != nil || ans.Len() < 300 {
			b.Fatalf("large answer has %d rows (err %v), want ≈ 640", ans.Len(), err)
		}
		results[0].Answer = ans
	}
	encode := func() { buf = appendSubmitResponse(buf[:0], "app-0", ps, results) }
	decode := func() {
		resp, err := decodeSubmitResponse(string(buf), 1)
		if err != nil || len(resp.Results[0].Rows) != results[0].Answer.Len() {
			b.Fatalf("decoded %d results (err %v)", len(resp.Results), err)
		}
	}
	evaluate()
	encode()
	for _, stage := range []struct {
		name string
		run  func()
	}{
		{"evaluate", evaluate},
		{"encode", encode},
		{"decode", decode},
		{"all", func() { evaluate(); encode(); decode() }},
	} {
		b.Run(stage.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stage.run()
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}
