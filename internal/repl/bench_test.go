package repl_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	disclosure "repro"
	"repro/internal/fb"
	"repro/internal/repl"
)

// BenchmarkFollowerBootstrap times how long a new follower takes to be
// ready: NewFollower, which builds the replica from the primary's
// checkpoints, and the first SyncOnce, which streams it to the primary's
// tails. The primary holds the 300-user graph, checkpointed, so the meta
// checkpoint carries one rows record of 2,934 rows.
func BenchmarkFollowerBootstrap(b *testing.B) {
	s := fb.Schema()
	views, err := fb.SecurityViews(s)
	if err != nil {
		b.Fatal(err)
	}
	d, err := disclosure.OpenDurable(b.TempDir(), disclosure.DurabilityOptions{NoSync: true}, s, views...)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if err := d.System().LoadBatch(func(ld *disclosure.Loader) error { return fb.GenerateGraph(ld, 300, 2013) }); err != nil {
		b.Fatal(err)
	}
	if err := d.System().SetPolicy("app", map[string][]string{"all": {views[0].Name}}); err != nil {
		b.Fatal(err)
	}
	if err := d.LogToken("app", "tok"); err != nil {
		b.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	prim, err := repl.NewPrimary(d, "admin")
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(prim.Handler())
	defer srv.Close()
	httpc := &http.Client{}
	defer httpc.CloseIdleConnections()

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := repl.NewFollower(repl.FollowerOptions{Primary: srv.URL, Token: "admin", HTTP: httpc})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.SyncOnce(); err != nil {
			b.Fatal(err)
		}
	}
}
