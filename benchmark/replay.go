package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	disclosure "repro"
	"repro/internal/cq"
	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/policy"
	"repro/internal/repl"
	"repro/internal/server"
)

// span is one timed call into a layer. Spans of one op share its number;
// a span's parent is the span that was open when it began (0 for none).
// Times are nanoseconds since the replay began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; the replay is single-threaded, so the
// open spans form a stack and begin/end pair up like calls.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

// begin opens a span under the innermost open one.
func (tr *tracer) begin(name string) {
	parent := 0
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Op: tr.op, Name: name})
	tr.open = append(tr.open, id)
	tr.spans[id-1].Start = int64(time.Since(tr.t0))
}

// end closes the innermost open span and returns its duration.
func (tr *tracer) end() time.Duration {
	now := int64(time.Since(tr.t0))
	id := tr.open[len(tr.open)-1]
	tr.open = tr.open[:len(tr.open)-1]
	s := &tr.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// selfTimes returns each span's duration minus the time its direct
// children cover, indexed like spans. Children of one parent never overlap
// here (one thread), so their durations simply add up.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent > 0 {
			self[s.Parent-1] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// node is what cmd/disclosured assembles, built in-process from the same
// public constructors: a System (durable when the workload is), the graph,
// and — when serve is set — the HTTP server on a loopback port.
type node struct {
	sys  *disclosure.System
	dur  *disclosure.Durable
	base string
	// graphRows and graphBytes are the bulk load's size and the heap it
	// added, the inputs of engine.bytes_per_row.
	graphRows  int
	graphBytes uint64
	stops      []func()
}

// countingInserter counts the rows fb.GenerateGraph inserts.
type countingInserter struct {
	ld *disclosure.Loader
	n  int
}

// Insert implements fb.Inserter.
func (c *countingInserter) Insert(rel string, values ...string) error {
	c.n++
	return c.ld.Insert(rel, values...)
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// startNode builds one in-process node for the workload.
func startNode(in *inputs, dir string, serve bool) (*node, error) {
	n := &node{}
	sp := in.spec
	var err error
	if sp.durable {
		if n.dur, err = disclosure.OpenDurable(dir, sp.wal, in.schema, in.views...); err != nil {
			return nil, err
		}
		n.sys = n.dur.System()
		n.stops = append(n.stops, func() { _ = n.dur.Close() })
	} else if n.sys, err = disclosure.NewSystem(in.schema, in.views...); err != nil {
		return nil, err
	}
	before := heapAlloc()
	err = n.sys.LoadBatch(func(ld *disclosure.Loader) error {
		ci := &countingInserter{ld: ld}
		defer func() { n.graphRows = ci.n }()
		return fb.GenerateGraph(ci, sp.users, graphSeed)
	})
	if err != nil {
		n.close()
		return nil, err
	}
	if after := heapAlloc(); after > before {
		n.graphBytes = after - before
	}
	if n.dur != nil {
		if err := n.dur.Checkpoint(); err != nil {
			n.close()
			return nil, err
		}
	}
	if !serve {
		return n, nil
	}
	opts := server.Options{AdminToken: adminToken}
	if n.dur != nil {
		prim, err := repl.NewPrimary(n.dur, adminToken)
		if err != nil {
			n.close()
			return nil, err
		}
		opts.Journal, opts.Tokens, opts.Repl = n.dur, n.dur.Tokens(), prim.Handler()
	}
	srv, err := server.New(n.sys, opts)
	if err != nil {
		n.close()
		return nil, err
	}
	if n.base, err = n.listen(srv.Serve, srv.Shutdown); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// listen serves on an ephemeral loopback port until the node closes.
func (n *node) listen(serve func(net.Listener) error, shutdown func(context.Context) error) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = serve(l)
	}()
	n.stops = append(n.stops, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = shutdown(ctx)
		<-done
	})
	return "http://" + l.Addr().String(), nil
}

// close stops the node's servers and closes its log, last started first.
func (n *node) close() {
	for i := len(n.stops) - 1; i >= 0; i-- {
		n.stops[i]()
	}
	n.stops = nil
}

// opTrace is what the walk of one op measured, by step.
type opTrace struct {
	kind               opKind
	allowed            bool
	labelHit, planHit  bool
	rows               int
	roundtrip          time.Duration
	decode, parse      time.Duration
	canon, label, hit  time.Duration
	check, decide      time.Duration
	eval, explain      time.Duration
	encode, load, inst time.Duration
	sync               time.Duration
	synced             uint64
}

// pipeline is the sum of the walked steps of a submit, each counted once:
// decide re-does the canonicalization and the (now cached) label lookup
// the walk already timed, so those are taken out of it.
func (o *opTrace) pipeline() time.Duration {
	return o.decode + o.parse + o.canon + o.label + o.decideRest() + o.eval + o.explain + o.encode
}

// decideRest is the part of System.Decide (or of the follower's decision
// RPC) the earlier steps did not already cover.
func (o *opTrace) decideRest() time.Duration {
	return max(0, o.decide-o.canon-o.hit)
}

// commitWait is decide minus its children: what is left once the
// canonicalization, the cached label lookup and the monitor's bit-vector
// check are taken out — the shard lock, the log append and the fsync wait.
func (o *opTrace) commitWait() time.Duration {
	return max(0, o.decide-o.canon-o.hit-o.check)
}

// traceReport is the outcome of one traced replay.
type traceReport struct {
	ops               []opTrace
	spans             int
	attempted, failed int
	firstErr          error
	mallocs           uint64
	gcPause           time.Duration
	graphRows         int
	graphBytes        uint64
	fsync             float64 // env.fsync_us
	harness           float64 // trace.harness_frac
}

// replay walks a prefix of client 0's op stream in-process for dur. Each
// submit is sent once through server.Client.Submit to a served node (the
// round trip) and then walked step by step on a second node through the
// layers' public functions, one span per call; loads and policy
// re-installations are applied to both. On follower_submit the served node
// is a follower in front of a primary and the walk calls the same cluster,
// which is safe to do twice because a repeated decision never changes the
// monitor's state.
func replay(in *inputs, work string, dur time.Duration, spanPath string) (*traceReport, error) {
	rep := &traceReport{}
	var err error
	if rep.fsync, err = fsyncMicros(work); err != nil {
		return nil, err
	}
	served, err := startNode(in, filepath.Join(work, "replay-served"), true)
	if err != nil {
		return nil, err
	}
	defer served.close()
	rep.graphRows, rep.graphBytes = served.graphRows, served.graphBytes

	admin := &server.Client{BaseURL: served.base, Token: adminToken}
	if err := admin.SetPolicy(principal(0), token(0), in.parts); err != nil {
		return nil, err
	}
	w := &walker{in: in, rep: rep, tr: &tracer{t0: time.Now()}, admin: admin,
		model: newModel(len(in.partNames), len(in.pools[0]))}
	target := served.base
	if in.spec.follower {
		fol, err := repl.NewFollower(repl.FollowerOptions{
			Primary: served.base, Token: adminToken, Interval: time.Hour,
			HTTP: &http.Client{Timeout: 15 * time.Second},
		})
		if err != nil {
			return nil, err
		}
		if err := fol.SyncOnce(); err != nil {
			return nil, err
		}
		fsrv := server.NewFollower(fol, server.FollowerOptions{})
		if target, err = served.listen(fsrv.Serve, fsrv.Shutdown); err != nil {
			return nil, err
		}
		w.fol, w.sys = fol, fol.System()
	} else {
		walked, err := startNode(in, filepath.Join(work, "replay-walked"), false)
		if err != nil {
			return nil, err
		}
		defer walked.close()
		if err := walked.sys.SetPolicy(principal(0), in.parts); err != nil {
			return nil, err
		}
		w.sys = walked.sys
		pol, err := policy.New(in.cat, in.parts)
		if err != nil {
			return nil, err
		}
		w.pol, w.shadow = pol, policy.NewMonitor(pol)
	}
	hc, _ := newHTTPClient()
	w.submit = &server.Client{BaseURL: target, Token: token(0), HTTP: hc}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := in.spec
	pool := in.pools[0]
	next, loads := 0, 0
	start := time.Now()
	for n := 1; time.Since(start) < dur; n++ {
		w.tr.op = n
		switch {
		case sp.loadEvery > 0 && n%sp.loadEvery == 0:
			err = w.load(in.loadBatch(0, loads))
			loads++
		case sp.policyEvery > 0 && n%sp.policyEvery == 0:
			err = w.install()
		default:
			err = w.walk(next, pool[next])
			next = (next + 1) % len(pool)
		}
		if err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&after)
	rep.mallocs = after.Mallocs - before.Mallocs
	rep.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	rep.spans = len(w.tr.spans)
	// What the enclosing spans hold beyond their children is the harness's
	// own bookkeeping between timed calls.
	var own, total time.Duration
	for i, self := range selfTimes(w.tr.spans) {
		switch s := w.tr.spans[i]; s.Name {
		case "op":
			total += time.Duration(s.End - s.Start)
			own += self
		case "disclosure.pipeline":
			own += self
		}
	}
	rep.harness = ratio(float64(own), float64(total))
	return rep, writeSpans(spanPath, w.tr.spans)
}

// walker holds the replay's state between ops.
type walker struct {
	in     *inputs
	rep    *traceReport
	tr     *tracer
	submit *server.Client // round trips to the served node
	admin  *server.Client
	// sys is the walked System: the second node's, or on follower_submit
	// the follower's replica.
	sys *disclosure.System
	fol *repl.Follower
	// pol and shadow are the harness's own monitor, fed the same labels.
	pol    *policy.Policy
	shadow *policy.Monitor
	model  *model
}

func (w *walker) fail(format string, args ...any) {
	w.rep.failed++
	if w.rep.firstErr == nil {
		w.rep.firstErr = fmt.Errorf("replay: "+format, args...)
	}
}

// span times one call.
func (w *walker) span(name string, f func()) time.Duration {
	w.tr.begin(name)
	f()
	return w.tr.end()
}

// walk replays one submit.
func (w *walker) walk(idx int, t *template) error {
	if err := w.in.label(t); err != nil {
		return err
	}
	want := w.model.submit(idx, t)
	o := opTrace{kind: opSubmit}
	reqBody, err := json.Marshal(server.SubmitRequest{Query: t.src})
	if err != nil {
		return err
	}
	who := principal(0)

	w.tr.begin("op")
	var res server.SubmitResult
	o.roundtrip = w.span("server.roundtrip", func() { res, err = w.submit.Submit(t.src) })
	if err != nil {
		return fmt.Errorf("replay round trip: %w", err)
	}

	w.tr.begin("disclosure.pipeline")
	var req server.SubmitRequest
	o.decode = w.span("server.decode", func() { err = json.Unmarshal(reqBody, &req) })
	if err != nil {
		return err
	}
	var q *disclosure.Query
	o.parse = w.span("cq.parse", func() { q, err = disclosure.ParseQuery(req.Query) })
	if err != nil {
		return err
	}
	var dec disclosure.Decision
	if w.fol != nil {
		// The follower labels nothing itself: canonical fingerprint, RPC
		// and the primary's whole decision are one call.
		o.decide = w.span("repl.decide_rpc", func() { dec, err = w.fol.Decide(who, q) })
	} else {
		var key string
		o.canon = w.span("cq.canon", func() { key = cq.CanonicalKey(q) })
		cache := w.sys.Labeler().(*label.CachedLabeler)
		misses := cache.Stats().Misses
		var lbl disclosure.Label
		o.label = w.span("label.lookup", func() { lbl, err = cache.LabelCanonical(key, q) })
		if err != nil {
			return err
		}
		o.labelHit, o.hit = cache.Stats().Misses == misses, o.label
		if !o.labelHit {
			// What decide's own lookup will cost now that the form is cached.
			o.hit = w.span("label.hit_probe", func() { _, _ = cache.LabelCanonical(key, q) })
		}
		var shadow policy.Decision
		o.check = w.span("policy.check", func() { shadow = w.shadow.Submit(lbl) })
		if shadow.Allowed != want {
			w.fail("%s: shadow monitor allowed=%v, model says %v", t.src, shadow.Allowed, want)
		}
		o.decide = w.span("disclosure.decide", func() { dec, err = w.sys.Decide(who, q) })
	}
	if err != nil {
		return fmt.Errorf("replay decide: %w", err)
	}
	o.allowed = dec.Allowed
	out := server.SubmitResult{Query: q.Name, Allowed: dec.Allowed, Live: dec.Live}
	if dec.Allowed {
		planMisses := w.sys.Stats().Plans.Misses
		var rows []disclosure.Tuple
		o.eval = w.span("engine.eval", func() { rows, err = w.sys.Evaluate(q) })
		if err != nil {
			return err
		}
		o.planHit, o.rows = w.sys.Stats().Plans.Misses == planMisses, len(rows)
		out.Rows = make([][]string, len(rows))
		for i, r := range rows {
			out.Rows[i] = r
		}
	} else {
		o.explain = w.span("server.explain", func() {
			if e, eerr := w.sys.ExplainDecision(who, q); eerr == nil {
				out.Refusal = &e
			}
		})
	}
	resp := server.SubmitResponse{Principal: who, Results: []server.SubmitResult{out}}
	o.encode = w.span("server.encode", func() { _, err = json.Marshal(resp) })
	w.tr.end() // disclosure.pipeline
	w.tr.end() // op
	if err != nil {
		return err
	}

	w.rep.attempted++
	switch {
	case res.Error != "":
		w.fail("%s: %s", t.src, res.Error)
	case res.Allowed != want || dec.Allowed != want:
		w.fail("%s: round trip allowed=%v, walk allowed=%v, model says %v", t.src, res.Allowed, dec.Allowed, want)
	case len(res.Rows) != o.rows:
		w.fail("%s: round trip returned %d rows, walk %d", t.src, len(res.Rows), o.rows)
	}
	if w.fol != nil && len(w.rep.ops)%64 == 63 {
		// The daemon's follower polls on a timer; the replay applies the
		// primary's log every 64 ops and times it.
		applied := w.fol.Applied()
		o.sync = w.span("repl.apply", func() { err = w.fol.SyncOnce() })
		if err != nil {
			return err
		}
		o.synced = w.fol.Applied() - applied
	}
	w.rep.ops = append(w.rep.ops, o)
	return nil
}

// load applies one bulk load to both nodes, timing the walked one.
func (w *walker) load(rows []server.LoadRow) error {
	o := opTrace{kind: opLoad, rows: len(rows)}
	var err error
	w.tr.begin("op")
	o.roundtrip = w.span("server.roundtrip", func() { err = w.admin.Load(rows) })
	if err != nil {
		return err
	}
	o.load = w.span("engine.load", func() {
		err = w.sys.LoadBatch(func(ld *disclosure.Loader) error {
			for _, r := range rows {
				if err := ld.Insert(r.Rel, r.Values...); err != nil {
					return err
				}
			}
			return nil
		})
	})
	w.tr.end()
	w.rep.ops = append(w.rep.ops, o)
	return err
}

// install re-installs the policy on both nodes: every session restarts.
func (w *walker) install() error {
	o := opTrace{kind: opPolicy}
	var err error
	w.tr.begin("op")
	o.roundtrip = w.span("server.roundtrip", func() {
		err = w.admin.SetPolicy(principal(0), token(0), w.in.parts)
	})
	if err != nil {
		return err
	}
	o.inst = w.span("policy.install", func() { err = w.sys.SetPolicy(principal(0), w.in.parts) })
	w.tr.end()
	w.model.reset()
	w.shadow = policy.NewMonitor(w.pol)
	w.rep.ops = append(w.rep.ops, o)
	return err
}

// fsyncMicros is env.fsync_us: the median of 200 fsyncs of a 4 KiB file in
// the directory the durable workloads log to. It says what a flush costs
// in this sandbox, which is not what it costs on a device.
func fsyncMicros(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	samples := make([]float64, 0, 200)
	for i := 0; i < cap(samples); i++ {
		if _, err := f.WriteAt(buf, 0); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		samples = append(samples, micros(time.Since(t0)))
	}
	return median(samples), nil
}
