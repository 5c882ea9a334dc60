package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// counters is one reading of a deployment's public surfaces.
type counters struct {
	cpu   time.Duration        // CPU time over all daemons
	echo  time.Duration        // CPU time of the echo server
	stats server.StatsResponse // GET /v1/stats of the node clients talk to
	prim  map[string]float64   // GET /metrics of the primary
	fol   map[string]float64   // GET /metrics of the follower, if any
	bytes int64                // response bytes read by the clients
}

// readCounters samples CPU before the scrapes, so that at the start of a
// phase their cost lands outside the CPU delta.
func readCounters(d *deployment, echo *daemon, cls []*client) (counters, error) {
	var c counters
	var err error
	if c.echo, err = echo.cpu(); err != nil {
		return c, err
	}
	for _, dm := range d.daemons() {
		t, err := dm.cpu()
		if err != nil {
			return c, err
		}
		c.cpu += t
	}
	for _, cl := range cls {
		c.bytes += cl.net.bytes.Load()
	}
	if c.stats, err = (&server.Client{BaseURL: d.target(), Token: adminToken}).Stats(); err != nil {
		return c, fmt.Errorf("GET /v1/stats: %w", err)
	}
	if c.prim, err = scrape(d.primary.base); err != nil {
		return c, err
	}
	if d.follower != nil {
		if c.fol, err = scrape(d.follower.base); err != nil {
			return c, err
		}
	}
	return c, nil
}

// measurement is everything one daemon-level run observed.
type measurement struct {
	in      *inputs
	setups  []float64 // seconds, one per set-up
	elapsed time.Duration
	lat     latencies
	ops     int // timed ops the daemon served: every kind but the null round trips
	rows    int // answer rows over admitted timed submits
	atoms   int // body atoms over timed submits
	// transitions counts timed admits that retired a partition.
	transitions int
	before      counters
	after       counters
	rssMB       float64
	// staleness holds the seconds of replica staleness the follower declared
	// on its responses.
	staleness []float64

	attempted, failed int
	firstErr          error

	// Durable workloads: log and checkpoint shape read from the data
	// directory, and the crash-recovery leg.
	frameBytes, checkpointBytes float64
	recover                     time.Duration
	replayed                    int
}

// measure runs one workload against the real daemon: set up setupRepeats
// times, drive the closed loop for dur, then check everything the daemon
// answered and, on durable_wall, crash it and check what it recovered.
func measure(in *inputs, bin, work string, dur time.Duration, smoke bool) (*measurement, error) {
	m := &measurement{in: in}
	echo, err := startEcho()
	if err != nil {
		return nil, err
	}
	defer echo.signal(syscall.SIGKILL)
	repeats := setupRepeats
	if smoke {
		repeats = 1
	}
	var d *deployment
	var cls []*client
	var warm [][]rec
	for k := 0; k < repeats; k++ {
		if d != nil {
			d.close(syscall.SIGKILL)
		}
		var took time.Duration
		var err error
		if d, cls, warm, took, err = setup(in, bin, work, echo.base); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, took.Seconds())
	}
	defer func() { d.close(syscall.SIGTERM) }()
	sp := in.spec
	mode := checkExact
	if sp.cold {
		mode = checkSampled
	}
	checkAll(cls, warm, mode)

	if m.before, err = readCounters(d, echo, cls); err != nil {
		return nil, err
	}
	recs, elapsed := timedPhase(cls, dur)
	if m.after, err = readCounters(d, echo, cls); err != nil {
		return nil, err
	}
	m.elapsed = elapsed
	for _, dm := range d.daemons() {
		mb, err := dm.rssPeakMB()
		if err != nil {
			return nil, err
		}
		m.rssMB += mb
	}
	m.lat = collect(recs, dur)
	for _, cl := range cls {
		m.staleness = append(m.staleness, cl.net.stale...)
	}

	// Everything below is verification, outside every clock.
	if sp.loadEvery > 0 {
		mode = checkGrowing
	}
	for _, cl := range cls {
		cl.model.transitions = 0
	}
	checkAll(cls, recs, mode)
	for i, cl := range cls {
		m.transitions += cl.model.transitions
		for _, r := range recs[i] {
			if r.kind != opEcho {
				m.ops++
			}
			if r.kind != opSubmit || !r.ok {
				continue
			}
			if q := cl.pool[r.idx].q; q != nil {
				m.atoms += len(q.Body)
			}
			m.rows += r.rows
		}
	}
	if !sp.cold {
		if sp.loadEvery > 0 {
			if err := m.applyLoads(cls, recs); err != nil {
				return nil, err
			}
		}
		checkAll(cls, pass(cls, 0), checkExact)
	}
	if sp.durable && !sp.follower {
		if err := m.crashAndRecover(d, cls); err != nil {
			return nil, err
		}
	}
	for _, cl := range cls {
		m.attempted += cl.checked
		m.failed += cl.failed
		if m.firstErr == nil {
			m.firstErr = cl.firstErr
		}
	}
	if m.firstErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: first mismatch:", m.firstErr)
	}
	return m, nil
}

// applyLoads brings the oracle's database to the daemon's final state:
// every acknowledged bulk load, then forget the answers computed before.
func (m *measurement) applyLoads(cls []*client, recs [][]rec) error {
	for i, cl := range cls {
		for _, r := range recs[i] {
			if r.kind == opLoad && r.ok {
				if err := m.in.applyLoad(m.in.loadBatch(cl.c, r.idx)); err != nil {
					return err
				}
			}
		}
		for _, t := range cl.pool {
			t.rows, t.haveRows = nil, false
		}
	}
	return nil
}

var replayedRE = regexp.MustCompile(`(\d+) logged operations replayed`)

// crashAndRecover is durable_wall's last leg: read the log's shape from
// the data directory, SIGKILL the daemon, restart it on the same
// directory, time the recovery, and check that every principal's live
// partitions and cumulative disclosure equal the model's and that one
// walled-off query per principal is still refused.
func (m *measurement) crashAndRecover(d *deployment, cls []*client) error {
	if err := d.primary.signal(syscall.SIGKILL); err != nil {
		return err
	}
	if err := m.readDataDir(d.dataDir); err != nil {
		return err
	}
	took, err := d.restart()
	if err != nil {
		return err
	}
	m.recover = took
	for _, line := range d.primary.logLines() {
		if g := replayedRE.FindStringSubmatch(line); g != nil {
			m.replayed, _ = strconv.Atoi(g[1])
		}
	}
	for _, cl := range cls {
		cl.submit.BaseURL, cl.admin.BaseURL = d.primary.base, d.primary.base
		cl.checkRecovered()
	}
	return nil
}

// checkRecovered compares the restarted daemon's view of this client's
// session with the model's.
func (cl *client) checkRecovered() {
	in := cl.in
	var walled *template
	for _, t := range cl.pool {
		if t.dom != 0 && t.dom&cl.model.live == 0 {
			walled = t
			break
		}
	}
	cl.checked++
	e, err := cl.submit.Explain(cl.pool[0].src)
	if err != nil {
		cl.fail("explain after recovery: %v", err)
		return
	}
	var live []string
	for _, p := range e.Partitions {
		if p.Live {
			live = append(live, p.Name)
		}
	}
	if want := cl.model.liveNames(in.partNames); !slices.Equal(live, want) {
		cl.fail("recovered live partitions %v, model says %v", live, want)
	}
	if want := cl.model.cum.Render(in.cat); e.Cumulative != want {
		cl.fail("recovered cumulative disclosure %q, model says %q", e.Cumulative, want)
	}
	if walled != nil {
		cl.checked++
		res, err := cl.submit.Submit(walled.src)
		if err != nil || res.Allowed {
			cl.fail("%s: walled-off query not refused after recovery (allowed=%v, err=%v)", walled.src, res.Allowed, err)
		}
	}
}

// readDataDir measures the write-ahead log as the crash left it: the mean
// framed size of the submission records in the surviving data-shard
// segments and the mean size of the surviving data-shard checkpoints.
// Rotation prunes older generations, so bytes per op are derived from
// these means and the daemon's own frame and checkpoint counters rather
// than from file sizes.
func (m *measurement) readDataDir(dir string) error {
	shards, _, err := wal.ScanShards(dir)
	if err != nil {
		return err
	}
	var frames, frameBytes, ckpts, ckptBytes float64
	for name, files := range shards {
		if name == wal.MetaShard {
			continue
		}
		for _, gen := range files.Segments {
			buf, err := os.ReadFile(wal.ShardSegmentPath(dir, name, gen))
			if err != nil {
				return err
			}
			n := 0
			consumed, err := wal.Frames(buf, func([]byte) error { n++; return nil })
			if err != nil {
				return fmt.Errorf("reading %s: %w", filepath.Base(wal.ShardSegmentPath(dir, name, gen)), err)
			}
			frames += float64(n)
			frameBytes += float64(consumed)
		}
		for _, gen := range files.Checkpoints {
			st, err := os.Stat(wal.ShardCheckpointPath(dir, name, gen))
			if err != nil {
				return err
			}
			ckpts++
			ckptBytes += float64(st.Size())
		}
	}
	m.frameBytes, m.checkpointBytes = ratio(frameBytes, frames), ratio(ckptBytes, ckpts)
	return nil
}

// result wraps a metric set with the run's correctness verdict, the traced
// replay's checks included when there was one.
func (m *measurement) result(metrics map[string]metric, tr *traceReport) *result {
	attempted, failed := m.attempted, m.failed
	if tr != nil {
		attempted, failed = attempted+tr.attempted, failed+tr.failed
		if tr.firstErr != nil {
			fmt.Fprintln(os.Stderr, "benchmark: first mismatch:", tr.firstErr)
		}
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}

// endToEnd is the --trace 0 metric set: what a user of the daemon sees,
// with latency and throughput in units of the host's null round trip (see
// echo.go) and CPU in units of the echo server's CPU per null round trip.
func (m *measurement) endToEnd() map[string]metric {
	l := m.lat
	cpuPerOp := ratio(micros(m.after.cpu-m.before.cpu), float64(m.ops))
	echoCPU := ratio(micros(m.after.echo-m.before.echo), float64(len(l.echoes)))
	return map[string]metric{
		"submit_qps_x": {l.overSegments(func(s *segment, echo float64) float64 { return s.rate * echo / 1e6 }), "x"},
		"submit_p50_x": {l.overSegments(func(s *segment, echo float64) float64 { return median(s.submits) / echo }), "x"},
		"submit_p95_x": {l.overSegments(func(s *segment, echo float64) float64 { return quantile(s.submits, 0.95) / echo }), "x"},
		"admit_p50_x":  {l.overSegments(func(s *segment, echo float64) float64 { return median(s.admits) / echo }), "x"},
		"cpu_x":        {ratio(cpuPerOp, echoCPU), "x"},
		"rss_peak_mb":  {m.rssMB, "MiB"},
		"setup_s":      {median(m.setups), "s"},
	}
}
