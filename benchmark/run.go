package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// opKind is what one op of a client's stream asks the daemon to do.
type opKind uint8

const (
	opSubmit opKind = iota // POST /v1/submit, one query
	opLoad                 // POST /v1/load, loadRows rows
	opPolicy               // PUT /v1/policy/{principal}, resets the session
	opEcho                 // null round trip to the echo server (see echo.go)
)

// echoEvery makes every echoEvery-th timed op of a client a null round
// trip. A segment's median null round trip is the denominator of every
// gated latency, so its sampling noise is theirs: at every 8th op the
// slowest workload (a few hundred ops per second) spread 7 % from run to
// run, at every 4th 5 %. The daemon still sees a closed loop, with each
// client away for one short op in four.
const echoEvery = 4

// rec is the outcome of one op, recorded in the timed loop and judged
// against the oracle afterwards so that checking costs the run nothing.
type rec struct {
	// end is the completion time since the phase began; lat the round trip.
	end, lat time.Duration
	kind     opKind
	ok       bool // transport succeeded and the status was 200
	allowed  bool
	// idx is the pool index of a submit, the load number of a load.
	idx  int
	rows int
	// kept is the answer itself, retained when the phase asks for it.
	kept [][]string
}

// client is one closed-loop app: one principal, one keep-alive connection,
// one op outstanding at a time.
type client struct {
	c      int
	in     *inputs
	submit *server.Client // the principal's token, against the target node
	admin  *server.Client // the admin token, against the primary
	net    *countingTransport
	echo   string // the echo server's base URL
	pool   []*template
	model  *model
	// next is the pool position and ops the count of timed ops issued; both
	// continue across phases so the stream is one sequence.
	next, ops, loads int
	failed, checked  int
	firstErr         error
	// lastRows is the last answer size seen per template where loads make
	// answers grow.
	lastRows []int
}

// newClients connects in.clients apps to the deployment.
func newClients(in *inputs, d *deployment, echo string) []*client {
	cls := make([]*client, in.clients)
	for c := range cls {
		hc, ct := newHTTPClient()
		cls[c] = &client{
			c: c, in: in, net: ct, echo: echo, pool: in.pools[c],
			submit:   &server.Client{BaseURL: d.target(), Token: token(c), HTTP: hc},
			admin:    &server.Client{BaseURL: d.primary.base, Token: adminToken, HTTP: hc},
			model:    newModel(len(in.partNames), len(in.pools[c])),
			lastRows: make([]int, len(in.pools[c])),
		}
	}
	return cls
}

// fail counts one mismatch against the oracle and keeps the first for the
// report.
func (cl *client) fail(format string, args ...any) {
	cl.failed++
	if cl.firstErr == nil {
		cl.firstErr = fmt.Errorf("client %d: "+format, append([]any{cl.c}, args...)...)
	}
}

// step issues the client's next timed op and records its outcome: a
// submit, except that every loadEvery-th op is a bulk load, every
// policyEvery-th a policy re-installation and every echoEvery-th a null
// round trip.
func (cl *client) step(start time.Time, keep bool) rec {
	sp := cl.in.spec
	r := rec{kind: opSubmit}
	cl.ops++
	switch {
	case sp.loadEvery > 0 && cl.ops%sp.loadEvery == 0:
		r.kind = opLoad
	case sp.policyEvery > 0 && cl.ops%sp.policyEvery == 0:
		r.kind = opPolicy
	case cl.ops%echoEvery == 0:
		r.kind = opEcho
	}
	switch r.kind {
	case opLoad:
		r.idx = cl.loads
		cl.loads++
		rows := cl.in.loadBatch(cl.c, r.idx)
		t0 := time.Now()
		err := cl.admin.Load(rows)
		r.lat, r.ok = time.Since(t0), err == nil
	case opPolicy:
		t0 := time.Now()
		err := cl.admin.SetPolicy(principal(cl.c), token(cl.c), cl.in.parts)
		r.lat, r.ok = time.Since(t0), err == nil
	case opEcho:
		last := cl.pool[(cl.next+len(cl.pool)-1)%len(cl.pool)]
		t0 := time.Now()
		err := echoOnce(cl.submit.HTTP, cl.echo, server.SubmitRequest{Query: last.src})
		r.lat, r.ok = time.Since(t0), err == nil
	default:
		r.idx = cl.next
		cl.next = (cl.next + 1) % len(cl.pool)
		t0 := time.Now()
		res, err := cl.submit.Submit(cl.pool[r.idx].src)
		r.lat = time.Since(t0)
		r.ok = err == nil && res.Error == ""
		r.allowed, r.rows = res.Allowed, len(res.Rows)
		if keep {
			r.kept = res.Rows
		}
	}
	r.end = time.Since(start)
	return r
}

// passBatch is how many queries one request of a pass carries. Batches keep
// set-up from being a thousand loopback round trips, whose cost follows the
// host's mood more than the program's; they stay small because a batch of
// large answers is one large response, and the daemon's peak memory would
// then be the warm-up's and not the traffic's.
const passBatch = 10

// pass has every client submit the next count templates of its pool (the
// whole pool when count is 0), in pool order, as batch requests: the
// warm-up before the timed phase and the verification after it. A batch is
// decided in slice order, so the monitor sees the same sequence single
// submits would give it. Every keepEvery-th answer is kept for a full
// comparison.
func pass(cls []*client, count int) [][]rec {
	out := make([][]rec, len(cls))
	var wg sync.WaitGroup
	for i, cl := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total := count
			if total == 0 {
				total = len(cl.pool)
			}
			recs := make([]rec, 0, total)
			for len(recs) < total {
				first := cl.next
				n := min(passBatch, total-len(recs), len(cl.pool)-first)
				srcs := make([]string, n)
				for j := range srcs {
					srcs[j] = cl.pool[first+j].src
				}
				cl.next = (first + n) % len(cl.pool)
				results, err := cl.submit.SubmitBatch(srcs)
				for j := range srcs {
					r := rec{kind: opSubmit, idx: first + j}
					if err == nil && j < len(results) {
						res := results[j]
						r.ok, r.allowed, r.rows = res.Error == "", res.Allowed, len(res.Rows)
						if len(recs)%cl.keepEvery() == 0 {
							r.kept = res.Rows
						}
					}
					recs = append(recs, r)
				}
			}
			out[i] = recs
		}()
	}
	wg.Wait()
	return out
}

// keepEvery is the stride of full answer comparisons: every answer of a
// pass over a warm pool, and every 16th op of a stream of never-repeated
// templates, where no pass can cover the pool and each comparison costs a
// reference evaluation.
func (cl *client) keepEvery() int {
	if cl.in.spec.cold {
		return 16
	}
	return 1
}

// timedPhase drives the closed loop for d: every client issues its next op
// as soon as the previous one completed, until the deadline.
func timedPhase(cls []*client, d time.Duration) (recs [][]rec, elapsed time.Duration) {
	recs = make([][]rec, len(cls))
	start := time.Now()
	var wg sync.WaitGroup
	for i, cl := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]rec, 0, 1<<14)
			for n := 0; time.Since(start) < d; n++ {
				out = append(out, cl.step(start, cl.in.spec.cold && n%cl.keepEvery() == 0))
			}
			recs[i] = out
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// checkMode says how much of an answer a phase's records are checked for.
type checkMode int

const (
	checkExact   checkMode = iota // answers equal the reference answer
	checkSampled                  // decisions always, answers where kept
	checkGrowing                  // answers never shrink (loads interleave)
)

// check replays one client's records, in issue order, through the monitor
// model and the reference answers.
func (cl *client) check(recs []rec, mode checkMode) {
	in := cl.in
	for _, r := range recs {
		cl.checked++
		if !r.ok {
			cl.fail("op kind %d failed in transport or with a non-200 status", r.kind)
			continue
		}
		switch r.kind {
		case opPolicy:
			cl.model.reset()
			continue
		case opLoad, opEcho:
			continue
		}
		t := cl.pool[r.idx]
		if err := in.label(t); err != nil {
			cl.fail("%v", err)
			continue
		}
		if want := cl.model.submit(r.idx, t); want != r.allowed {
			cl.fail("%s: daemon allowed=%v, sequential model says %v", t.src, r.allowed, want)
			continue
		}
		if !r.allowed {
			continue
		}
		switch {
		case mode == checkGrowing:
			if r.rows < cl.lastRows[r.idx] {
				cl.fail("%s: answer shrank from %d to %d rows", t.src, cl.lastRows[r.idx], r.rows)
			}
			cl.lastRows[r.idx] = r.rows
		case mode == checkExact || r.kept != nil:
			if err := in.reference(t); err != nil {
				cl.fail("%v", err)
				continue
			}
			if r.rows != len(t.rows) || (r.kept != nil && !slices.Equal(rowKeys(r.kept), t.rows)) {
				cl.fail("%s: %d rows differ from EvalReference's %d", t.src, r.rows, len(t.rows))
			}
			cl.lastRows[r.idx] = r.rows
		}
	}
}

// checkAll runs check for every client concurrently; clients share nothing
// but the oracle's read-only database.
func checkAll(cls []*client, recs [][]rec, mode checkMode) {
	var wg sync.WaitGroup
	for i, cl := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.check(recs[i], mode)
		}()
	}
	wg.Wait()
}

// setup brings a deployment from exec to ready-for-traffic: graph loaded
// (the daemon's boot), one policy and token per client installed, the
// follower synced, one warm-up pass over the pools. It returns the
// deployment, its connected clients, the warm-up records (checked later,
// outside the setup clock) and the elapsed time.
func setup(in *inputs, bin, work, echo string) (*deployment, []*client, [][]rec, time.Duration, error) {
	d, err := deploy(in.spec, bin, work)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	admin := &server.Client{BaseURL: d.primary.base, Token: adminToken}
	for c := 0; c < in.clients; c++ {
		if err := admin.SetPolicy(principal(c), token(c), in.parts); err != nil {
			d.close(syscall.SIGKILL)
			return nil, nil, nil, 0, fmt.Errorf("installing policy: %w", err)
		}
	}
	if in.spec.follower {
		if err := d.follow(); err != nil {
			d.close(syscall.SIGKILL)
			return nil, nil, nil, 0, err
		}
	}
	cls := newClients(in, d, echo)
	warm := pass(cls, in.spec.prefill)
	return d, cls, warm, time.Since(d.primary.execAt), nil
}

// segments is how many equal stretches of time the timed phase is cut into.
// Every gated latency metric is computed inside each segment, relative to
// the null round trips of the same segment, and reported as the mean of the
// segments left once the lowest and the highest are set aside: a
// disturbance of a second or two (a checkpoint rotation, a GC cycle, a
// noisy neighbour) then moves one segment, not the number.
const segments = 5

// segment holds one stretch's latency samples, in microseconds.
type segment struct {
	submits, admits, refusals, echoes []float64
	// rate is the closed loop's submit throughput in 1/s had the clients
	// issued nothing but submits: the sum over clients of submits divided
	// by the time spent in them.
	rate float64
}

// latencies is the timed phase's samples: by segment for the gated
// metrics, and whole-run for the absolute numbers.
type latencies struct {
	segs                                               []segment
	submits, admits, refusals, loads, policies, echoes []float64
}

// collect sorts the timed records into segments by completion time.
func collect(recs [][]rec, dur time.Duration) latencies {
	l := latencies{segs: make([]segment, segments)}
	for _, rs := range recs {
		n := make([]float64, segments)
		busy := make([]time.Duration, segments)
		for _, r := range rs {
			us := micros(r.lat)
			sg := min(int(int64(r.end)*segments/int64(dur)), segments-1)
			seg := &l.segs[sg]
			switch r.kind {
			case opLoad:
				l.loads = append(l.loads, us)
			case opPolicy:
				l.policies = append(l.policies, us)
			case opEcho:
				seg.echoes = append(seg.echoes, us)
				l.echoes = append(l.echoes, us)
			default:
				n[sg]++
				busy[sg] += r.lat
				seg.submits = append(seg.submits, us)
				l.submits = append(l.submits, us)
				if r.allowed {
					seg.admits = append(seg.admits, us)
					l.admits = append(l.admits, us)
				} else {
					seg.refusals = append(seg.refusals, us)
					l.refusals = append(l.refusals, us)
				}
			}
		}
		for sg := range n {
			if busy[sg] > 0 {
				l.segs[sg].rate += n[sg] / busy[sg].Seconds()
			}
		}
	}
	return l
}

// overSegments is the mean of f over the segments once its lowest and its
// highest value are set aside (robust like the median of five, steadier
// than it), skipping segments without null round trips to relate to.
func (l latencies) overSegments(f func(s *segment, echo float64) float64) float64 {
	var vals []float64
	for i := range l.segs {
		s := &l.segs[i]
		if len(s.echoes) == 0 || len(s.submits) == 0 {
			continue
		}
		vals = append(vals, f(s, median(s.echoes)))
	}
	sort.Float64s(vals)
	if len(vals) > 2 {
		vals = vals[1 : len(vals)-1]
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return ratio(sum, float64(len(vals)))
}
