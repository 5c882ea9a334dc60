package main

import (
	"runtime"
	"time"
)

// ratio is a/b, 0 when b is 0: a layer a workload never enters reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf is the median, in microseconds, of pick over the ops it accepts.
func medianOf(ops []opTrace, pick func(o *opTrace) (time.Duration, bool)) float64 {
	var vals []float64
	for i := range ops {
		if d, ok := pick(&ops[i]); ok {
			vals = append(vals, micros(d))
		}
	}
	return median(vals)
}

// perLayer is the --trace 1 metric set. Counts are before/after deltas of
// the daemon's own public surfaces over the daemon-level run; *_us values
// are medians over the traced replay's spans; trace.share_* split the
// replay's summed pipeline time by layer.
func (m *measurement) perLayer(tr *traceReport) map[string]metric {
	out := make(map[string]metric)
	set := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }

	// The daemon-level run: counters of the real program.
	ops, submits := float64(m.ops), float64(len(m.lat.submits))
	sb, sa := m.before.stats, m.after.stats
	prim := func(key string) float64 { return m.after.prim[key] - m.before.prim[key] }
	fol := func(key string) float64 { return m.after.fol[key] - m.before.fol[key] }
	lookups := float64(sa.Cache.Hits+sa.Cache.Misses) - float64(sb.Cache.Hits+sb.Cache.Misses)
	plans := float64(sa.Plans.Hits+sa.Plans.Misses) - float64(sb.Plans.Hits+sb.Plans.Misses)
	frames := prim("disclosure_wal_commit_window_frames_sum")
	windows := prim("disclosure_wal_commit_windows_total")
	checkpoints := prim("disclosure_checkpoint_seconds_count")

	set("server.resp_bytes_per_op", ratio(float64(m.after.bytes-m.before.bytes), ops), "B")
	set("cq.atoms_per_op", ratio(float64(m.atoms), submits), "count")
	set("label.labelings_per_op", ratio(lookups, submits), "count")
	set("label.hit_ratio", ratio(float64(sa.Cache.Hits-sb.Cache.Hits), lookups), "frac")
	set("label.evictions_per_kop", 1000*ratio(float64(sa.Cache.Evictions-sb.Cache.Evictions), ops), "count")
	set("policy.refused_frac", ratio(float64(len(m.lat.refusals)), submits), "frac")
	set("policy.transitions_per_op", ratio(float64(m.transitions), submits), "count")
	set("engine.plan_hit_ratio", ratio(float64(sa.Plans.Hits-sb.Plans.Hits), plans), "frac")
	set("engine.plan_evictions_per_kop", 1000*ratio(float64(sa.Plans.Evictions-sb.Plans.Evictions), ops), "count")
	set("engine.rows_per_answer", ratio(float64(m.rows), float64(len(m.lat.admits))), "count")
	fsyncs := windows
	if m.in.spec.wal.NoSync {
		fsyncs = 0
	}
	set("wal.fsyncs_per_op", ratio(fsyncs, ops), "count")
	set("wal.frames_per_window", ratio(frames, prim("disclosure_wal_commit_window_frames_count")), "count")
	set("wal.frames_per_op", ratio(frames, ops), "count")
	set("wal.log_bytes_per_op", m.frameBytes*ratio(frames, ops), "B")
	set("wal.checkpoints", checkpoints, "count")
	set("wal.checkpoint_s", ratio(prim("disclosure_checkpoint_seconds_sum"), checkpoints), "s")
	set("wal.checkpoint_bytes", m.checkpointBytes, "B")
	set("wal.replay_ops", float64(m.replayed), "count")
	set("wal.replay_us_per_op", ratio(micros(m.recover), float64(m.replayed)), "us")
	set("repl.decide_rpcs_per_op", ratio(fol("disclosure_repl_decide_seconds_count"), submits), "count")
	set("repl.resyncs", fol("disclosure_follower_resyncs_total"), "count")
	set("repl.fail_closed", fol("disclosure_follower_fail_closed_total"), "count")
	set("repl.staleness_p50_ms", 1000*median(m.staleness), "ms")

	// End-to-end numbers only one workload has. BENCHMARK.json's end_to_end
	// list must be printed by every workload, so these ride here, ungated.
	p99s := m.lat.overSegments(func(s *segment, _ float64) float64 { return quantile(s.submits, 0.99) })
	set("e2e.submit_qps", ratio(submits, m.elapsed.Seconds()), "1/s")
	set("e2e.submit_p50_us", median(m.lat.submits), "us")
	set("e2e.submit_p95_us", m.lat.overSegments(func(s *segment, _ float64) float64 { return quantile(s.submits, 0.95) }), "us")
	set("e2e.submit_p99_us", p99s, "us")
	set("e2e.admit_p50_us", median(m.lat.admits), "us")
	set("e2e.echo_p50_us", median(m.lat.echoes), "us")
	set("e2e.cpu_us_per_op", ratio(micros(m.after.cpu-m.before.cpu), ops), "us")
	set("e2e.refuse_p50_us", median(m.lat.refusals), "us")
	set("e2e.load_p50_us", median(m.lat.loads), "us")
	set("e2e.policy_p50_us", median(m.lat.policies), "us")
	set("e2e.recover_s", m.recover.Seconds(), "s")
	set("e2e.wal_bytes_per_op", m.frameBytes*ratio(frames, ops)+m.checkpointBytes*ratio(checkpoints, ops), "B")

	// The traced replay: one span per call into a layer.
	var walked []opTrace
	var rows, loadRows, synced float64
	var evalTime, loadTime, syncTime time.Duration
	var share struct{ server, cq, label, policy, wal, engine, repl, pipeline, roundtrip, transport time.Duration }
	follower := m.in.spec.follower
	var installs []float64
	for _, o := range tr.ops {
		switch o.kind {
		case opLoad:
			loadRows += float64(o.rows)
			loadTime += o.load
			continue
		case opPolicy:
			installs = append(installs, micros(o.inst))
			continue
		}
		walked = append(walked, o)
		rows += float64(o.rows)
		evalTime += o.eval
		syncTime += o.sync
		synced += float64(o.synced)
		transport := max(0, o.roundtrip-o.pipeline())
		share.server += o.decode + o.encode + o.explain
		share.cq += o.parse + o.canon
		share.label += o.label
		share.engine += o.eval
		if follower {
			share.repl += o.decide
		} else {
			share.policy += o.decideRest() - o.commitWait()
			share.wal += o.commitWait()
		}
		share.pipeline += o.pipeline()
		share.roundtrip += o.roundtrip
		share.transport += transport
	}
	us := func(name string, pick func(o *opTrace) (time.Duration, bool)) {
		set(name, medianOf(walked, pick), "us")
	}
	always := func(f func(o *opTrace) time.Duration) func(o *opTrace) (time.Duration, bool) {
		return func(o *opTrace) (time.Duration, bool) { return f(o), true }
	}
	us("server.transport_us", always(func(o *opTrace) time.Duration { return max(0, o.roundtrip-o.pipeline()) }))
	us("server.decode_us", always(func(o *opTrace) time.Duration { return o.decode }))
	us("server.encode_us", always(func(o *opTrace) time.Duration { return o.encode }))
	us("server.explain_us", func(o *opTrace) (time.Duration, bool) { return o.explain, !o.allowed })
	us("cq.parse_us", always(func(o *opTrace) time.Duration { return o.parse }))
	us("cq.canon_us", func(o *opTrace) (time.Duration, bool) { return o.canon, !follower })
	us("label.hit_us", func(o *opTrace) (time.Duration, bool) { return o.hit, !follower })
	us("label.miss_us", func(o *opTrace) (time.Duration, bool) { return o.label, !follower && !o.labelHit })
	us("policy.check_us", func(o *opTrace) (time.Duration, bool) { return o.check, !follower })
	set("policy.install_us", median(installs), "us")
	us("disclosure.decide_us", func(o *opTrace) (time.Duration, bool) { return o.decide, !follower })
	us("disclosure.pipeline_us", always((*opTrace).pipeline))
	us("wal.commit_wait_us", func(o *opTrace) (time.Duration, bool) { return o.commitWait(), !follower })
	us("engine.eval_warm_us", func(o *opTrace) (time.Duration, bool) { return o.eval, o.allowed && o.planHit })
	us("engine.eval_cold_us", func(o *opTrace) (time.Duration, bool) { return o.eval, o.allowed && !o.planHit })
	us("repl.decide_rpc_us", func(o *opTrace) (time.Duration, bool) { return o.decide, follower })
	set("engine.us_per_krow", 1000*ratio(micros(evalTime), rows), "us")
	set("engine.load_us_per_row", ratio(micros(loadTime), loadRows), "us")
	set("engine.bytes_per_row", ratio(float64(tr.graphBytes), float64(tr.graphRows)), "B")
	set("repl.apply_us_per_op", ratio(micros(syncTime), synced), "us")
	set("proc.allocs_per_op", ratio(float64(tr.mallocs), float64(len(tr.ops))), "count")
	set("proc.gc_pause_ms", float64(tr.gcPause)/float64(time.Millisecond), "ms")

	pipeline := float64(share.pipeline)
	set("trace.share_server", ratio(float64(share.server), pipeline), "frac")
	set("trace.share_cq", ratio(float64(share.cq), pipeline), "frac")
	set("trace.share_label", ratio(float64(share.label), pipeline), "frac")
	set("trace.share_policy", ratio(float64(share.policy), pipeline), "frac")
	set("trace.share_wal", ratio(float64(share.wal), pipeline), "frac")
	set("trace.share_engine", ratio(float64(share.engine), pipeline), "frac")
	set("trace.share_repl", ratio(float64(share.repl), pipeline), "frac")
	set("trace.server_frac_of_roundtrip", ratio(float64(share.server+share.transport), float64(share.roundtrip)), "frac")
	set("trace.residual_frac", ratio(float64(share.transport), float64(share.roundtrip)), "frac")
	tracedP50 := medianOf(walked, always(func(o *opTrace) time.Duration { return o.roundtrip }))
	set("trace.overhead_frac", ratio(tracedP50, median(m.lat.submits))-1, "frac")
	set("trace.harness_frac", tr.harness, "frac")
	set("trace.ops", float64(len(tr.ops)), "count")
	set("trace.spans", float64(tr.spans), "count")
	set("env.fsync_us", tr.fsync, "us")
	set("env.nproc", float64(runtime.NumCPU()), "count")
	return out
}
