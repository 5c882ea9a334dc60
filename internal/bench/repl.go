package bench

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	disclosure "repro"
	"repro/internal/fb"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/workload"
)

// ReplConfig configures the replication experiment: one durable primary
// plus a sweep of in-process follower counts, measured on two axes. The
// read axis drives closed-loop explain traffic round-robin across all
// serving nodes — explains never leave the node they hit, so throughput
// should scale with node count against the primary-only baseline. The
// submit axis measures the decision-RPC tax: the same submission stream
// sent once directly to the primary and once through a follower, which
// refuses what its replica already refuses and pays one extra HTTP round
// trip to the primary for every other decision.
type ReplConfig struct {
	// Requests is the number of read requests each client issues per cell.
	Requests int `json:"requests"`
	// SubmitRequests is the number of submissions each client issues in the
	// decision-overhead cells.
	SubmitRequests int `json:"submit_requests"`
	// Clients is the number of concurrent closed-loop clients per cell.
	Clients int `json:"clients"`
	// Followers is the x-axis of the read sweep: follower counts (0 = the
	// single-node baseline, only the primary serves).
	Followers []int `json:"followers"`
	// Users is the size of the synthetic social graph served.
	Users int `json:"users"`
	// MaxAtoms bounds query size, as in Figure 5 (a multiple of 3).
	MaxAtoms int `json:"max_atoms"`
	// Pool is the number of distinct query templates per client.
	Pool int `json:"pool"`
	// Seed makes graphs and all per-client streams reproducible.
	Seed int64 `json:"seed"`
}

// DefaultReplConfig returns a laptop-scale configuration: 32 clients over
// a 300-user graph, follower counts 0 (baseline), 1, 2 and 4.
func DefaultReplConfig() ReplConfig {
	return ReplConfig{
		Requests:       200,
		SubmitRequests: 100,
		Clients:        32,
		Followers:      []int{0, 1, 2, 4},
		Users:          300,
		MaxAtoms:       9,
		Pool:           500,
		Seed:           2013,
	}
}

// ReplPoint is one measured cell of the replication experiment.
type ReplPoint struct {
	// Mode names the cell: "read" cells carry a follower count; the two
	// submit cells are "submit primary" and "submit follower".
	Mode string `json:"mode"`
	// Followers is the follower count of a read cell (nodes = 1 +
	// followers).
	Followers int `json:"followers"`
	// Requests is the total requests across all clients.
	Requests int `json:"requests"`
	// ElapsedSeconds is the wall time of the cell.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ThroughputQPS is Requests / ElapsedSeconds.
	ThroughputQPS float64 `json:"throughput_qps"`
	// Latency percentiles over per-request round-trip times, in
	// milliseconds.
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	LatencyMaxMs float64 `json:"latency_max_ms"`
	// RefusedFrac is the share of a submit cell's submissions that were
	// refused; DecisionRPCsPerSubmission, on the "submit follower" cell, is
	// the follower's decision RPCs over its submissions — 1 − RefusedFrac
	// when every refusal is the in-contact replica's own.
	RefusedFrac               float64 `json:"refused_frac,omitempty"`
	DecisionRPCsPerSubmission float64 `json:"decision_rpcs_per_submission,omitempty"`
}

// ReplReport is the JSON archive of one replication experiment run
// (BENCH_repl.json in CI).
type ReplReport struct {
	Experiment string      `json:"experiment"`
	Config     ReplConfig  `json:"config"`
	Reads      []ReplPoint `json:"reads"`
	// SubmitPrimary and SubmitFollower are the decision-overhead pair: the
	// same submission stream against the primary directly and through one
	// follower (local evaluation + one decision RPC per would-be admit).
	SubmitPrimary  ReplPoint `json:"submit_primary"`
	SubmitFollower ReplPoint `json:"submit_follower"`
	// DecisionOverheadP50Ms is SubmitFollower p50 minus SubmitPrimary p50 —
	// the median per-submission price of primary-consistent decisions.
	DecisionOverheadP50Ms float64 `json:"decision_overhead_p50_ms"`
}

// replCluster is the shared fixture of all cells: one durable primary and
// a set of synced in-process followers.
type replCluster struct {
	dur      *disclosure.Durable
	dir      string
	primary  string   // primary base URL
	fols     []string // follower base URLs
	syncs    []*repl.Follower
	rpcs     *obs.Histogram // fols[0]'s decision RPCs
	shutdown []func()
	httpc    *http.Client
}

func (c *replCluster) close() {
	for i := len(c.shutdown) - 1; i >= 0; i-- {
		c.shutdown[i]()
	}
}

// RunRepl runs the replication experiment over one shared cluster sized
// for the largest follower count.
func RunRepl(cfg ReplConfig) (*ReplReport, error) {
	if cfg.Requests <= 0 || cfg.SubmitRequests <= 0 || cfg.Pool <= 0 || cfg.Clients <= 0 {
		return nil, fmt.Errorf("bench: Requests, SubmitRequests, Clients and Pool must be positive")
	}
	if cfg.Users < 1 {
		return nil, fmt.Errorf("bench: Users must be at least 1")
	}
	if cfg.MaxAtoms < 3 || cfg.MaxAtoms%3 != 0 {
		return nil, fmt.Errorf("bench: MaxAtoms %d is not a positive multiple of 3", cfg.MaxAtoms)
	}
	if len(cfg.Followers) == 0 {
		return nil, fmt.Errorf("bench: at least one follower count is required")
	}
	maxFollowers := 0
	for _, f := range cfg.Followers {
		if f < 0 {
			return nil, fmt.Errorf("bench: negative follower count %d", f)
		}
		if f > maxFollowers {
			maxFollowers = f
		}
	}
	if maxFollowers == 0 {
		maxFollowers = 1 // the submit-overhead pair always needs one
	}

	cluster, pools, err := buildReplCluster(cfg, maxFollowers)
	if err != nil {
		return nil, err
	}
	defer cluster.close()

	report := &ReplReport{Experiment: "repl", Config: cfg}
	for _, followers := range cfg.Followers {
		nodes := append([]string{cluster.primary}, cluster.fols[:followers]...)
		p, err := replReadCell(cfg, nodes, pools, cluster.httpc)
		if err != nil {
			return nil, fmt.Errorf("bench: repl read (followers=%d): %w", followers, err)
		}
		p.Followers = followers
		report.Reads = append(report.Reads, *p)
	}

	pp, err := replSubmitCell(cfg, cluster.primary, "submit primary", pools, cluster.httpc)
	if err != nil {
		return nil, fmt.Errorf("bench: repl submit primary: %w", err)
	}
	report.SubmitPrimary = *pp
	// Re-sync so follower evaluation runs against the post-submit state.
	for _, f := range cluster.syncs {
		if err := f.SyncOnce(); err != nil {
			return nil, fmt.Errorf("bench: repl re-sync: %w", err)
		}
	}
	rpcs := cluster.rpcs.Count()
	fp, err := replSubmitCell(cfg, cluster.fols[0], "submit follower", pools, cluster.httpc)
	if err != nil {
		return nil, fmt.Errorf("bench: repl submit follower: %w", err)
	}
	fp.DecisionRPCsPerSubmission = float64(cluster.rpcs.Count()-rpcs) / float64(fp.Requests)
	report.SubmitFollower = *fp
	report.DecisionOverheadP50Ms = fp.LatencyP50Ms - pp.LatencyP50Ms
	return report, nil
}

// buildReplCluster opens a durable primary over a populated graph, installs
// one principal per client, starts the primary server with its replication
// surface, and brings up maxFollowers synced followers. It also pre-renders
// the per-client template pools.
func buildReplCluster(cfg ReplConfig, maxFollowers int) (*replCluster, [][]string, error) {
	s := fb.Schema()
	views, err := fb.SecurityViews(s)
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "disclosure-repl-bench-")
	if err != nil {
		return nil, nil, err
	}
	cluster := &replCluster{dir: dir}
	cluster.shutdown = append(cluster.shutdown, func() { os.RemoveAll(dir) })
	ok := false
	defer func() {
		if !ok {
			cluster.close()
		}
	}()

	// NoSync: the experiment measures serving and the decision RPC, not
	// fsync (the wal and shard experiments own that axis).
	dur, err := disclosure.OpenDurable(dir, disclosure.DurabilityOptions{NoSync: true}, s, views...)
	if err != nil {
		return nil, nil, err
	}
	cluster.dur = dur
	cluster.shutdown = append(cluster.shutdown, func() { dur.Close() })
	sys := dur.System()
	if err := sys.LoadBatch(func(ld *disclosure.Loader) error {
		return fb.GenerateGraph(ld, cfg.Users, cfg.Seed)
	}); err != nil {
		return nil, nil, err
	}
	allViews := make([]string, len(views))
	for i, v := range views {
		allViews[i] = v.Name
	}
	for i := 0; i < cfg.Clients; i++ {
		name := fmt.Sprintf("app-%d", i)
		if err := sys.SetPolicy(name, map[string][]string{"all": allViews}); err != nil {
			return nil, nil, err
		}
		if err := dur.LogToken(name, fmt.Sprintf("tok-%d", i)); err != nil {
			return nil, nil, err
		}
	}

	const adminToken = "bench-admin"
	prim, err := repl.NewPrimary(dur, adminToken)
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.New(sys, server.Options{
		AdminToken: adminToken,
		Journal:    dur,
		Tokens:     dur.Tokens(),
		Repl:       prim.Handler(),
	})
	if err != nil {
		return nil, nil, err
	}
	cluster.primary, err = serveOn(cluster, srv.Serve, srv.Shutdown)
	if err != nil {
		return nil, nil, err
	}

	transport := &http.Transport{MaxIdleConns: 4 * cfg.Clients, MaxIdleConnsPerHost: 4 * cfg.Clients}
	cluster.shutdown = append(cluster.shutdown, transport.CloseIdleConnections)
	cluster.httpc = &http.Client{Transport: transport, Timeout: 60 * time.Second}

	for i := 0; i < maxFollowers; i++ {
		reg := obs.NewRegistry()
		if i == 0 {
			cluster.rpcs = reg.Histogram("disclosure_repl_decide_seconds", "", obs.LatencyBuckets)
		}
		fol, err := repl.NewFollower(repl.FollowerOptions{
			Primary:  cluster.primary,
			Token:    adminToken,
			HTTP:     cluster.httpc,
			Interval: time.Hour, // synced explicitly between phases
			Metrics:  reg,
		})
		if err != nil {
			return nil, nil, err
		}
		if err := fol.SyncOnce(); err != nil {
			return nil, nil, err
		}
		fsrv := server.NewFollower(fol, server.FollowerOptions{})
		base, err := serveOn(cluster, fsrv.Serve, fsrv.Shutdown)
		if err != nil {
			return nil, nil, err
		}
		cluster.fols = append(cluster.fols, base)
		cluster.syncs = append(cluster.syncs, fol)
	}

	baseOpts := workload.Options{
		Seed:                     cfg.Seed,
		MaxSubqueries:            cfg.MaxAtoms / 3,
		FriendScopesMarkIsFriend: true,
	}
	pools := make([][]string, cfg.Clients)
	for i := range pools {
		g, err := workload.New(s, baseOpts.ForClient(i))
		if err != nil {
			return nil, nil, err
		}
		pool := make([]string, cfg.Pool)
		for j, q := range g.Batch(cfg.Pool) {
			pool[j] = q.String()
		}
		pools[i] = pool
	}
	ok = true
	return cluster, pools, nil
}

// serveOn starts one server on an ephemeral loopback port and registers
// its graceful shutdown with the cluster, returning the base URL.
func serveOn(cluster *replCluster, serve func(net.Listener) error, shutdown func(context.Context) error) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan error, 1)
	go func() { done <- serve(l) }()
	cluster.shutdown = append(cluster.shutdown, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = shutdown(ctx)
		<-done
	})
	return "http://" + l.Addr().String(), nil
}

// replRun drives one closed-loop cell: each client issues requests through
// fn and the per-request latencies are aggregated into a point.
func replRun(cfg ReplConfig, mode string, requests int, fn func(client, r int) error) (*ReplPoint, error) {
	latencies := make([][]time.Duration, cfg.Clients)
	errs := make([]error, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, requests)
			for r := 0; r < requests; r++ {
				t0 := time.Now()
				if err := fn(c, r); err != nil {
					errs[c] = err
					return
				}
				lat = append(lat, time.Since(t0))
			}
			latencies[c] = lat
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var all []time.Duration
	for _, lat := range latencies {
		all = append(all, lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	total := cfg.Clients * requests
	return &ReplPoint{
		Mode:           mode,
		Requests:       total,
		ElapsedSeconds: elapsed,
		ThroughputQPS:  float64(total) / elapsed,
		LatencyP50Ms:   percentileMs(all, 0.50),
		LatencyP95Ms:   percentileMs(all, 0.95),
		LatencyP99Ms:   percentileMs(all, 0.99),
		LatencyMaxMs:   percentileMs(all, 1.00),
	}, nil
}

// replReadCell measures explain throughput with clients spread round-robin
// across the given serving nodes.
func replReadCell(cfg ReplConfig, nodes []string, pools [][]string, httpc *http.Client) (*ReplPoint, error) {
	clients := make([]*server.Client, cfg.Clients)
	for c := range clients {
		clients[c] = &server.Client{
			BaseURL: nodes[c%len(nodes)],
			Token:   fmt.Sprintf("tok-%d", c),
			HTTP:    httpc,
		}
	}
	return replRun(cfg, "read", cfg.Requests, func(c, r int) error {
		pool := pools[c]
		_, err := clients[c].Explain(pool[r%len(pool)])
		return err
	})
}

// replSubmitCell measures submission throughput and latency against one
// node — the primary directly, or one follower whose every would-be admit
// is an RPC back to the primary.
func replSubmitCell(cfg ReplConfig, base, mode string, pools [][]string, httpc *http.Client) (*ReplPoint, error) {
	clients := make([]*server.Client, cfg.Clients)
	for c := range clients {
		clients[c] = &server.Client{BaseURL: base, Token: fmt.Sprintf("tok-%d", c), HTTP: httpc}
	}
	var refused atomic.Int64
	p, err := replRun(cfg, mode, cfg.SubmitRequests, func(c, r int) error {
		pool := pools[c]
		res, err := clients[c].Submit(pool[r%len(pool)])
		if err != nil {
			return err
		}
		if res.Error != "" {
			return fmt.Errorf("submission error: %s", res.Error)
		}
		if !res.Allowed {
			refused.Add(1)
		}
		return nil
	})
	if err == nil {
		p.RefusedFrac = float64(refused.Load()) / float64(p.Requests)
	}
	return p, err
}

// FormatRepl renders a replication report as an aligned text table.
func FormatRepl(r *ReplReport) string {
	out := fmt.Sprintf("Replication — read scaling and decision-RPC overhead (%d-user graph, %d clients)\n",
		r.Config.Users, r.Config.Clients)
	out += fmt.Sprintf("%-16s %6s %10s %12s %10s %10s %10s\n",
		"cell", "nodes", "requests", "qps", "p50 ms", "p95 ms", "p99 ms")
	row := func(name string, nodes int, p ReplPoint) string {
		return fmt.Sprintf("%-16s %6d %10d %12.0f %10.3f %10.3f %10.3f\n",
			name, nodes, p.Requests, p.ThroughputQPS, p.LatencyP50Ms, p.LatencyP95Ms, p.LatencyP99Ms)
	}
	for _, p := range r.Reads {
		out += row(fmt.Sprintf("read f=%d", p.Followers), 1+p.Followers, p)
	}
	out += row("submit primary", 1, r.SubmitPrimary)
	out += row("submit follower", 2, r.SubmitFollower)
	out += fmt.Sprintf("\ndecision-RPC overhead at p50: %.3f ms/submission\n", r.DecisionOverheadP50Ms)
	out += fmt.Sprintf("submit follower: %.3f decision RPCs/submission, %.3f of submissions refused\n",
		r.SubmitFollower.DecisionRPCsPerSubmission, r.SubmitFollower.RefusedFrac)
	return out
}
