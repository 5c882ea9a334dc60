// Command disclosured runs the networked reference monitor: an HTTP/JSON
// service exposing submit / explain / policy / load / stats over one
// disclosure.System — the paper's Figure-2 platform as a standalone
// process third-party apps talk to.
//
// Usage:
//
//	disclosured -admin-token s3cret [-addr :8080] [-preset facebook -users 300]
//	disclosured -admin-token s3cret -config deployment.json
//	disclosured -admin-token s3cret -preset facebook -data-dir /var/lib/disclosured
//
// With -preset facebook the server starts over the Section-7 Facebook
// schema and security-view catalog, optionally pre-populated with a
// deterministic synthetic social graph of -users users. With -config it
// starts from an internal/store configuration file (schema, views and
// per-principal policies); principals from the file still need submission
// tokens installed via PUT /v1/policy/{principal}.
//
// With -data-dir the deployment is durable: every state-changing operation
// is write-ahead logged under the directory, each log checkpoints itself
// every -checkpoint-ops logged records and on graceful shutdown, and a
// restart recovers rows, policies, submission tokens and each principal's
// cumulative disclosure state — a recovered monitor keeps refusing exactly
// what it refused before the crash. There are two logs: a meta log for
// rows and bulk loads, and one data log for every per-principal record,
// in which concurrent commits coalesce into shared fsync windows. A
// directory written with more than one data shard is refused. -shards is
// deprecated and accepts only 0 or 1. On a recovered directory the
// -preset/-config deployment must match the stored configuration; its
// initial data and policies are NOT re-applied (the recovered state
// wins). See docs/OPERATIONS.md for the operational procedures.
//
// With -follow the process runs as a read follower of another durable
// disclosured: it bootstraps an in-memory replica from the primary's
// checkpoints, tails the primary's write-ahead log over HTTP (poll cadence
// -repl-poll), and serves /v1/submit, /v1/explain and /v1/stats against
// the replica. Answer rows, explanations and stats are bounded-stale
// (every data response carries an X-Disclosure-Staleness header;
// -max-lag gates reads with 503 past the bound). A submission the replica's
// own session already refuses is refused there, while the follower's sync
// loop is in contact with the primary; one the session admits without
// moving it is admitted there, while the replica holds the read lease of
// two -repl-poll intervals (at most 2 s) every pull asks the primary for;
// every other one is decided by the primary over the decision RPC, so
// cumulative disclosure stays primary-consistent no matter how far the
// follower lags. -admin-token must be the primary's admin token (it
// authenticates the replication stream); a follower holds no disk state
// and rebuilds its replica from fresh checkpoints on restart.
//
// A follower started with -data-dir is promotable: POST /v1/repl/promote
// (admin token) drains replication as far as the old primary is still
// reachable, materializes the replica into the directory under the next
// decision epoch, and flips the process into a full primary on the same
// listener. The new epoch fences the old primary — every decision RPC,
// tail fetch or submit it receives from the new epoch is refused with a
// structured 409 and permanently marks it fenced — so a deposed primary
// that comes back can never admit another query. On the primary,
// -lease-ttl adds the complementary guarantee for total partitions: a
// primary that hears from no follower for the TTL refuses decisions with
// 503 until contact resumes, so an operator who waits one TTL before
// promoting knows the old primary is not admitting behind the partition.
// A follower's -lease-ttl arms the same lease on the node it is promoted
// to. See docs/OPERATIONS.md "Failover" for the runbook.
//
// Both roles are observable in production: GET /metrics serves the
// Prometheus text exposition (admin-token authenticated on the primary,
// replication-token on a follower) with per-stage submission latency
// histograms, WAL group-commit metrics and — on a follower — the replica
// staleness gauge; -pprof-addr serves net/http/pprof on a side listener;
// -audit-log appends a structured JSONL record for every refusal, every
// submission error and (with -slow-query) every slow admitted submission.
// See ARCHITECTURE.md "Observability" and docs/OPERATIONS.md "Monitoring".
//
// The server shuts down gracefully on SIGINT/SIGTERM: the listener closes
// at once, in-flight requests get -shutdown-timeout to finish, and a final
// checkpoint is taken. See ARCHITECTURE.md for a curl walkthrough of the
// API and the recovery sequence, and its "Replication" section for the
// primary/follower design.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	disclosure "repro"
	"repro/internal/fb"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	adminToken := flag.String("admin-token", "", "bearer token for the policy and load endpoints (required)")
	preset := flag.String("preset", "", "built-in deployment to start from: facebook")
	configPath := flag.String("config", "", "store configuration file (schema, views, policies)")
	users := flag.Int("users", 0, "facebook preset: populate a synthetic social graph of this many users")
	seed := flag.Int64("seed", 2013, "facebook preset: graph generator seed")
	maxBytes := flag.Int64("max-request-bytes", server.DefaultMaxRequestBytes, "request-body size limit")
	maxBatch := flag.Int("max-batch", server.DefaultMaxBatch, "queries per submit request limit")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	dataDir := flag.String("data-dir", "", "durable state directory (write-ahead log + checkpoints); empty runs in-memory")
	walNoSync := flag.Bool("wal-no-sync", false, "skip the per-operation fsync of the write-ahead log (survives process crashes, may lose the tail on power loss)")
	shards := flag.Int("shards", 0, "deprecated: accepts only 0 or 1 (a deployment has one data log)")
	checkpointOps := flag.Int("checkpoint-ops", 50000, "logged operations after which a log checkpoints just itself (0: checkpoint only at first boot and at graceful shutdown)")
	follow := flag.String("follow", "", "run as a read follower of the primary at this base URL (e.g. http://primary:8080); -admin-token must be the primary's admin token")
	maxLag := flag.Duration("max-lag", 0, "follower mode: refuse submit/explain with 503 while the replica's staleness exceeds this bound (0 serves at any lag)")
	replPoll := flag.Duration("repl-poll", 250*time.Millisecond, "follower mode: primary poll cadence")
	leaseTTL := flag.Duration("lease-ttl", 0, "primary: refuse decisions with 503 after this long without follower contact (0 disables); follower: log promotion eligibility after this long without primary contact, and arm the same lease on the promoted node")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this side address (e.g. localhost:6060); empty disables profiling")
	auditPath := flag.String("audit-log", "", "append structured JSONL decision audit records (refusals, errors, slow submissions) to this file")
	slowQuery := flag.Duration("slow-query", 0, "with -audit-log, also record admitted submissions at least this slow (0 records only refusals and errors)")
	flag.Parse()

	if *adminToken == "" {
		fatal(fmt.Errorf("-admin-token is required"))
	}
	if *shards != 0 && *shards != 1 {
		fatal(fmt.Errorf("-shards %d: a deployment has exactly one data log, so -shards accepts only 0 or 1 (deprecated)", *shards))
	}
	if err := checkLease(*leaseTTL, *follow != "", *dataDir); err != nil {
		fatal(err)
	}
	log.Printf("disclosured: %s", obs.ReadBuildInfo())
	startPprof(*pprofAddr)
	audit, err := openAudit(*auditPath)
	if err != nil {
		fatal(err)
	}
	defer audit.Close()
	// One value for both roles: a promoted follower carries -lease-ttl too.
	durability := disclosure.DurabilityOptions{NoSync: *walNoSync, Shards: *shards, CheckpointOps: *checkpointOps, LeaseTTL: *leaseTTL}

	// Either role is a node: a Server, the durable deployment this process
	// must checkpoint and close (the primary's; a promoted follower's
	// belongs to its Server), and the role's background loops.
	var n node
	if *follow != "" {
		if *preset != "" || *configPath != "" {
			fatal(fmt.Errorf("-follow takes its deployment from the primary; drop -preset/-config"))
		}
		n = followerNode(*follow, *adminToken, *replPoll, *leaseTTL, audit, *slowQuery, server.FollowerOptions{
			MaxRequestBytes: *maxBytes,
			MaxBatch:        *maxBatch,
			MaxLag:          *maxLag,
			AdminToken:      *adminToken,
			// A follower holds no disk state while following; -data-dir
			// names the directory a promotion would materialize the replica
			// into (it must not already hold a deployment).
			PromoteDir:        *dataDir,
			PromoteDurability: durability,
		})
	} else {
		if (*preset == "") == (*configPath == "") {
			fatal(fmt.Errorf("set exactly one of -preset or -config"))
		}
		dep, err := buildDeployment(*preset, *configPath, *users, *seed)
		if err != nil {
			fatal(err)
		}
		n = primaryNode(dep, *dataDir, durability, audit, *slowQuery, server.Options{
			AdminToken:      *adminToken,
			MaxRequestBytes: *maxBytes,
			MaxBatch:        *maxBatch,
		})
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("disclosured: serving on %s (%s)", l.Addr(), n.desc)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for _, loop := range n.loops {
		go loop(ctx)
	}
	done := make(chan error, 1)
	go func() { done <- n.srv.Serve(l) }()

	select {
	case err := <-done:
		fatal(err)
	case <-ctx.Done():
	}
	log.Printf("disclosured: shutting down (grace %s)", *shutdownTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := n.srv.Shutdown(shutdownCtx); err != nil {
		fatal(err)
	}
	if err := <-done; err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	if n.dur != nil {
		// Final checkpoint after the last request drained, so the next
		// boot recovers without replaying this run's log.
		if err := n.dur.Checkpoint(); err != nil {
			log.Printf("disclosured: shutdown checkpoint failed: %v", err)
		}
		if err := n.dur.Close(); err != nil {
			log.Printf("disclosured: closing log: %v", err)
		}
	}
	log.Printf("disclosured: stopped")
}

// node is one assembled role, ready for main's serve loop.
type node struct {
	srv   *server.Server
	dur   *disclosure.Durable
	loops []func(context.Context)
	desc  string
}

// primaryNode opens (or recovers) the deployment and wires the serving
// layer over it; with -data-dir that includes the replication surface
// followers bootstrap and tail from.
func primaryNode(dep *deployment, dataDir string, durability disclosure.DurabilityOptions, audit *obs.AuditLog, slowQuery time.Duration, opts server.Options) node {
	var n node
	var sys *disclosure.System
	var err error
	if dataDir != "" {
		n.dur, err = disclosure.OpenDurable(dataDir, durability, dep.schema, dep.views...)
		if err != nil {
			fatal(err)
		}
		sys = n.dur.System()
	} else if sys, err = disclosure.NewSystem(dep.schema, dep.views...); err != nil {
		fatal(err)
	}
	dur := n.dur
	if dur != nil && dur.Recovered() {
		log.Printf("disclosured: recovered %s: generation %d, %d logged operations replayed, %d principals",
			dataDir, dur.Generation(), dur.Replayed(), sys.Principals())
	} else {
		if err := dep.seed(sys); err != nil {
			fatal(err)
		}
		if dur != nil {
			// Checkpoint the seeded state so the next boot loads it
			// directly instead of replaying the bootstrap log.
			if err := dur.Checkpoint(); err != nil {
				fatal(err)
			}
			log.Printf("disclosured: initialized %s (generation %d)", dataDir, dur.Generation())
		}
	}
	sys.SetAudit(audit, slowQuery)

	var p *repl.Primary
	if dur != nil {
		if p, err = repl.NewPrimary(dur, opts.AdminToken); err != nil {
			fatal(err)
		}
		if lease := dur.Lease(); lease != nil {
			n.loops = append(n.loops, func(ctx context.Context) { watchLease(ctx, lease) })
		}
		opts.Repl = p.Handler()
		if by := dur.FencedBy(); by != 0 {
			log.Printf("disclosured: WARNING: this deployment is FENCED (epoch %d superseded by %d): it will refuse all decisions; rejoin the new primary as a follower instead", dur.Epoch(), by)
		} else {
			log.Printf("disclosured: decision epoch %d", dur.Epoch())
		}
	}
	if n.srv, err = server.New(sys, opts); err != nil {
		fatal(err)
	}
	if p != nil {
		p.RegisterMetrics(n.srv.Metrics())
	}
	n.desc = fmt.Sprintf("%d principals installed", sys.Principals())
	return n
}

// checkLease validates -lease-ttl for the role: zero disables the lease,
// a negative TTL is refused rather than read as "no lease" (that would drop
// the split-brain guard without a word), and an in-memory primary has no
// replication surface to renew one.
func checkLease(ttl time.Duration, follower bool, dataDir string) error {
	switch {
	case ttl < 0:
		return fmt.Errorf("-lease-ttl %s is negative; 0 disables the lease", ttl)
	case ttl > 0 && !follower && dataDir == "":
		return fmt.Errorf("-lease-ttl needs -data-dir: an in-memory deployment has no replication surface to renew the lease")
	}
	return nil
}

// watchTTL polls healthy every quarter TTL until ctx is done and reports
// each change of its answer (it starts out healthy) read before then — the
// loop behind both roles' lease logging. The lease itself is enforced per
// decision; this only makes its state visible in the daemon log.
func watchTTL(ctx context.Context, ttl time.Duration, healthy func() bool, report func(healthy bool)) {
	was := true
	t := time.NewTicker(max(ttl/4, 250*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if h := healthy(); h != was && ctx.Err() == nil {
				was = h
				report(h)
			}
		}
	}
}

// watchLease logs that the decision lease is armed, then its expiry (the
// node stopped admitting — partitioned from every follower) and renewal (a
// follower reconnected): a booted primary's from the start, a promoted one's
// from its promotion.
func watchLease(ctx context.Context, lease *disclosure.Lease) {
	log.Printf("disclosured: decision lease enabled (ttl %s): decisions refuse 503 after that long without follower contact", lease.TTL())
	watchTTL(ctx, lease.TTL(), lease.Valid, func(valid bool) {
		if valid {
			log.Printf("disclosured: decision lease renewed: follower contact resumed")
		} else {
			log.Printf("disclosured: decision lease EXPIRED: no follower contact for %s; refusing decisions with 503 until a follower reconnects", lease.TTL())
		}
	})
}

// followerNode is the -follow mode: bootstrap a replica from the primary
// and serve the read endpoints against it while its sync loop tails the
// primary's log. The serving layer exposes the Follower's registry, so the
// follower's GET /metrics (authenticated with the replication token)
// exposes the staleness gauge and resync counters next to the HTTP
// metrics. With -data-dir the follower is promotable (POST
// /v1/repl/promote), and with -lease-ttl it logs when the primary has been
// silent long enough that promotion is safe and, once promoted, its own
// decision lease as a booted primary does.
func followerNode(primary, token string, poll, leaseTTL time.Duration, audit *obs.AuditLog, slowQuery time.Duration, opts server.FollowerOptions) node {
	f, err := repl.NewFollower(repl.FollowerOptions{
		Primary:  primary,
		Token:    token,
		Interval: poll,
		Logf:     log.Printf,
	})
	if err != nil {
		fatal(err)
	}
	f.SetAudit(audit, slowQuery)
	promotable := "not promotable: no -data-dir"
	if opts.PromoteDir != "" {
		promotable = "promotable into " + opts.PromoteDir
	}
	n := node{
		srv:   server.NewFollower(f, opts),
		loops: []func(context.Context){f.Run},
		desc: fmt.Sprintf("follower of %s, epoch %d, %d principals replicated, %s",
			primary, f.Epoch(), f.System().Principals(), promotable),
	}
	if leaseTTL > 0 {
		n.loops = append(n.loops, func(ctx context.Context) {
			probePrimary(ctx, f, leaseTTL, opts.PromoteDir != "")
			if d := f.Promoted(); d != nil {
				watchLease(ctx, d.Lease())
			}
		})
	}
	return n
}

// probePrimary logs the follower's view of primary health against the
// lease TTL: once the primary has been silent for a full TTL its own
// decision lease (if configured with the same TTL) has expired, so
// promoting this follower cannot race admissions behind the partition.
// Promotion itself stays an operator action (or an external controller's):
// the daemon never self-promotes. A promoted node has no primary to probe:
// the probe returns, reporting nothing more.
func probePrimary(ctx context.Context, f *repl.Follower, ttl time.Duration, promotable bool) {
	ctx, promoted := context.WithCancel(ctx)
	defer promoted()
	heard := func() bool {
		if f.Promoted() != nil {
			promoted()
		}
		since, ever := f.SincePrimaryContact()
		return !ever || since < ttl
	}
	watchTTL(ctx, ttl, heard, func(heard bool) {
		switch since, _ := f.SincePrimaryContact(); {
		case heard:
			log.Printf("disclosured: primary contact resumed")
		case promotable:
			log.Printf("disclosured: primary silent for %s (>= lease ttl %s): eligible for failover via POST /v1/repl/promote", since.Round(time.Millisecond), ttl)
		default:
			log.Printf("disclosured: primary silent for %s (>= lease ttl %s): restart this follower with -data-dir to make it promotable", since.Round(time.Millisecond), ttl)
		}
	})
}

// deployment is a parsed -preset/-config choice: the configuration (schema
// and views) that defines the System, plus the initial state — policies and
// data — applied only when the deployment is not being recovered.
type deployment struct {
	schema   *disclosure.Schema
	views    []*disclosure.Query
	policies map[string]map[string][]string
	populate func(sys *disclosure.System) error
}

// seed installs the deployment's policies and initial data into a fresh
// System — the first-boot (or in-memory) path; recovered state skips it.
func (dep *deployment) seed(sys *disclosure.System) error {
	for principal, parts := range dep.policies {
		if err := sys.SetPolicy(principal, parts); err != nil {
			return err
		}
	}
	if dep.populate != nil {
		return dep.populate(sys)
	}
	return nil
}

// buildDeployment resolves the -preset or -config choice.
func buildDeployment(preset, configPath string, users int, seed int64) (*deployment, error) {
	switch {
	case configPath != "":
		return configDeployment(configPath)
	case preset == "facebook":
		return facebookDeployment(users, seed)
	default:
		return nil, fmt.Errorf("unknown preset %q (want facebook)", preset)
	}
}

// facebookDeployment builds the Facebook case-study deployment, optionally
// populated with a synthetic social graph.
func facebookDeployment(users int, seed int64) (*deployment, error) {
	s := fb.Schema()
	views, err := fb.SecurityViews(s)
	if err != nil {
		return nil, err
	}
	dep := &deployment{schema: s, views: views}
	if users > 0 {
		dep.populate = func(sys *disclosure.System) error {
			err := sys.LoadBatch(func(ld *disclosure.Loader) error {
				return fb.GenerateGraph(ld, users, seed)
			})
			if err != nil {
				return err
			}
			log.Printf("disclosured: loaded synthetic graph of %d users (seed %d)", users, seed)
			return nil
		}
	}
	return dep, nil
}

// configDeployment builds a deployment from an internal/store configuration
// file, carrying the file's policies as initial state.
func configDeployment(path string) (*deployment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg, err := store.Load(f)
	if err != nil {
		return nil, err
	}
	// Build validates the whole configuration and yields the schema and
	// view catalog the deployment is defined over.
	s, cat, _, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	return &deployment{schema: s, views: cat.Views(), policies: cfg.Policies}, nil
}

// startPprof serves net/http/pprof on a side listener when -pprof-addr is
// set. The mux is explicit — the profiling surface never rides on the
// public listener, and DefaultServeMux stays empty — and the listener is
// bound before returning so a bad address fails the boot instead of
// logging from a goroutine.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(fmt.Errorf("-pprof-addr: %w", err))
	}
	log.Printf("disclosured: pprof on %s", l.Addr())
	go func() {
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			log.Printf("disclosured: pprof server: %v", err)
		}
	}()
}

// openAudit opens the -audit-log sink; a nil *obs.AuditLog (empty path)
// is a valid no-op sink everywhere it is passed.
func openAudit(path string) (*obs.AuditLog, error) {
	if path == "" {
		return nil, nil
	}
	a, err := obs.OpenAuditLog(path)
	if err != nil {
		return nil, fmt.Errorf("-audit-log: %w", err)
	}
	log.Printf("disclosured: audit log %s", path)
	return a, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "disclosured:", err)
	os.Exit(1)
}
