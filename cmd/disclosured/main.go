// Command disclosured runs the networked reference monitor, the paper's
// Figure 2 platform as a standalone process: a primary over a -preset or
// -config deployment, or with -follow a read follower of another
// disclosured. docs/OPERATIONS.md documents every flag; ARCHITECTURE.md
// the API, recovery, replication and failover.
//
// Usage:
//
//	disclosured -admin-token s3cret -preset facebook [-users 300 -seed 2013] [-addr :8080]
//	disclosured -admin-token s3cret -config deployment.json [-data-dir DIR]
//	disclosured -admin-token s3cret -follow http://primary:8080 [-data-dir DIR] [-repl-poll 250ms] [-max-lag D]
//
// Durability: -data-dir, -wal-no-sync, -checkpoint-ops, -shards (deprecated:
// 0 or 1). Failover: -lease-ttl. Limits: -max-request-bytes, -max-batch,
// -shutdown-timeout. Observability: -pprof-addr, -audit-log, -slow-query.
// SIGINT/SIGTERM drain in-flight requests and take a final checkpoint.
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
	"repro/internal/node"
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
	cfg := node.Config{
		Server: server.Options{AdminToken: *adminToken, MaxRequestBytes: *maxBytes, MaxBatch: *maxBatch},
		// -admin-token is the primary's: it authenticates the replication
		// stream, and a promoted node's administrative endpoints.
		Follow:   repl.FollowerOptions{Primary: *follow, Token: *adminToken, Interval: *replPoll, Logf: log.Printf},
		Follower: server.FollowerOptions{MaxRequestBytes: *maxBytes, MaxBatch: *maxBatch, MaxLag: *maxLag, AdminToken: *adminToken},
		DataDir:  *dataDir,
		// One value for both roles: a promoted follower carries -lease-ttl too.
		Durability: disclosure.DurabilityOptions{NoSync: *walNoSync, Shards: *shards, CheckpointOps: *checkpointOps, LeaseTTL: *leaseTTL},
		SlowQuery:  *slowQuery,
	}
	switch {
	case *follow != "" && (*preset != "" || *configPath != ""):
		fatal(fmt.Errorf("-follow takes its deployment from the primary; drop -preset/-config"))
	case *follow == "" && (*preset == "") == (*configPath == ""):
		fatal(fmt.Errorf("set exactly one of -preset or -config"))
	case *follow == "":
		dep, err := buildDeployment(*preset, *configPath, *users, *seed)
		if err != nil {
			fatal(err)
		}
		cfg.Deployment = dep
	}
	log.Printf("disclosured: %s", obs.ReadBuildInfo())
	startPprof(*pprofAddr)
	audit, err := openAudit(*auditPath)
	if err != nil {
		fatal(err)
	}
	defer audit.Close()
	cfg.Audit = audit
	n, err := node.Open(cfg)
	if err != nil {
		fatal(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("disclosured: serving on %s (%s)", l.Addr(), n)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go n.Run(ctx)
	done := make(chan error, 1)
	go func() { done <- n.Serve(l) }()

	select {
	case err := <-done:
		fatal(err)
	case <-ctx.Done():
	}
	log.Printf("disclosured: shutting down (grace %s)", *shutdownTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := n.Shutdown(shutdownCtx); err != nil {
		fatal(err)
	}
	if err := <-done; err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	// The final checkpoint, after the last request drained: the next boot
	// recovers without replaying this run's log.
	if err := n.Close(); err != nil {
		log.Printf("disclosured: shutdown checkpoint and close: %v", err)
	}
	log.Printf("disclosured: stopped")
}

// buildDeployment resolves the -preset or -config choice: the schema and
// views the primary decides over, and the policies and data it is seeded
// with on first boot.
func buildDeployment(preset, configPath string, users int, seed int64) (node.Deployment, error) {
	switch {
	case configPath != "":
		return configDeployment(configPath)
	case preset == "facebook":
		return facebookDeployment(users, seed)
	default:
		return node.Deployment{}, fmt.Errorf("unknown preset %q (want facebook)", preset)
	}
}

// facebookDeployment builds the Facebook case-study deployment, optionally
// populated with a synthetic social graph.
func facebookDeployment(users int, seed int64) (node.Deployment, error) {
	s := fb.Schema()
	views, err := fb.SecurityViews(s)
	if err != nil {
		return node.Deployment{}, err
	}
	return node.Deployment{Schema: s, Views: views, Seed: func(sys *disclosure.System) error {
		if users == 0 {
			return nil
		}
		err := sys.LoadBatch(func(ld *disclosure.Loader) error {
			return fb.GenerateGraph(ld, users, seed)
		})
		if err == nil {
			log.Printf("disclosured: loaded synthetic graph of %d users (seed %d)", users, seed)
		}
		return err
	}}, nil
}

// configDeployment builds a deployment from an internal/store configuration
// file, seeded with the file's policies.
func configDeployment(path string) (node.Deployment, error) {
	f, err := os.Open(path)
	if err != nil {
		return node.Deployment{}, err
	}
	defer f.Close()
	cfg, err := store.Load(f)
	if err != nil {
		return node.Deployment{}, err
	}
	// Build validates the whole configuration and yields the schema and
	// view catalog the deployment is defined over.
	s, cat, _, err := cfg.Build()
	if err != nil {
		return node.Deployment{}, err
	}
	return node.Deployment{Schema: s, Views: cat.Views(), Seed: func(sys *disclosure.System) error {
		for principal, parts := range cfg.Policies {
			if err := sys.SetPolicy(principal, parts); err != nil {
				return err
			}
		}
		return nil
	}}, nil
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
