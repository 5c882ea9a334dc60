// Package node assembles one reference-monitor node — the paper's Figure 2
// monitor as a process serves it: a System, the durable deployment it
// decides from (if any), the replication role (repl.Primary surface or
// repl.Follower), the decision lease, the audit sink, the instance
// registry and the server.Server over them. Open builds a primary or a
// follower from a Config, Run drives the role's background loops, and
// Close takes the shutdown checkpoint and closes the log of the deployment
// the node decides from — the booted one, or the one a promotion made. The
// daemon and the replication tests assemble nodes only here.
package node

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	disclosure "repro"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/server"
)

// Config configures a node. A non-empty Follow.Primary makes it a follower
// of that primary; otherwise it is a primary over Deployment.
type Config struct {
	// Server configures a primary's serving layer. Its AdminToken also
	// authenticates the primary's followers.
	Server server.Options
	// Follow configures a follower's replication of its primary.
	Follow repl.FollowerOptions
	// Follower configures a follower's serving layer. Open sets its
	// PromoteDir to DataDir and its PromoteDurability to Durability.
	Follower server.FollowerOptions
	// DataDir is a primary's durable state directory (empty: in memory) and
	// the directory a follower's promotion materializes the replica into
	// (empty: not promotable).
	DataDir string
	// Durability configures the durable deployment: a primary's, or the one
	// a follower is promoted to. Its LeaseTTL also sets how long a
	// follower's primary may be silent before the follower logs that it is
	// eligible for promotion.
	Durability disclosure.DurabilityOptions
	// Deployment is what a primary decides over; a follower takes its
	// deployment from its primary.
	Deployment Deployment
	// Audit receives the node's decision audit records with the SlowQuery
	// threshold (System.SetAudit); nil records nothing.
	Audit     *obs.AuditLog
	SlowQuery time.Duration
}

// Deployment is a primary's configuration and its first-boot state.
type Deployment struct {
	Schema *disclosure.Schema
	Views  []*disclosure.Query
	// Seed installs the initial policies and data into a System that was
	// not recovered; a durable one is checkpointed after it, so the next
	// boot loads the seeded state instead of replaying it. Nil seeds
	// nothing and takes no checkpoint.
	Seed func(*disclosure.System) error
}

// Node is one assembled node, in either role: the Server it serves with
// (Handler, Serve, Shutdown — which drains requests and closes no
// deployment), and the role behind it.
type Node struct {
	*server.Server
	dur *disclosure.Durable // the booted deployment; nil on a follower or in memory
	fol *repl.Follower      // nil on a primary
	ttl time.Duration       // a follower's primary-silence threshold (Durability.LeaseTTL)
	// promotable says a follower has a directory to be promoted into.
	promotable bool

	desc   string
	closed atomic.Bool
}

// Open assembles a node: on a primary it opens (or recovers) the
// deployment, seeds a fresh one and mounts the replication surface of a
// durable one; on a follower it bootstraps the replica from the primary.
func Open(cfg Config) (*Node, error) {
	if err := checkLease(cfg.Durability.LeaseTTL, cfg.Follow.Primary != "", cfg.DataDir); err != nil {
		return nil, err
	}
	if cfg.Follow.Primary != "" {
		return openFollower(cfg)
	}
	n := &Node{}
	if err := n.openPrimary(cfg); err != nil {
		if n.dur != nil {
			_ = n.dur.Close()
		}
		return nil, err
	}
	return n, nil
}

// checkLease validates the lease TTL for the role: zero disables the lease,
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

// openPrimary opens the deployment and wires the serving layer over it;
// with a data directory that includes the replication surface followers
// bootstrap and tail from.
func (n *Node) openPrimary(cfg Config) error {
	dep := cfg.Deployment
	var sys *disclosure.System
	var err error
	if cfg.DataDir != "" {
		if n.dur, err = disclosure.OpenDurable(cfg.DataDir, cfg.Durability, dep.Schema, dep.Views...); err != nil {
			return err
		}
		sys = n.dur.System()
	} else if sys, err = disclosure.NewSystem(dep.Schema, dep.Views...); err != nil {
		return err
	}
	if d := n.dur; d != nil && d.Recovered() {
		log.Printf("disclosured: recovered %s: generation %d, %d logged operations replayed, %d principals",
			cfg.DataDir, d.Generation(), d.Replayed(), sys.Principals())
	} else if dep.Seed != nil {
		if err := dep.Seed(sys); err != nil {
			return err
		}
		if d != nil {
			if err := d.Checkpoint(); err != nil {
				return err
			}
			log.Printf("disclosured: initialized %s (generation %d)", cfg.DataDir, d.Generation())
		}
	}
	sys.SetAudit(cfg.Audit, cfg.SlowQuery)

	opts := cfg.Server
	var p *repl.Primary
	if d := n.dur; d != nil {
		if p, err = repl.NewPrimary(d, opts.AdminToken); err != nil {
			return err
		}
		opts.Repl = p.Handler()
		if by := d.FencedBy(); by != 0 {
			log.Printf("disclosured: WARNING: this deployment is FENCED (epoch %d superseded by %d): it will refuse all decisions; rejoin the new primary as a follower instead", d.Epoch(), by)
		} else {
			log.Printf("disclosured: decision epoch %d", d.Epoch())
		}
	}
	if n.Server, err = server.New(sys, opts); err != nil {
		return err
	}
	if p != nil {
		p.RegisterMetrics(n.Metrics())
	}
	n.desc = fmt.Sprintf("%d principals installed", sys.Principals())
	return nil
}

// openFollower bootstraps a replica from the primary and serves the read
// endpoints against it; the Follower's registry is the node's. With a data
// directory the follower is promotable (POST /v1/repl/promote).
func openFollower(cfg Config) (*Node, error) {
	f, err := repl.NewFollower(cfg.Follow)
	if err != nil {
		return nil, err
	}
	f.SetAudit(cfg.Audit, cfg.SlowQuery)
	opts := cfg.Follower
	opts.PromoteDir, opts.PromoteDurability = cfg.DataDir, cfg.Durability
	promotable := "not promotable: no -data-dir"
	if cfg.DataDir != "" {
		promotable = "promotable into " + cfg.DataDir
	}
	return &Node{
		Server:     server.NewFollower(f, opts),
		fol:        f,
		ttl:        cfg.Durability.LeaseTTL,
		promotable: cfg.DataDir != "",
		desc: fmt.Sprintf("follower of %s, epoch %d, %d principals replicated, %s",
			f.Primary(), f.Epoch(), f.System().Principals(), promotable),
	}, nil
}

// String describes the node for the daemon's "serving on" line.
func (n *Node) String() string { return n.desc }

// Follower returns a follower node's Follower, nil on a primary.
func (n *Node) Follower() *repl.Follower { return n.fol }

// Durable returns the durable deployment the node decides from: a
// primary's booted one, a promoted follower's, else nil.
func (n *Node) Durable() *disclosure.Durable {
	if n.fol != nil {
		return n.fol.Promoted()
	}
	return n.dur
}

// Run runs the role's background loops until ctx is done: a follower's
// sync loop and, with a lease TTL, its primary probe and, once promoted,
// its decision-lease watch; a durable primary's decision-lease watch. The
// lease itself is enforced per decision; the watches only log its state.
func (n *Node) Run(ctx context.Context) {
	if n.fol == nil {
		if n.dur != nil && n.dur.Lease() != nil {
			watchLease(ctx, n.dur.Lease())
		}
		return
	}
	if n.ttl > 0 {
		done := make(chan struct{})
		go func() {
			defer close(done)
			n.probePrimary(ctx)
			if d := n.fol.Promoted(); d != nil {
				watchLease(ctx, d.Lease())
			}
		}()
		defer func() { <-done }()
	}
	n.fol.Run(ctx)
}

// Close checkpoints and closes the durable deployment the node decides
// from (Durable), so the next boot recovers without replaying this run's
// log. It is the node's one shutdown step for its log; later calls do
// nothing.
func (n *Node) Close() error {
	d := n.Durable()
	if d == nil || n.closed.Swap(true) {
		return nil
	}
	return errors.Join(d.Checkpoint(), d.Close())
}

// watchTTL polls healthy every quarter TTL until ctx is done and reports
// each change of its answer (it starts out healthy) read before then.
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
// follower reconnected).
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

// probePrimary logs the follower's view of primary health against the
// lease TTL: once the primary has been silent for a full TTL its own
// decision lease (if configured with the same TTL) has expired, so
// promoting this follower cannot race admissions behind the partition.
// Promotion stays an operator action (or an external controller's): the
// node never self-promotes. A promoted node has no primary to probe: the
// probe returns, reporting nothing more.
func (n *Node) probePrimary(ctx context.Context) {
	f, ttl := n.fol, n.ttl
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
		case n.promotable:
			log.Printf("disclosured: primary silent for %s (>= lease ttl %s): eligible for failover via POST /v1/repl/promote", since.Round(time.Millisecond), ttl)
		default:
			log.Printf("disclosured: primary silent for %s (>= lease ttl %s): restart this follower with -data-dir to make it promotable", since.Round(time.Millisecond), ttl)
		}
	})
}
