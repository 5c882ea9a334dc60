package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	disclosure "repro"
)

// spec is one named workload: how the daemon is started and what traffic
// the load generator sends it. Everything a run needs besides the seed is
// here, so a workload's definition cannot drift between the untraced run,
// the traced replay and the README.
type spec struct {
	name string
	// users sizes the daemon's built-in synthetic graph (-users).
	users int
	// maxSub bounds the uid-joined subqueries per template (three body
	// atoms each, the x-axis of the paper's Figure 5).
	maxSub int
	// pool is the number of templates each client cycles through.
	pool int
	// cold marks a stream of never-repeated templates: the pool is sized
	// past the daemon's caches so a wrap-around misses, and set-up submits
	// only its first prefill templates — enough to fill the caches, so the
	// timed phase starts in the steady state where every miss evicts.
	cold    bool
	prefill int
	// minRows > 0 keeps only admitted friend-scoped templates whose
	// reference answer has minRows to maxRows rows. The cap keeps the few
	// four-way joins out whose number in a pool of 100 would otherwise
	// decide the tail latency seed by seed.
	minRows, maxRows int
	// loadEvery > 0 makes every loadEvery-th op of a client a POST /v1/load
	// of loadRows rows into the relations the templates read.
	loadEvery int
	// wall installs the three-partition Chinese-Wall policy (one all-views
	// partition otherwise); policyEvery > 0 re-installs it, resetting the
	// session, on every policyEvery-th op of a client.
	wall        bool
	policyEvery int
	// durable starts the daemon on a data directory with these durability
	// options (fsync and group commit are on unless NoSync says otherwise);
	// follower adds a -follow daemon and submits through it.
	durable  bool
	follower bool
	wal      disclosure.DurabilityOptions
}

// walFlags renders the durability options as disclosured flags.
func (s spec) walFlags() []string {
	var f []string
	if s.wal.Shards > 0 {
		f = append(f, "-shards", strconv.Itoa(s.wal.Shards))
	}
	if s.wal.CheckpointOps > 0 {
		f = append(f, "-checkpoint-ops", strconv.Itoa(s.wal.CheckpointOps))
	}
	if s.wal.NoSync {
		f = append(f, "-wal-no-sync")
	}
	return f
}

const (
	// cacheCapacity is the daemon's label-cache and plan-cache entry bound
	// (label.DefaultCacheCapacity, engine.DefaultPlanCacheCapacity); the
	// warm pools sit far below it and the cold pool far above.
	cacheCapacity = 4096
	loadRows      = 64
)

// specs lists the five workloads in the order every report uses.
var specs = []spec{
	{name: "warm_mixed", users: 300, maxSub: 3, pool: 500},
	{name: "cold_templates", users: 300, maxSub: 5, pool: 6*cacheCapacity + cacheCapacity/2, cold: true, prefill: cacheCapacity / 2},
	{name: "scan_load", users: 2000, maxSub: 2, pool: 200, minRows: 300, maxRows: 1000, loadEvery: 250},
	{name: "durable_wall", users: 300, maxSub: 2, pool: 500, wall: true, policyEvery: 500,
		durable: true, wal: disclosure.DurabilityOptions{Shards: 1, CheckpointOps: 4000}},
	{name: "follower_submit", users: 300, maxSub: 3, pool: 500,
		durable: true, follower: true, wal: disclosure.DurabilityOptions{NoSync: true}},
}

// specByName resolves a -workload argument.
func specByName(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// smoke shrinks a workload to the smallest shape that still crosses every
// code path: the same daemon flags and op kinds, tiny graph and pools.
func (s spec) smoke() spec {
	s.users = 60
	if s.cold {
		s.pool, s.prefill = 64, 8
	} else {
		s.pool = 24
	}
	if s.loadEvery > 0 {
		s.loadEvery = 8
	}
	if s.minRows > 0 {
		s.minRows = 5
	}
	if s.policyEvery > 0 {
		s.policyEvery = 16
		s.wal.CheckpointOps = 40
	}
	return s
}

// wallGroups assigns each content relation of the Facebook schema to one
// side of the Chinese Wall; the user relation is the third side.
var wallGroups = map[string]string{
	"album": "media", "photo": "media", "event": "media",
	"groups": "places", "checkin": "places", "likes": "places",
}

// partitions builds the workload's policy over the catalog's view names.
// The wall policy has three partitions — profile (user_*/friends_* views),
// media and places (the content relations' views) — each also holding the
// friend-list views every friend-scoped template needs, so a session's
// first admitted query retires the other two sides.
func (s spec) partitions(viewNames []string) map[string][]string {
	if !s.wall {
		return map[string][]string{"all": append([]string(nil), viewNames...)}
	}
	parts := map[string][]string{"profile": nil, "media": nil, "places": nil}
	for _, v := range viewNames {
		switch {
		case strings.HasPrefix(v, "friend_"):
			for side := range parts {
				parts[side] = append(parts[side], v)
			}
		case strings.HasPrefix(v, "user_"), strings.HasPrefix(v, "friends_"):
			parts["profile"] = append(parts["profile"], v)
		default:
			rel := v[:strings.LastIndexByte(v, '_')]
			parts[wallGroups[rel]] = append(parts[wallGroups[rel]], v)
		}
	}
	for side := range parts {
		sort.Strings(parts[side])
	}
	return parts
}
