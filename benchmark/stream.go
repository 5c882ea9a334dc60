package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	disclosure "repro"
	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/workload"
)

// graphSeed is the daemon's own default for -seed: the social graph is the
// program's built-in preset and stays the same on every run, so a run's
// --seed varies the traffic (template pools, load rows) and nothing else.
const graphSeed = 2013

// template is one query form a client submits: its wire text, and what the
// oracle knows about it (filled on first use, see oracle.go).
type template struct {
	src string
	// q is src parsed back, so the oracle judges what the daemon reads.
	q *cq.Query
	// lbl is the template's disclosure label and dom has bit i set when
	// partition i of the workload's policy dominates it; labeled records
	// that both are computed.
	lbl     label.Label
	dom     uint64
	labeled bool
	// rows is the sorted reference answer; haveRows records it is computed.
	rows     []string
	haveRows bool
}

// inputs is everything a run derives from (workload, seed, client count):
// the per-client template pools and principals, the policy, and the
// oracle's own copy of the daemon's graph.
type inputs struct {
	spec    spec
	seed    int64
	clients int

	schema *disclosure.Schema
	views  []*disclosure.Query
	cat    *label.Catalog
	// parts is the policy every principal gets; partNames is its partition
	// order (sorted, as policy.New orders them) and partLabels their labels.
	parts      map[string][]string
	partNames  []string
	partLabels []label.Label
	labeler    label.Labeler

	pools [][]*template
	// ref holds the same graph the daemon generates, for EvalReference.
	ref *engine.Database
	// friends lists the uids whose is_friend marker is set, so loaded rows
	// stay consistent with the friend edge list.
	friends map[string]bool
}

// principal and token name client c's identity on the wire.
func principal(c int) string { return fmt.Sprintf("app-%d", c) }
func token(c int) string     { return fmt.Sprintf("tok-%d", c) }

// buildInputs generates a run's inputs. The same (spec, seed, clients)
// always yields the same pools, in the same order.
func buildInputs(sp spec, seed int64, clients int) (*inputs, error) {
	in := &inputs{spec: sp, seed: seed, clients: clients, schema: fb.Schema()}
	views, err := fb.SecurityViews(in.schema)
	if err != nil {
		return nil, err
	}
	in.views = views
	if in.cat, err = label.NewCatalog(in.schema, views...); err != nil {
		return nil, err
	}
	in.labeler = label.NewLabeler(in.cat)
	names := make([]string, len(views))
	for i, v := range views {
		names[i] = v.Name
	}
	in.parts = sp.partitions(names)
	pol, err := policy.New(in.cat, in.parts)
	if err != nil {
		return nil, err
	}
	for _, p := range pol.Partitions() {
		in.partNames = append(in.partNames, p.Name)
		in.partLabels = append(in.partLabels, p.Label)
	}

	in.ref = engine.NewDatabase(in.schema)
	if err := fb.GenerateGraph(in.ref, sp.users, graphSeed); err != nil {
		return nil, err
	}
	friendRows, err := in.ref.EvalReference(cq.MustParse("F(x) :- friend('" + fb.Me + "', x, s)"))
	if err != nil {
		return nil, err
	}
	in.friends = make(map[string]bool, len(friendRows))
	for _, r := range friendRows {
		in.friends[r[0]] = true
	}

	base := workload.Options{Seed: seed, MaxSubqueries: sp.maxSub, FriendScopesMarkIsFriend: true}
	in.pools = make([][]*template, clients)
	for c := range in.pools {
		g, err := workload.New(in.schema, base.ForClient(c))
		if err != nil {
			return nil, err
		}
		pool := make([]*template, 0, sp.pool)
		for len(pool) < sp.pool {
			t := &template{src: g.Next().String()}
			if sp.minRows > 0 {
				keep, err := in.scanCandidate(t)
				if err != nil {
					return nil, err
				}
				if !keep {
					continue
				}
			}
			pool = append(pool, t)
		}
		in.pools[c] = pool
	}
	return in, nil
}

// scanCandidate reports whether a generated template belongs in the
// scan_load pool: friend-scoped, admitted by the policy from a fresh
// session, and answering with minRows to maxRows rows.
func (in *inputs) scanCandidate(t *template) (bool, error) {
	if !strings.Contains(t.src, "friend(") {
		return false, nil
	}
	if err := in.label(t); err != nil {
		return false, err
	}
	if t.dom == 0 {
		return false, nil
	}
	// Choosing templates is not judging them: the planned executor sizes the
	// answer here, the reference evaluator checks it when the run verifies.
	rows, err := in.ref.Eval(t.q)
	if err != nil {
		return false, err
	}
	return len(rows) >= in.spec.minRows && len(rows) <= in.spec.maxRows, nil
}

// loadBatch returns the k-th bulk load of client c: loadRows rows owned by
// random users of the graph, spread over three content relations the
// templates read, with fresh ids so answers only ever grow.
func (in *inputs) loadBatch(c, k int) []server.LoadRow {
	rng := rand.New(rand.NewSource(in.seed ^ int64(c+1)<<40 ^ int64(k+1)<<8))
	rows := make([]server.LoadRow, loadRows)
	for j := range rows {
		uid := fmt.Sprintf("u%d", 1+rng.Intn(in.spec.users-1))
		isFriend := "0"
		if in.friends[uid] {
			isFriend = fb.FriendTrue
		}
		id := fmt.Sprintf("l%d_%d_%d", c, k, j)
		switch j % 3 {
		case 0:
			rows[j] = server.LoadRow{Rel: "likes", Values: []string{uid, "page_" + id, "Page " + id, isFriend}}
		case 1:
			rows[j] = server.LoadRow{Rel: "checkin", Values: []string{"c_" + id, uid, "page_" + id, "hello", "1360000000", isFriend}}
		default:
			rows[j] = server.LoadRow{Rel: "photo", Values: []string{"p_" + id, "a_" + id, uid, "caption", "1310000000", "link", isFriend}}
		}
	}
	return rows
}

// applyLoad inserts an acknowledged bulk load into the oracle's database.
func (in *inputs) applyLoad(rows []server.LoadRow) error {
	return in.ref.Load(func(ld *engine.Loader) error {
		for _, r := range rows {
			if err := ld.Insert(r.Rel, r.Values...); err != nil {
				return err
			}
		}
		return nil
	})
}

// rowKeys renders answer tuples as sorted strings so two answers compare
// as sets regardless of the order an evaluator emits them in.
func rowKeys[T ~[]string](rows []T) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(out)
	return out
}
