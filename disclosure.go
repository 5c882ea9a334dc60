// Package disclosure is a fine-grained disclosure-control library for app
// ecosystems, implementing Bender, Kot, Gehrke and Koch, "Fine-Grained
// Disclosure Control for App Ecosystems", SIGMOD 2013.
//
// The model: a platform (social network, mobile OS, BYOD deployment) holds
// private data in a relational database, and third-party apps query it.
// The user designates a small set of security views — single-atom
// conjunctive views whose information content they understand — and a
// security policy over those views. Every incoming query is automatically
// labeled with the set of security views needed to answer it (and as little
// more as possible); a reference monitor admits or refuses the query by
// comparing its label against the policy, tracking cumulative disclosure
// across the whole query history in O(1) state per policy partition.
//
// Labels are data-derived (computed from the query, not hand-assigned),
// semantically meaningful (expressed in terms of the user's own views) and
// support expressive policies, including Chinese-Wall policies ("either my
// calendar or my contacts, but never both").
//
// System is safe for concurrent use and built for repetitive app-ecosystem
// traffic: submissions are labeled through a sharded cache keyed by the
// query's canonical form (isomorphic queries share one entry), decided
// under per-principal locks, and evaluated lock-free against immutable
// database snapshots through a compiled-plan cache (the engine stores
// dictionary-encoded columnar tables; writers publish new snapshots
// atomically and never block readers). SubmitBatch pipelines whole batches
// and Stats reports throughput and cache-effectiveness counters.
//
// # Quick start
//
//	s := disclosure.MustSchema(
//		disclosure.MustRelation("Meetings", "time", "person"),
//		disclosure.MustRelation("Contacts", "person", "email", "position"),
//	)
//	sys, _ := disclosure.NewSystem(s,
//		disclosure.MustParse("V1(t, p) :- Meetings(t, p)"),
//		disclosure.MustParse("V2(t) :- Meetings(t, p)"),
//		disclosure.MustParse("V3(p, e, r) :- Contacts(p, e, r)"),
//	)
//	sys.SetPolicy("calendar-app", map[string][]string{"times-only": {"V2"}})
//	dec, rows, _ := sys.Submit("calendar-app", disclosure.MustParse("Q(t) :- Meetings(t, p)"))
//
// The subpackage layout mirrors the paper: conjunctive-query machinery,
// equivalent view rewriting, disclosure orders and lattices, labelers,
// policies, plus the Facebook case-study model and the evaluation harness.
// This facade re-exports the types and constructors applications need.
// internal/server and cmd/disclosured expose the same surface as an
// HTTP/JSON service — the paper's platform as a standalone process — and
// ARCHITECTURE.md maps every package to its paper section and spells out
// the hot path and the concurrency contract.
package disclosure

import (
	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/fql"
	"repro/internal/label"
	"repro/internal/policy"
	"repro/internal/schema"
)

// Core re-exported types. See the corresponding internal packages for full
// method documentation.
type (
	// Schema is an immutable relational schema catalog.
	Schema = schema.Schema
	// Relation is a named relation with a fixed attribute list.
	Relation = schema.Relation
	// Query is a conjunctive query (head + body of relational atoms).
	Query = cq.Query
	// Prepared is a query ready to submit: canonical key, head name and
	// source text, immutable and shareable (System.Prepare, PrepareQuery).
	Prepared = cq.Prepared
	// Term is a constant or variable inside an atom.
	Term = cq.Term
	// Atom is a relational atom R(t1, ..., tk).
	Atom = cq.Atom
	// Catalog holds the generating set of single-atom security views.
	Catalog = label.Catalog
	// Labeler computes disclosure labels for conjunctive queries.
	Labeler = label.Labeler
	// CachedLabeler memoizes labels under canonical query fingerprints.
	CachedLabeler = label.CachedLabeler
	// CacheStats is a snapshot of label-cache effectiveness counters.
	CacheStats = label.CacheStats
	// Label is a compressed disclosure label (arrays of packed ℓ⁺ sets).
	Label = label.Label
	// AtomLabel is the packed label of one dissected single-atom view.
	AtomLabel = label.AtomLabel
	// Policy is a partitioned security policy over security views.
	Policy = policy.Policy
	// Monitor enforces a policy over a stream of labels for one principal.
	Monitor = policy.Monitor
	// QueryMonitor couples a Monitor with a Labeler (Figure 2's reference
	// monitor).
	QueryMonitor = policy.QueryMonitor
	// Decision is the outcome of a reference-monitor check.
	Decision = policy.Decision
	// Explanation is the structured account of a query's label against a
	// principal's policy and session state (see ExplainDecision).
	Explanation = policy.Explanation
	// PartitionStatus is one partition's row of an Explanation.
	PartitionStatus = policy.PartitionStatus
	// Database is the in-memory relational engine: dictionary-encoded
	// columnar storage, compiled-and-cached query plans, and lock-free
	// snapshot reads.
	Database = engine.Database
	// Table is a read-only snapshot view of one relation.
	Table = engine.Table
	// Loader inserts rows inside a LoadBatch call.
	Loader = engine.Loader
	// PlanCacheStats is a snapshot of compiled-plan-cache counters.
	PlanCacheStats = engine.PlanCacheStats
	// Tuple is a database row.
	Tuple = engine.Tuple
	// Answer is an evaluated query's rows as interned ids; its Rows method
	// renders them.
	Answer = engine.Answer
)

// NewRelation constructs a relation; see schema.NewRelation.
func NewRelation(name string, attrs ...string) (*Relation, error) {
	return schema.NewRelation(name, attrs...)
}

// MustRelation is like NewRelation but panics on error.
func MustRelation(name string, attrs ...string) *Relation {
	return schema.MustRelation(name, attrs...)
}

// NewSchema builds a schema from relations.
func NewSchema(rels ...*Relation) (*Schema, error) { return schema.New(rels...) }

// MustSchema is like NewSchema but panics on error.
func MustSchema(rels ...*Relation) *Schema { return schema.MustNew(rels...) }

// ParseQuery parses a conjunctive query in datalog syntax, e.g.
// "Q(x) :- Meetings(x, 'Cathy')".
func ParseQuery(src string) (*Query, error) { return cq.ParseQuery(src) }

// MustParse is like ParseQuery but panics on error.
func MustParse(src string) *Query { return cq.MustParse(src) }

// PrepareQuery wraps an already-built query as a prepared one,
// canonicalizing it once.
func PrepareQuery(q *Query) *Prepared { return cq.PrepareQuery(q) }

// ParseProgram parses a newline-separated list of queries; blank lines and
// #/% comments are ignored.
func ParseProgram(src string) ([]*Query, error) { return cq.ParseProgram(src) }

// CompileFQL compiles an FQL-flavored SQL statement (SELECT ... FROM ...
// WHERE ..., with me() and IN-subqueries) into a conjunctive query.
func CompileFQL(s *Schema, name, src string) (*Query, error) {
	return fql.Compile(s, name, src)
}

// NewCatalog builds a security-view catalog over single-atom views.
func NewCatalog(s *Schema, views ...*Query) (*Catalog, error) {
	return label.NewCatalog(s, views...)
}

// NewLabeler returns the optimized production labeler (relation hashing +
// packed bit-vector labels, Section 6.1 of the paper).
func NewLabeler(c *Catalog) Labeler { return label.NewLabeler(c) }

// NewBaselineLabeler returns the unoptimized LabelGen adaptation (the
// Figure-5 baseline); useful for differential testing.
func NewBaselineLabeler(c *Catalog) Labeler { return label.NewBaselineLabeler(c) }

// NewCachedLabeler wraps a labeler with a sharded, bounded canonical-form
// memo (capacity ≤ 0 means the default). Isomorphic queries share one
// entry, so repetitive app traffic is labeled once per template.
func NewCachedLabeler(l Labeler, capacity int) *CachedLabeler {
	return label.NewCachedLabeler(l, capacity)
}

// Dissect folds a conjunctive query and splits it into single-atom views,
// promoting join variables (Section 5.2 of the paper).
func Dissect(q *Query) ([]*Query, error) { return label.Dissect(q) }

// NewPolicy builds a partitioned security policy; each partition lists
// security-view names from the catalog. One partition = stateless policy;
// several = a Chinese-Wall policy.
func NewPolicy(c *Catalog, partitions map[string][]string) (*Policy, error) {
	return policy.New(c, partitions)
}

// NewMonitor creates a label-level reference monitor for one principal.
func NewMonitor(p *Policy) *Monitor { return policy.NewMonitor(p) }

// NewQueryMonitor creates a query-level reference monitor.
func NewQueryMonitor(l Labeler, p *Policy) *QueryMonitor {
	return policy.NewQueryMonitor(l, p)
}

// NewDatabase creates an empty in-memory database over the schema.
func NewDatabase(s *Schema) *Database { return engine.NewDatabase(s) }
