// Package archtest checks the architecture rules that keep the monitor as
// simple as the paper describes it: one labeling per query, a decision of a
// few bit-vector compares, one record vocabulary, one apply path. The rules
// read the module's syntax trees, parsed without comments.
package archtest

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const (
	root = "../../.." // the module root, from this package's directory
	some = -1         // as a check's n: any number of sites but 0
)

var (
	fset  = token.NewFileSet()
	paths []string                 // every file under root but .git's, .bench_build's and this package's
	trees = map[string]*ast.File{} // the Go files among them, by path
	texts = map[ast.Node]string{}  // printed source, by node
)

// A check wants n sites where find matches re in its scope: goFiles patterns
// split by spaces, "+" adding test files, ":Name" or ":Recv.Name" narrowing
// to a declaration; the sites of a "-" entry are subtracted.
type check struct {
	n     int
	find  func(ns []ast.Node, re string) []string
	scope string
	re    string
}

// TestArchitecture runs each rule of the table as a subtest.
func TestArchitecture(t *testing.T) {
	err := fs.WalkDir(os.DirFS(root), ".", func(p string, d fs.DirEntry, err error) error {
		// .bench_build holds the benchmark's build and run directories,
		// which its smoke test creates and deletes while this test runs.
		if err != nil || d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build" || p == "internal/tools/archtest") {
			return cmp.Or(err, fs.SkipDir)
		}
		if !d.IsDir() {
			paths = append(paths, p)
		}
		if strings.HasSuffix(p, ".go") {
			trees[p], err = parser.ParseFile(fset, filepath.Join(root, p), nil, 0)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, k := range r.checks {
				n, hits := 0, []string{}
				for _, entry := range strings.Split(k.scope, " ") {
					entry, minus := strings.CutPrefix(entry, "-")
					if h := k.find(nodes(t, r.why, entry), k.re); minus {
						n -= len(h)
					} else {
						n, hits = n+len(h), append(hits, h...)
					}
				}
				if k.n == some && n <= 0 || k.n != some && n != k.n {
					t.Fatalf("%s\n%d sites, want %d (-1: some):\n%s", r.why, n, k.n, strings.Join(hits, "\n"))
				}
			}
		})
	}
}

// nodes returns the files or declaration a scope entry names, none for "";
// naming nothing fails the test, so that no rule passes on a rename.
func nodes(t *testing.T, why, entry string) []ast.Node {
	pat, name, _ := strings.Cut(entry, ":")
	ns := goFiles(strings.CutPrefix(pat, "+"))
	if name != "" {
		ns = find(ns, `(func|type) `+regexp.QuoteMeta(name))
	}
	if len(ns) == 0 && entry != "" {
		t.Fatalf("%s\nno Go file or declaration matches %s", why, entry)
	}
	return ns
}

// goFiles returns the Go files matching pat, or under "dir/...", tests if asked.
func goFiles(pat string, tests bool) (ns []ast.Node) {
	for _, p := range paths {
		ok, _ := filepath.Match(pat, p)
		if (ok || strings.HasSuffix(pat, "...") && strings.HasPrefix(p, strings.TrimSuffix(pat, "..."))) && trees[p] != nil && (tests || !strings.HasSuffix(p, "_test.go")) {
			ns = append(ns, trees[p])
		}
	}
	return ns
}

// key names a node for the rules: a call as its function and "(", a selector
// as itself, a go statement "go", a declaration "type T" or "func [Recv.]F".
func key(n ast.Node) string {
	switch n := n.(type) {
	case *ast.CallExpr:
		return text(n.Fun) + "("
	case *ast.SelectorExpr:
		return text(n)
	case *ast.GoStmt:
		return "go"
	case *ast.TypeSpec:
		return "type " + n.Name.Name
	case *ast.FuncDecl:
		if n.Recv == nil {
			return "func " + n.Name.Name
		}
		recv, _, _ := strings.Cut(strings.TrimLeft(text(n.Recv.List[0].Type), "*"), "[")
		return "func " + recv + "." + n.Name.Name
	}
	return ""
}

// find returns the nodes in ns whose key matches re in full.
func find(ns []ast.Node, re string) (found []ast.Node) {
	r := regexp.MustCompile(`^(?:` + re + `)$`)
	for _, n := range ns {
		ast.Inspect(n, func(x ast.Node) bool {
			if k := key(x); k != "" && r.MatchString(k) {
				found = append(found, x)
			}
			return true
		})
	}
	return found
}

// uses lists the nodes in ns whose key matches re in full.
func uses(ns []ast.Node, re string) (hits []string) {
	for _, n := range find(ns, re) {
		hits = append(hits, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), key(n)))
	}
	return hits
}

// text is the source of n, printed without comments.
func text(n ast.Node) string {
	if _, ok := texts[n]; !ok {
		var b strings.Builder
		printer.Fprint(&b, fset, n)
		texts[n] = b.String()
	}
	return texts[n]
}

// grep lists the matches of re in the source of ns; with a group named site,
// only matches it takes part in, so an alternative before it is passed over.
func grep(ns []ast.Node, re string) (hits []string) {
	r := regexp.MustCompile(re)
	for _, n := range ns {
		for _, m := range r.FindAllStringSubmatch(text(n), -1) {
			if i := r.SubexpIndex("site"); i < 0 || m[i] != "" {
				hits = append(hits, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), m[0]))
			}
		}
	}
	return hits
}

// imports lists the in-module packages ns import, at any depth, matching re.
func imports(ns []ast.Node, re string) []string {
	var seen []string
	r := regexp.MustCompile(`^(?:` + re + `)$`)
	for i := 0; i < len(ns); i++ {
		for _, im := range ns[i].(*ast.File).Imports {
			pkg := strings.Trim(im.Path.Value, `"`)
			if dir, ok := strings.CutPrefix(pkg+"/", "repro/"); ok && !slices.Contains(seen, pkg) {
				seen = append(seen, pkg)
				ns = append(ns, goFiles(filepath.Join(dir, "*.go"), false)...)
			}
		}
	}
	return slices.DeleteFunc(seen, func(p string) bool { return !r.MatchString(p) })
}

// mentions lists the files whose path or bytes match re, but for the logs
// that record what was retired: CHANGES.md and ROADMAP.md.
func mentions(_ []ast.Node, re string) (hits []string) {
	r := regexp.MustCompile(re)
	for _, p := range paths {
		b, err := os.ReadFile(filepath.Join(root, p))
		if err != nil || !slices.Contains([]string{"CHANGES.md", "ROADMAP.md"}, p) && (r.MatchString(p) || r.Match(b)) {
			hits = append(hits, fmt.Sprint(p, " ", err))
		}
	}
	return hits
}

// rules is the architecture: a subtest, the reason a violation breaks it,
// and the checks that must all hold.
var rules = []struct {
	name, why string
	checks    []check
}{
	{"label-once", "the pipeline labels at exactly one call site, one query at a time", []check{{1, uses, "system.go", `.*LabelPrepared\(`}}},
	{"no-batch-labeler", "a batch labels, decides and evaluates each query in turn: keep the batch labeler and forEachConcurrent deleted", []check{{0, grep, "...", `\b(LabelBatchCanonical|forEachConcurrent)\b`}}},
	{"pipeline-no-goroutine", "system.go must not start goroutines: the pipeline is one query at a time, in slice order", []check{{0, uses, "system.go", `go|sync\.WaitGroup`}}},
	{"explain-once", "internal/server and metrics.go call ExplainDecision once, in handleExplain", []check{{1, uses, "metrics.go internal/server/...", `.*\.ExplainDecision\(`}}},
	{"explain-in-handler", "only the /v1/explain handler asks for an explanation after the fact", []check{{some, uses, "internal/server/server.go:Server.handleExplain", `.*\.ExplainDecision\(`}}},
	{"follower-no-own-labeling", "internal/repl and internal/server must not label or evaluate on their own", []check{{0, uses, "internal/repl/... internal/server/...", `.*\.(Label|LabelCanonical|LabelPrepared|Evaluate)\(`}}},
	{"sort-once", "answers sort by their interned ids' bytes: the one sort.Sort/sort.Slice call in internal/engine is the reference evaluator's", []check{{1, uses, "internal/engine/...", `.*sort\.(Sort|Slice|SliceStable|Stable)\(`}}},
	{"sort-in-sortTuples", "the sort.Slice call in internal/engine is sortTuples', the reference evaluator's", []check{{some, uses, "internal/engine/engine.go:sortTuples", `.*sort\.Slice\(`}}},
	{"no-rank-table", "internal/engine must sort answers by their bytes, not through a rank table", []check{{0, grep, "internal/engine/...", `\b(rankTable|ranksFor|rankMu)\b`}}},
	{"no-stored-prefix-keys", "a prefix key lives in the arena for one sort (execArena.keys): no answer block, snapshot, dictionary, interner or slot declares a key field or a uint64 array", []check{{0, grep, "internal/engine/...:answerBlock internal/engine/...:Snapshot internal/engine/...:dict internal/engine/...:interner internal/engine/...:strSlot", `(?im)^\s+(\w*(key|prefix)\w*\b.*|\w+(, \w+)*\s+\[\d*\]uint64)$`}}},
	{"submit-append-encoder", "handleSubmit must answer through the append encoder (internal/server/encode.go)", []check{{0, grep, "internal/server/server.go:Server.handleSubmit", `json\.NewEncoder|writeJSON\(w, http\.StatusOK`}}},
	{"encoder-no-marshal", "internal/server/encode.go must append through the wire kit, not json.Marshal", []check{{0, uses, "internal/server/encode.go", `.*json\.Marshal\(`}}},
	{"wire-marshal-once", "internal/wire calls json.Marshal once, in AppendString", []check{{1, uses, "internal/wire/...", `.*json\.Marshal\(`}, {1, uses, "internal/wire/wire.go:AppendString", `.*json\.Marshal\(`}}},
	{"no-materializeVec", "materializeVec was replaced by engine.Answer: strings are produced by the edge that needs them", []check{{0, grep, "...", `materializeVec`}}},
	{"tuples-built-once", "Answer.Rows is the one site in internal/engine that builds []Tuple from a planned evaluation", []check{{1, grep, "internal/engine/... -internal/engine/reference.go", `make\(\[\]Tuple`}, {1, grep, "internal/engine/answer.go:Answer.Rows", `make\(\[\]Tuple`}}},
	{"server-no-rows", "internal/server must not materialize an answer: encode it a row at a time with the row kernel, Answer.AppendRow", []check{{0, grep, "internal/server/...", `\.Rows\(\)`}}},
	{"no-CellBytes", "Answer.CellBytes was replaced by the row kernel, Answer.AppendRow: keep the per-cell path deleted", []check{{0, grep, "+...", `\bCellBytes\b`}}},
	{"appendrow-kernel", "encode.go calls Answer.AppendRow twice, the encoder and escapedSize, with wire.AppendString as the escape", []check{{2, uses, "internal/server/encode.go", `.*\.AppendRow\(`}, {2, grep, "internal/server/encode.go", `\.AppendRow\([^,]*, [a-z]*, wire\.AppendString\[\[\]byte\]\)`}}},
	{"no-string-maps", "internal/engine must not key ids by string or rows by id in a map: see intern.go and colIndex", []check{{0, grep, "internal/engine/...", `map\[string\]uint32|map\[uint32\]\[\]int32`}}},
	{"dictionary-no-strings", "the dictionary and its readers hold slots and an arena, not a []string", []check{{0, grep, "internal/engine/intern.go internal/engine/snapshot.go internal/engine/answer.go", `\[\]string`}}},
	{"memo-keyed-by-counts", "a plan's memo record holds the row counts of the tables it reads (Snapshot.counts), not a publication stamp", []check{{0, grep, "internal/engine/...:tableSnap internal/engine/...:compiledPlan internal/engine/...:Database", `\b(stamp|pubs)\b`}}},
	{"deltas-compiled-lazily", "compilePlan compiles the plan's own program only (first = -1): delta programs are compiled lazily, by deltaPrograms", []check{{0, grep, "internal/engine/plan.go:compilePlan", `(?m)^.*, -1\)$|(?P<site>deltaPrograms\(|deltas\.|compile\()`}}},
	{"tail-probed", "vexec.go loops over a table's row numbers once, in stepIndependent: probe the tail index instead", []check{{1, grep, "internal/engine/vexec.go", `for .*< (int32\()?t\.n\b`}, {1, grep, "internal/engine/vexec.go:stepIndependent", `for .*< (int32\()?t\.n\b`}}},
	{"no-weak", "internal/engine must not import weak: a plan keeps its last answer under the memo budget", []check{{0, grep, "internal/engine/...", `"weak"|weak\.(Pointer|Make)`}}},
	{"plan-holds-no-answer", "a plan holds its answer only through its memo slot, whose stores the budget accounts", []check{{0, grep, "internal/engine/plan.go:compiledPlan", `answerBlock|answerMemo|\bAnswer\b|\[\]uint32`}}},
	{"memo-stored-once", "a memo record enters a slot only in memoSlot.keep, once the budget took its bytes", []check{{1, grep, "internal/engine/...", `s\.acc\.release\(s\.rec\.Swap\(nil\)\)|(?P<site>rec\.(Store|Swap|CompareAndSwap)\()`}, {some, grep, "internal/engine/plan.go:memoSlot.keep", `if s\.acc\.charge\(m\.bytes\(\)\).*\n?.*s\.acc\.release\(s\.rec\.Swap\(m\)\)`}}},
	{"submit-through-encoder", "handleSubmit must encode through encodeSubmitResponse", []check{{some, grep, "internal/server/server.go:Server.handleSubmit", `encodeSubmitResponse\(w, buf,`}}},
	{"submit-not-one-buffer", "handleSubmit must not encode a body in one buffer: encodeSubmitResponse sizes it and writes large ones in chunks", []check{{0, uses, "internal/server/server.go:Server.handleSubmit", `.*appendSubmit(Response|Chunks)\(`}}},
	{"submit-chunk-hook", "encodeSubmitResponse must append through appendSubmitChunks' flush hook", []check{{some, grep, "internal/server/server.go:encodeSubmitResponse", `appendSubmitChunks\(body, principal, ps, results, func\(`}}},
	{"second-paths-deleted", "the block executor answers every query, engine.Answer is its only result and both caches are fixed at construction: keep the deleted second paths deleted", []check{{0, uses, "...", `(func|type) (\w+\.)?(planExec|runExists|EvalEach[A-Za-z]*|EvalBool|SetPlanCacheCapacity|SetCacheCapacity|SetMetricsRegistry|GeneralLabeler|NewGeneralLabeler)`}}},
	{"client-submit-no-json", "Client.submit and Client.Explain must decode through the scanners, decodeSubmitResponse and decodeExplanation", []check{{0, uses, "internal/server/client.go:Client.submit internal/server/client.go:Client.Explain", `.*(json\.|into\().*`}}},
	{"client-decoder-declines", "clientdecode.go reaches encoding/json at 4 sites: the two decliners (a submit response, an explain body), one string token with an escape, one refusal object wire.Scanner.Explanation declines", []check{{4, uses, "internal/server/clientdecode.go", `.*json\.(NewDecoder|Unmarshal|Valid)\(`}, {1, uses, "internal/server/clientdecode.go:decodeSubmitResponse", `.*json\.NewDecoder\(`}, {1, uses, "internal/server/clientdecode.go:decodeExplanation", `.*json\.NewDecoder\(`}, {1, uses, "internal/server/clientdecode.go:respScanner.str", `.*json\.Unmarshal\(`}, {1, uses, "internal/server/clientdecode.go:respScanner.result", `.*json\.Unmarshal\(`}}},
	{"fingerprint-read", "read cq.Prepared.Fingerprint instead of hashing the key again", []check{{0, uses, "metrics.go internal/engine/... internal/repl/...", `.*FingerprintKey\(`}}},
	{"fingerprint-once", "internal/label hashes a key once, in LabelCanonical, the entry point handed a bare key", []check{{1, uses, "internal/label/...", `.*FingerprintKey\(`}, {1, uses, "internal/label/cache.go:CachedLabeler.LabelCanonical", `.*FingerprintKey\(`}}},
	{"serving-no-canonicalize", "internal/server and internal/repl must not canonicalize: pass the prepared query", []check{{0, uses, "internal/server/... internal/repl/...", `.*CanonicalKey\(`}}},
	{"pipeline-no-canonicalize", "System.pipeline must not canonicalize: it takes prepared queries", []check{{0, uses, "system.go:System.pipeline", `.*CanonicalKey\(`}}},
	{"no-cq-Canonical", "cq.Canonical stays deleted: compilePlan reads the prepared form (cq.PreparedForm)", []check{{0, grep, "+...", `(?m)^func Canonical\(|\bcq\.Canonical\(`}}},
	{"engine-no-validate", "internal/engine must not validate or canonicalize a query: its prepared form carries both", []check{{0, uses, "internal/engine/...", `.*(Validate|CanonicalKey)\(`}}},
	{"miss-no-cq-fold", "LabelPrepared's miss folds the prepared form (Prepared.Fold), never cq.Fold", []check{{0, uses, "internal/label/*.go:CachedLabeler.LabelPrepared internal/label/*.go:bitVectorLabeler.labelPrepared internal/label/*.go:bitVectorLabeler.labelFolded internal/label/*.go:dissection.dissect", `.*cq\.Fold\(`}}},
	{"miss-folds-prepared", "bitVectorLabeler.labelPrepared must fold the prepared form", []check{{some, grep, "internal/label/*.go:CachedLabeler.LabelPrepared internal/label/*.go:bitVectorLabeler.labelPrepared internal/label/*.go:bitVectorLabeler.labelFolded internal/label/*.go:dissection.dissect", `labelFolded\(p\.Fold\(\)\)`}}},
	{"no-checkpoint-codec", "the checkpoint struct codec and its restore path were replaced by wal.Op records through applyOp", []check{{0, grep, "...", `DecodeCheckpoint|EncodeCheckpoint|PrincipalState|RestoreMonitor|ReadSnapshotFile|RestoreShard|restorePrincipals|restoreRows|restoreEpoch`}}},
	{"wal-one-decoder", "internal/wal has one payload decoder, DecodeOp", []check{{1, uses, "internal/wal/...", `.*json\.Unmarshal\(`}}},
	{"decoder-is-DecodeOp", "the one json.Unmarshal call in internal/wal is DecodeOp's", []check{{some, uses, "internal/wal/op.go:DecodeOp", `.*json\.Unmarshal\(`}}},
	{"op-codec-json-sites", "internal/wal/op.go reaches encoding/json at 2 sites: AppendOp's json.Marshal of header and epoch records and DecodeOp's decline", []check{{2, uses, "internal/wal/op.go", `json\.\w+`}, {1, uses, "internal/wal/op.go:AppendOp", `json\.Marshal\(`}, {1, uses, "internal/wal/op.go:DecodeOp", `json\.Unmarshal\(`}}},
	{"one-frame-walker", "frame headers are read in Frames, the one frame walker, and nowhere else", []check{{0, uses, "internal/wal/... -internal/wal/stream.go:Frames", `.*LittleEndian\.Uint32\(`}, {some, uses, "internal/wal/stream.go:Frames", `.*LittleEndian\.Uint32\(`}}},
	{"one-apply", "one apply function, reached by recovery, follower bootstrap and tailing alike", []check{{1, uses, "+*.go", `func replayState\.applyOp`}}},
	{"replica-surface", "Replica's state-building surface is NewReplica + Apply", []check{{0, uses, "replica.go", `func Replica\.(Restore|Load|Install).*`}}},
	{"no-homBody", "homBody and atomKey were replaced by homSearch on cq.Form and compiledAtom.same; keep them under _test.go", []check{{0, grep, "...", `homBody\(|atomKey\(`}}},
	{"one-hom-search", "internal/cq has one backtracking search method outside homall.go, homSearch.search", []check{{1, uses, "internal/cq/... -internal/cq/homall.go", `func \w+\.search`}}},
	{"bench-leaf", "internal/bench must not depend on the root package, internal/server, internal/repl or internal/wal", []check{{0, imports, "internal/bench/*.go", `repro(/internal/(server|repl|wal))?`}}},
	{"bench-no-obs", "internal/bench must not import internal/obs", []check{{0, grep, "internal/bench/*.go", `"repro/internal/obs"`}}},
	{"one-policy-checker", "Figure 6 times policy.ConcurrentStore, the daemon's store: keep its private copy and policy.Store deleted", []check{{0, grep, "...", `\b(compactPolicies|NewStore|MustMonitor|ResetAll|FromLabels)\b`}}},
	{"figure6-daemon-store", "internal/bench/figure6.go must decide through policy.NewConcurrentStore", []check{{some, uses, "internal/bench/figure6.go", `policy\.NewConcurrentStore`}}},
	{"no-label-pool", "disclosurebench draws Figure 6's labels from a fixed pool: no -label-pool flag", []check{{0, grep, "cmd/disclosurebench/...", `label-pool`}}},
	{"no-atomLabelFor", "atomLabelFor was replaced by the labels NewCatalog stores: LabelViews looks them up", []check{{0, grep, "...", `atomLabelFor`}}},
	{"policy-no-rewrite", "internal/policy must not reach the generic rewritability check", []check{{0, grep, "internal/policy/...", `"repro/internal/rewrite"|\brewrite\.`}}},
	{"labelviews-no-rewrite", "LabelViews looks a catalog view's label up and matches any other view by the compiled criterion, never by package rewrite", []check{{0, uses, "internal/label/*.go:LabelViews", `rewrite\..*`}}},
	{"labeler-reads-catalog", "NewLabeler must read the views NewCatalog compiled, not compile its own", []check{{0, uses, "internal/label/*.go:NewLabeler", `.*compileView\(`}}},
	{"no-SetStats", "sessions keep no decision tallies: SetStats stays deleted", []check{{0, grep, "...", `\bSetStats\b`}}},
	{"no-soft-state", "durable.go has no soft state: every durable session change is a logged record", []check{{0, grep, "durable.go", `\bsoft\b`}}},
	{"no-decision-counts", "a transition record, an explanation and a monitor carry no decision counts", []check{{0, grep, "internal/wal/op.go:TransitionOp internal/policy/monitor.go:Explanation internal/policy/monitor.go:Monitor", `(?i)\b(accepted|refused)\b`}}},
	{"no-checkpoint-interval", "-checkpoint-interval stays deleted: -checkpoint-ops counts the records a restart replays", []check{{0, grep, "...", `checkpoint-interval`}}},
	{"no-ring", "internal/ring stays deleted: every per-principal record goes to the one data log", []check{{0, mentions, "", `^internal/ring/`}}},
	{"recovery-no-goroutine", "durable.go must not start goroutines: recovery replays the meta log, then the data log", []check{{0, uses, "durable.go", `go|sync\.WaitGroup`}}},
	{"two-logs", "the meta and data logs are the only list of logs: []*walShard appears only in allShards", []check{{0, grep, "*.go -durable.go:Durable.allShards", `\[\]\*walShard`}, {some, grep, "durable.go:Durable.allShards", `\[\]\*walShard`}}},
	{"decide-rpc-own-conns", "decideRPC sends on the follower's own connections with the append encoder: no http.Client, no json.Marshal", []check{{0, uses, "internal/repl/follower.go:Follower.decideRPC", `f\.opts\.HTTP\.Do|json\.Marshal`}}},
	{"decide-handler-no-reflection", "handleDecide scans its request and appends its response (codec.go): encoding/json only in the codecs' fallbacks", []check{{0, grep, "internal/repl/primary.go:Primary.handleDecide", `json\.NewDecoder\(r\.Body\)|json\.NewEncoder`}}},
	{"decide-handler-codecs", "handleDecide must decode through decodeDecideRequest and encode through appendDecideResponse", []check{{some, uses, "internal/repl/primary.go:Primary.handleDecide", `.*decodeDecideRequest\(`}, {some, uses, "internal/repl/primary.go:Primary.handleDecide", `.*appendDecideResponse\(`}}},
	{"refusal-appended", "internal/repl/codec.go appends through the wire kit (AppendExplanation for a refusal): no json.Marshal", []check{{0, uses, "internal/repl/codec.go", `.*json\.Marshal\(`}}},
	{"one-wire-kit", "internal/server and internal/repl must use the wire kit's primitives (internal/wire), not a copy", []check{{0, uses, "internal/server/... internal/repl/...", `func (\w+\.)?(appendString|readAll|readBody|skipSpace|scanPlainString|writeJSON|replErrorCode)`}}},
	{"one-buffer-pool", "internal/server and internal/repl pool byte buffers through wire.BufPool", []check{{0, grep, "internal/server/... internal/repl/...", `new\(\[\]byte\)|sync\.Pool.*\[\]byte|\[\]byte.*sync\.Pool`}}},
	{"one-token-table", "a principal's submission token lives in its System's one table (System.SetToken, System.TokenOwner): the server keeps no copy, and recovery, replication and promotion no second one", []check{{0, grep, "internal/server/server.go:Server internal/server/server.go:localBackend", `map\[`}, {1, grep, "...", `(?m)^(func \([^)]*\) |\s+)TokenOwner\(`}, {1, uses, "system.go", `func System\.TokenOwner`}, {0, grep, "+...", `\b(installTokenLocked|setTokenLocked|seedTokens)\b`}}},
	{"one-cache-miss-discipline", "a plan-cache miss compiles outside any lock and Adds, as label-cache and query-memo misses do: no singleflight in internal/engine", []check{{0, grep, "internal/engine/...", `\b(inflight|planFlight)\b`}}},
	{"fail-closed-counted-once", "the Follower counts a failed decision RPC once, and disclosure_follower_fail_closed_total reads that count: the serving layer registers no second counter and has one submit path", []check{{0, grep, "internal/server/...", `disclosure_follower_fail_closed_total`}, {1, grep, "internal/repl/...", `"disclosure_follower_fail_closed_total"`}, {0, grep, "internal/server/server.go:backend", `\bSubmitBatch\b`}}},
	{"one-prune-rule", "one function prunes old generations, Durable.pruneShard, for rotation and recovery alike: wal declares no remover, and no other root-package function deletes a file", []check{{0, grep, "internal/wal/...", `\bRemoveShardGeneration\b`}, {0, uses, "*.go -durable.go:Durable.pruneShard", `os\.Remove(All)?\(`}, {some, uses, "durable.go:Durable.pruneShard", `os\.Remove\(`}}},
	{"one-lease-owner", "the decision lease is the durable deployment's (DurabilityOptions.LeaseTTL): no code outside the root package makes a lease or keeps one in a field, and the hooks that let callers wire it apart stay deleted", []check{{0, uses, "... -*.go", `.*NewLease\(`}, {0, grep, "... -*.go", `(?m)^\s+(\w+(, \w+)*\s+)?\*(\w+\.)?Lease$`}, {0, grep, "+...", `\b(SetDecisionGate|SetLease)\b`}}},
	{"one-clock", "every deadline a decision rests on reads internal/clock: only tests install a manual clock, and the decision and read leases, the read holds and the Follower's contact, lease and staleness read no time.Now, Since, Until or NewTimer", []check{{0, uses, "...", `clock\.Install\(`}, {some, uses, "+... -...", `clock\.Install\(`}, {0, uses, "lease.go replica.go internal/repl/follower.go:Follower.InContact internal/repl/follower.go:Follower.InLease internal/repl/follower.go:Follower.syncLocked internal/repl/follower.go:Follower.syncPass internal/repl/follower.go:Follower.Staleness", `time\.(Now|Since|Until|NewTimer)\(`}}},
	{"one-node-registry", "a node's instance registry is its first component's (Server.Metrics, Follower.Metrics): no options struct takes one", []check{{0, grep, "internal/server/server.go:Options internal/server/follower.go:FollowerOptions internal/repl/follower.go:FollowerOptions", `(?m)^\s+Metrics\b`}}},
	{"one-node-assembly", "a node is assembled in internal/node alone (node.Open): no other non-test code builds a server or a follower, and only internal/repl's promotion builds a primary surface besides it; benchmark/ is exempt until it moves onto node.Open", []check{{0, uses, "... -internal/node/... -benchmark/...", `.*(server\.New|server\.NewFollower|repl\.NewFollower)\(`}, {0, uses, "... -internal/node/... -benchmark/...", `.*repl\.NewPrimary\(`}}},
	{"retired-archives-unnamed", "a retired experiment archive is named only where its retirement is recorded: ARCHITECTURE.md's evaluation table says where its number lives now", []check{{0, mentions, "", `BENCH_(serve|wal|adversarial|shard|repl|obs|failover)\.json`}}},
}
