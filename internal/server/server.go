// Package server implements disclosured, the networked reference-monitor
// service: an HTTP/JSON front end exposing the full disclosure.System
// surface — the deployment model of the paper's Figure 2, where a platform
// mediates queries from many third-party apps on behalf of its users.
//
// Endpoints (all bodies JSON, wire types in api.go):
//
//	POST   /v1/submit              submit one query or a batch (principal token)
//	GET    /v1/explain?q=...       structured admissibility explanation (principal token)
//	PUT    /v1/policy/{principal}  install a policy + submission token (admin token)
//	DELETE /v1/policy/{principal}  remove a principal (admin token)
//	POST   /v1/load                bulk-load rows in one snapshot (admin token)
//	GET    /v1/stats               system counters and server gauges (admin token)
//	GET    /metrics                Prometheus text exposition (admin token)
//
// Authentication is bearer-token: administrative endpoints require the
// admin token the server was created with, and each principal submits with
// the per-principal token installed alongside its policy (the token
// identifies the principal, so a request cannot impersonate another app).
// Request bodies are size-limited, refusals carry structured explanation
// bodies, and shutdown is graceful: in-flight requests complete, new
// connections are refused.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	disclosure "repro"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/wire"
)

// Options configures a Server.
type Options struct {
	// AdminToken authenticates the administrative endpoints (policy
	// installation and bulk loading) and the counters (/v1/stats,
	// /metrics). It must be non-empty.
	AdminToken string
	// MaxRequestBytes bounds request-body size (default 1 MiB). Larger
	// requests are refused with 413 before any work is done.
	MaxRequestBytes int64
	// MaxBatch bounds the number of queries in one submit request
	// (default 1024).
	MaxBatch int
	// Journal is ignored.
	//
	// Deprecated: the System keeps its principals' tokens, and a durable
	// System logs every token install itself (System.SetToken).
	Journal TokenJournal
	// Tokens seeds the System's token table at construction, through
	// System.SetToken: a durable System logs a seed token it does not hold
	// yet, and re-seeding a recovered System with its own tokens
	// (disclosure.Durable.Tokens) changes nothing. A seed token that
	// collides with another principal's is an error.
	Tokens map[string]string
	// Repl, when non-nil, is mounted under /v1/repl/ — the replication
	// surface (repl.Primary.Handler()) a durable primary exposes to its
	// followers. The handler does its own bearer-token authentication.
	Repl http.Handler
}

// TokenJournal is the type of the ignored Options.Journal.
//
// Deprecated: a durable System logs its own token installs.
type TokenJournal interface {
	// LogToken records that principal's submission token is (about to be)
	// token. An error aborts the installation.
	LogToken(principal, token string) error
}

// DefaultMaxRequestBytes is the request-body bound applied when
// Options.MaxRequestBytes is zero.
const DefaultMaxRequestBytes = 1 << 20

// DefaultMaxBatch is the per-request query bound applied when
// Options.MaxBatch is zero.
const DefaultMaxBatch = 1024

// Server is the reference-monitor HTTP service of one node, in either
// role: New serves a local disclosure.System (a primary, or a standalone
// in-memory deployment), NewFollower serves a replica whose admits that
// move a session are the primary's. The routes, authentication, limits, metrics middleware
// and serve/shutdown are the same code for both; what differs sits behind
// the backend seam, and a promotion swaps that one field. Mount Handler
// (or call Serve), and stop it with Shutdown. All methods are safe for
// concurrent use.
type Server struct {
	opts  Options       // defaults applied
	reg   *obs.Registry // the node's instance registry (Metrics)
	mux   *http.ServeMux
	start time.Time
	hm    *httpMetrics
	build obs.BuildInfo

	// back is the node's current role. It changes once at most, from a
	// follower backend to a local one, under promoteMu.
	back      atomic.Pointer[backend]
	promoteMu sync.Mutex

	// http serves Handler for Serve. It exists from construction, so a
	// Shutdown that runs before Serve still makes Serve return at once.
	http *http.Server
}

// backend is the role-specific half of a Server: a local System that
// decides for itself, or a replica's System, which evaluates locally,
// refuses what its own sessions already refuse and sends every other
// decision to its primary.
type backend interface {
	// System is what authentication, submission, explain, stats and the
	// administrative routes act on.
	System() *disclosure.System
	// fresh reports whether a data request may be served from this node's
	// state right now; when not, it has answered the request.
	fresh(w http.ResponseWriter) bool
	// stats turns the node's common stats into its role's response body.
	stats(w http.ResponseWriter, st StatsResponse) any
}

// localBackend serves a System that decides for itself.
type localBackend struct {
	sys *disclosure.System
}

func (b localBackend) System() *disclosure.System { return b.sys }

func (b localBackend) fresh(http.ResponseWriter) bool { return true }

func (b localBackend) stats(_ http.ResponseWriter, st StatsResponse) any { return st }

// New wires a Server over the given system. The system may already hold
// data and policies.
func New(sys *disclosure.System, opts Options) (*Server, error) {
	if opts.AdminToken == "" {
		return nil, fmt.Errorf("server: AdminToken must be non-empty")
	}
	s := newServer(opts, obs.NewRegistry())
	s.setBackend(localBackend{sys: sys})
	if opts.Repl != nil {
		s.mux.Handle("/v1/repl/", opts.Repl)
	}
	for principal, token := range opts.Tokens {
		if err := sys.SetToken(principal, token); err != nil {
			return nil, fmt.Errorf("server: seeding token for %q: %w", principal, err)
		}
	}
	return s, nil
}

// newServer builds what both roles share — limits, middleware in reg, and
// every route but the replication ones; the caller sets the backend
// before the Server is used.
func newServer(opts Options, reg *obs.Registry) *Server {
	if opts.MaxRequestBytes <= 0 {
		opts.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	s := &Server{
		opts:  opts,
		reg:   reg,
		mux:   http.NewServeMux(),
		start: time.Now(),
		hm:    newHTTPMetrics(reg),
		build: obs.ReadBuildInfo(),
	}
	s.http = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	registerInstanceGauges(reg, s.System, s.start)
	s.mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/explain", s.handleExplain)
	s.mux.HandleFunc("PUT /v1/policy/{principal}", s.handleSetPolicy)
	s.mux.HandleFunc("DELETE /v1/policy/{principal}", s.handleRemovePolicy)
	s.mux.HandleFunc("POST /v1/load", s.handleLoad)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Metrics returns the node's instance registry, which GET /metrics exposes
// after obs.Default: on a primary the Server's own (New), on a follower the
// Follower's (repl.Follower.Metrics).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// setBackend installs the node's role.
func (s *Server) setBackend(b backend) { s.back.Store(&b) }

// backend returns the node's current role.
func (s *Server) backend() backend { return *s.back.Load() }

// follower returns the follower backend while the node is one, else nil.
func (s *Server) follower() *followerBackend {
	fb, _ := s.backend().(*followerBackend)
	return fb
}

// System returns the served system — on a follower the current replica's
// (tests and embedders reach through to it, e.g. to pre-load data without
// going over HTTP).
func (s *Server) System() *disclosure.System { return s.backend().System() }

// Handler returns the service's HTTP handler with the request-size limit
// and the metrics middleware applied, for mounting under a custom
// http.Server or test server.
func (s *Server) Handler() http.Handler {
	return s.hm.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxRequestBytes)
		s.mux.ServeHTTP(w, r)
	}))
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown gracefully stops a server started with Serve: the listener
// closes immediately, in-flight requests run to completion (or until ctx
// expires), and Serve returns http.ErrServerClosed. It closes no durable
// deployment: that is the node's (node.Node.Close).
func (s *Server) Shutdown(ctx context.Context) error { return s.http.Shutdown(ctx) }

// authPrincipal authenticates a submission request against the token
// table of the backend's System, writing 401 and returning ok=false on
// failure.
func (s *Server) authPrincipal(w http.ResponseWriter, r *http.Request, b backend) (string, bool) {
	tok := repl.Bearer(r)
	if tok == "" {
		writeError(w, http.StatusUnauthorized, "missing bearer token")
		return "", false
	}
	principal, ok := b.System().TokenOwner(tok)
	if !ok {
		writeError(w, http.StatusUnauthorized, "unknown token")
		return "", false
	}
	return principal, true
}

// authAdmin authenticates an administrative request, writing 401 — or, on
// a follower, 403: a replica is never written to — and returning false on
// failure.
func (s *Server) authAdmin(w http.ResponseWriter, r *http.Request) bool {
	if fb := s.follower(); fb != nil {
		writeError(w, http.StatusForbidden, "read-only follower: administrative and write endpoints are served by the primary "+fb.Primary())
		return false
	}
	if !repl.Authorized(r, s.opts.AdminToken) {
		writeError(w, http.StatusUnauthorized, "admin token required")
		return false
	}
	return true
}

// authOperator authenticates a read of the counters (/v1/stats, /metrics),
// writing 401 and returning false on failure: the admin token is required,
// except on a follower configured without one.
func (s *Server) authOperator(w http.ResponseWriter, r *http.Request) bool {
	if s.opts.AdminToken != "" && !repl.Authorized(r, s.opts.AdminToken) {
		writeError(w, http.StatusUnauthorized, "admin token required")
		return false
	}
	return true
}

// writeError writes an ErrorResponse with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	wire.WriteJSON(w, status, ErrorResponse{Error: msg})
}

// writeSysError answers a failed System call: a fenced node (superseded by
// a completed failover) answers a structured 409 so epoch-aware clients
// repoint; anything else answers status.
func writeSysError(w http.ResponseWriter, sys *disclosure.System, err error, status int) {
	if errors.Is(err, disclosure.ErrFenced) {
		wire.WriteJSON(w, http.StatusConflict, ErrorResponse{
			Error:    err.Error(),
			Code:     repl.CodeFenced,
			Epoch:    sys.Epoch(),
			FencedBy: sys.FencedBy(),
		})
		return
	}
	writeError(w, status, err.Error())
}

// decode parses a JSON request body into v, writing 400 (or 413 for
// oversized bodies) and returning false on failure.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// writeBodyError answers a request whose body could not be read or decoded:
// 413 when it ran past the size limit, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
}

// handleSubmit serves POST /v1/submit: one query or a batch on behalf of
// the authenticated principal. Refusals are 200 responses with structured
// refusal bodies — refusal is a policy outcome, not a transport error —
// and the body is the explanation the decision itself carries.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	b := s.backend()
	if !b.fresh(w) {
		return
	}
	principal, ok := s.authPrincipal(w, r, b)
	if !ok {
		return
	}
	// Refuse the whole batch up front when this node cannot decide at all
	// (fenced by a completed failover: 409, or decision lease expired:
	// 503, retryable once a follower reconnects) — a transport-level
	// status, not N per-query errors, so clients and load balancers see
	// the node's state. A replica has neither fence nor lease of its own,
	// so it always passes.
	if err := b.System().DecisionErr(); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, disclosure.ErrLeaseExpired) {
			status = http.StatusServiceUnavailable
		}
		writeSysError(w, b.System(), err, status)
		return
	}
	// One pooled buffer serves the whole request: the body is read into it
	// once, the query texts are decoded as views of it and prepared — a text
	// the memo knows is never copied, one it does not know is copied by the
	// parse — and once nothing points into it any more it takes the response.
	buf := respBufs.Get()
	defer respBufs.Put(buf)
	body, err := wire.ReadAll(r.Body, (*buf)[:0])
	*buf = body
	if err != nil {
		writeBodyError(w, err)
		return
	}
	req, err := decodeSubmitRequest(body)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	single := len(req.query) > 0
	if single == (len(req.queries) > 0) {
		writeError(w, http.StatusBadRequest, "set exactly one of query or queries")
		return
	}
	srcs := req.queries
	if single {
		srcs = [][]byte{req.query}
	}
	if len(srcs) > s.opts.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds the %d-query bound", len(srcs), s.opts.MaxBatch))
		return
	}
	sys := b.System()
	ps := make([]*disclosure.Prepared, len(srcs))
	for i, src := range srcs {
		if ps[i], err = sys.Prepare(src); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("query %d: %v", i, err))
			return
		}
	}
	prepared := time.Now()

	results := sys.SubmitPrepared(principal, ps)

	decided := time.Now()
	rest := encodeSubmitResponse(w, buf, principal, ps, results)
	sys.ObserveServing(prepared.Sub(arrived), time.Since(decided))
	_, _ = w.Write(rest) // a failed write is the client's disconnect
}

// encodeSubmitResponse encodes the response to results into the pooled
// buffer *buf, sized from its rows first so it grows once at most, and
// sends it length-delimited: it writes the header to w, and any full chunk,
// and returns the rest of the body for the caller to write. A body of up to
// a chunk is all rest, one Write; a larger one gets its exact length before
// its first byte leaves and is then written a chunk at a time, so the
// buffer holds no more than a chunk and what follows its last flush point.
func encodeSubmitResponse(w http.ResponseWriter, buf *[]byte, principal string, ps []*disclosure.Prepared, results []disclosure.BatchResult) []byte {
	rows, plain := rowsSize(results)
	body := (*buf)[:0]
	if need := min(rows, respChunk) + respFraming; cap(body) < need {
		body = make([]byte, 0, need) // exactly need: growing by append would round it up
	}
	w.Header().Set("Content-Type", "application/json")
	sent := false
	body = appendSubmitChunks(body, principal, ps, results, func(b []byte) []byte {
		if !sent {
			sent = true
			if !plain {
				rows += escapedSize(results)
			}
			w.Header().Set("Content-Length", strconv.Itoa(submitResponseSize(principal, ps, results, rows)))
			w.WriteHeader(http.StatusOK)
		}
		_, _ = w.Write(b)
		return b[:0]
	})
	*buf = body
	if !sent {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
	}
	return body
}

// handleExplain serves GET /v1/explain?q=...: the structured admissibility
// account of a query for the authenticated principal, without submitting
// it — session state is not advanced. On a follower it is the replica's
// session, at most the declared staleness old; the primary is never
// contacted. Labeling does go through the shared label cache, so explain
// traffic warms (and competes for) the same canonical-form entries
// submissions use.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	b := s.backend()
	if !b.fresh(w) {
		return
	}
	principal, ok := s.authPrincipal(w, r, b)
	if !ok {
		return
	}
	src := r.URL.Query().Get("q")
	if src == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	q, err := disclosure.ParseQuery(src)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	e, err := b.System().ExplainDecision(principal, q)
	if err != nil {
		if errors.Is(err, disclosure.ErrNoPolicy) {
			writeError(w, http.StatusUnauthorized, err.Error())
			return
		}
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, e)
}

// handleSetPolicy serves PUT /v1/policy/{principal}: install or replace a
// policy and rotate the principal's submission token. Replacing a policy
// resets the principal's cumulative-disclosure session, exactly like
// System.SetPolicy.
func (s *Server) handleSetPolicy(w http.ResponseWriter, r *http.Request) {
	if !s.authAdmin(w, r) {
		return
	}
	principal := r.PathValue("principal")
	var req PolicyRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Token == "" {
		writeError(w, http.StatusBadRequest, "token must be non-empty")
		return
	}
	if req.Token == s.opts.AdminToken {
		writeError(w, http.StatusBadRequest, "token must differ from the admin token")
		return
	}
	// SetPolicyAndToken refuses a token another principal holds before it
	// changes anything, and installs the policy before the token, so a
	// request that presents the new token is decided under the new policy.
	sys := s.System()
	if err := sys.SetPolicyAndToken(principal, req.Partitions, req.Token); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, disclosure.ErrTokenTaken) {
			status = http.StatusConflict
		}
		writeSysError(w, sys, err, status)
		return
	}
	wire.WriteJSON(w, http.StatusOK, PolicyResponse{Principal: principal, Partitions: len(req.Partitions)})
}

// handleRemovePolicy serves DELETE /v1/policy/{principal}: the principal's
// policy, session state and token are removed; its in-flight submissions
// fail with the no-policy error.
func (s *Server) handleRemovePolicy(w http.ResponseWriter, r *http.Request) {
	if !s.authAdmin(w, r) {
		return
	}
	principal := r.PathValue("principal")
	sys := s.System()
	if err := sys.RemovePolicy(principal); err != nil {
		// Only the durability layer can fail a removal.
		writeSysError(w, sys, err, http.StatusInternalServerError)
		return
	}
	wire.WriteJSON(w, http.StatusOK, PolicyResponse{Principal: principal})
}

// handleLoad serves POST /v1/load: bulk rows inserted through
// System.LoadBatch, so concurrent submissions observe either none or all
// of the request's rows.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if !s.authAdmin(w, r) {
		return
	}
	var req LoadRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, "rows must be non-empty")
		return
	}
	// Validate every row before loading any: LoadBatch publishes rows
	// inserted before a failure, so up-front validation is what makes a
	// bad request atomic (nothing from a failing request lands).
	sys := s.System()
	sch := sys.Catalog().Schema()
	for i, row := range req.Rows {
		rel := sch.Relation(row.Rel)
		if rel == nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("row %d: unknown relation %q", i, row.Rel))
			return
		}
		if rel.Arity() != len(row.Values) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("row %d: relation %q has arity %d, got %d values",
				i, row.Rel, rel.Arity(), len(row.Values)))
			return
		}
	}
	err := sys.LoadBatch(func(ld *disclosure.Loader) error {
		for i, row := range req.Rows {
			if err := ld.Insert(row.Rel, row.Values...); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		writeSysError(w, sys, err, http.StatusBadRequest)
		return
	}
	wire.WriteJSON(w, http.StatusOK, LoadResponse{Rows: len(req.Rows)})
}

// handleStats serves GET /v1/stats (admin token, as /metrics: its cache
// counters show which query forms other principals sent recently; never
// gated on replica lag — it is how lag is monitored). A follower reports
// its own submission counters and adds its replication block.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.authOperator(w, r) {
		return
	}
	b := s.backend()
	sys := b.System()
	wire.WriteJSON(w, http.StatusOK, b.stats(w, StatsResponse{
		SystemStats:   sys.Stats(),
		Principals:    sys.Principals(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Build:         s.build,
		Epoch:         sys.Epoch(),
	}))
}

// handleMetrics serves GET /metrics (admin token; open on a follower
// configured without one): the process-wide obs.Default registry —
// submit-pipeline stages, WAL, checkpoints — followed by this instance's
// HTTP, replication and sampled gauges, in the Prometheus text exposition
// format, so one scrape config covers both roles. Never gated on replica
// lag: a lagging follower's metrics are exactly what an operator needs.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.authOperator(w, r) {
		return
	}
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	_ = obs.ExposeAll(w, obs.Default, s.reg)
}
