package repl

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	disclosure "repro"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Primary serves one durable deployment's replication surface: its shard
// tails, checkpoint files, committed segment bytes, and the delegated
// decision RPC. Mount Handler under /v1/repl/ (the serving layer's
// Options.Repl does this); every endpoint requires the replication bearer
// token.
//
// The primary never re-frames anything: checkpoints and segments are
// served as the bytes the durability layer wrote, so the CRC framing that
// protects the log on disk protects it on the wire too, and a follower's
// replay is byte-for-byte the replay a local recovery would run.
type Primary struct {
	dur   *disclosure.Durable
	token string
	// fencedRejections counts requests refused because this node is fenced
	// or the request carried a conflicting epoch.
	fencedRejections atomic.Uint64
}

// DefaultMaxChunk bounds the bytes served by one segment request, and what a
// follower reads of any reply but a checkpoint's.
const DefaultMaxChunk = 1 << 20

// NewPrimary wires the replication surface over an open durable
// deployment. token authenticates followers; it must be non-empty.
func NewPrimary(d *disclosure.Durable, token string) (*Primary, error) {
	if token == "" {
		return nil, fmt.Errorf("repl: replication token must be non-empty")
	}
	return &Primary{dur: d, token: token}, nil
}

// Handler returns the replication endpoints as one handler, routed by full
// /v1/repl/... paths so it mounts directly on the serving layer's mux.
func (p *Primary) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/tails", p.auth(p.handleTails))
	mux.HandleFunc("GET /v1/repl/checkpoint", p.auth(p.handleCheckpoint))
	mux.HandleFunc("GET /v1/repl/segment", p.auth(p.handleSegment))
	mux.HandleFunc("POST /v1/repl/decide", p.auth(p.handleDecide))
	return mux
}

// RegisterMetrics registers the primary's failover metric families:
// the decision epoch gauge and the fenced-rejection counter.
func (p *Primary) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("disclosure_epoch",
		"Decision epoch this node decides under.",
		func() float64 { return float64(p.dur.Epoch()) })
	reg.CounterFunc("disclosure_fenced_rejections_total",
		"Replication and decision requests refused for epoch reasons (node fenced, or conflicting request epoch).",
		p.fencedRejections.Load)
}

// auth wraps a handler with the replication bearer-token check and the
// epoch fence. Every authenticated response carries this node's epoch in
// HeaderEpoch; every authenticated request renews the served deployment's
// decision lease (disclosure.Durable.Lease), whose expiry gates its
// decisions.
//
// Fencing rules, in order:
//
//  1. A fenced node (a higher epoch has superseded it) refuses its whole
//     replication surface with 409 CodeFenced — a follower must never
//     catch up from, or delegate decisions to, a failover leftover.
//  2. A request stamped with an epoch above this node's proves a completed
//     failover this node missed: the node fences itself durably and
//     refuses with 409 CodeStaleEpoch.
//
// A request stamped with a LOWER epoch is allowed through here: that is a
// stale follower catching up, and the fetch endpoints are exactly how it
// resyncs. Only the decision RPC refuses lower epochs (handleDecide) —
// deciding for a follower that evaluates under an older epoch would split
// the decision history.
func (p *Primary) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !Authorized(r, p.token) {
			replError(w, http.StatusUnauthorized, "replication token required")
			return
		}
		p.dur.Lease().Renew()
		epoch := p.dur.Epoch()
		w.Header().Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
		if by := p.dur.FencedBy(); by != 0 {
			p.refuseFenced(w, fmt.Sprintf("node is fenced: epoch %d superseded by %d", epoch, by))
			return
		}
		if reqEpoch := requestEpoch(r); reqEpoch > epoch {
			p.dur.Fence(reqEpoch)
			p.fencedRejections.Add(1)
			wire.WriteJSON(w, http.StatusConflict, ErrorResponse{
				Error:        fmt.Sprintf("request epoch %d supersedes this node's epoch %d: node is now fenced", reqEpoch, epoch),
				Code:         CodeStaleEpoch,
				Epoch:        epoch,
				RequestEpoch: reqEpoch,
				FencedBy:     reqEpoch,
			})
			return
		}
		h(w, r)
	}
}

// refuseFenced answers a request this fenced node must not serve.
func (p *Primary) refuseFenced(w http.ResponseWriter, msg string) {
	p.fencedRejections.Add(1)
	wire.WriteJSON(w, http.StatusConflict, ErrorResponse{Error: msg, Code: CodeFenced, Epoch: p.dur.Epoch(), FencedBy: p.dur.FencedBy()})
}

// requestEpoch parses the epoch a request was stamped with: zero when
// absent or malformed, which is below every node's epoch.
func requestEpoch(r *http.Request) uint64 {
	e, _ := strconv.ParseUint(r.Header.Get(HeaderEpoch), 10, 64)
	return e
}

// replError writes an ErrorResponse with the given status.
func replError(w http.ResponseWriter, status int, msg string) {
	wire.WriteJSON(w, status, ErrorResponse{Error: msg})
}

// handleTails serves GET /v1/repl/tails. A pull that asks for a read lease
// (HeaderLease, HeaderLeaseWindow) gets it recorded
// (disclosure.Durable.GrantReadLease) before the tails are read, so the
// tails it answers with contain every state change committed before the
// grant; TailsResponse.Lease tells the follower whether it was granted.
func (p *Primary) handleTails(w http.ResponseWriter, r *http.Request) {
	resp := TailsResponse{Epoch: p.dur.Epoch()}
	if id := r.Header.Get(HeaderLease); id != "" {
		window, err := time.ParseDuration(r.Header.Get(HeaderLeaseWindow))
		resp.Lease = err == nil && p.dur.GrantReadLease(id, window)
	}
	resp.Shards = p.dur.ShardTails()
	wire.WriteJSON(w, http.StatusOK, resp)
}

// handleCheckpoint serves GET /v1/repl/checkpoint?shard=S: the shard's
// current-generation checkpoint file, byte for byte (its header record
// names the generation). The current generation's checkpoint always exists
// (rotation writes it before publishing the generation), but a racing
// double rotation can prune it between the tails read and the file read —
// the 404 makes the follower simply retry its bootstrap.
func (p *Primary) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	shard := r.URL.Query().Get("shard")
	cur, ok := p.dur.ShardTails()[shard]
	if !ok {
		replError(w, http.StatusNotFound, fmt.Sprintf("unknown shard %q", shard))
		return
	}
	file, err := os.ReadFile(wal.ShardCheckpointPath(p.dur.Dir(), shard, cur.Gen))
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, os.ErrNotExist) {
			status = http.StatusNotFound
		}
		replError(w, status, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(file)
}

// handleSegment serves GET /v1/repl/segment?shard=S&gen=G&off=O&max=M: raw
// framed bytes of one segment, clamped to its committed size so a follower
// never reads into a commit window that could still fail and be truncated.
// A pruned generation is 404 (resync from a checkpoint); an offset past
// the committed size is 409 (the follower has bytes the primary does not —
// divergence after a primary restart — and must resync).
func (p *Primary) handleSegment(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	shard := q.Get("shard")
	gen, err := strconv.ParseUint(q.Get("gen"), 10, 64)
	if err != nil {
		replError(w, http.StatusBadRequest, "bad gen parameter")
		return
	}
	off, err := strconv.ParseInt(q.Get("off"), 10, 64)
	if err != nil || off < 0 {
		replError(w, http.StatusBadRequest, "bad off parameter")
		return
	}
	max := DefaultMaxChunk
	if s := q.Get("max"); s != "" {
		m, err := strconv.Atoi(s)
		if err != nil || m <= 0 {
			replError(w, http.StatusBadRequest, "bad max parameter")
			return
		}
		if m < max {
			max = m
		}
	}
	cur, ok := p.dur.ShardTails()[shard]
	if !ok {
		replError(w, http.StatusNotFound, fmt.Sprintf("unknown shard %q", shard))
		return
	}
	if gen > cur.Gen {
		replError(w, http.StatusNotFound, fmt.Sprintf("shard %s has no generation %d", shard, gen))
		return
	}
	sealed := gen < cur.Gen
	chunk, size, err := wal.ReadSegmentAt(wal.ShardSegmentPath(p.dur.Dir(), shard, gen), off, max)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, os.ErrNotExist) {
			status = http.StatusNotFound
		}
		replError(w, status, err.Error())
		return
	}
	limit := size
	if !sealed {
		// The live segment is served only up to the group-commit committed
		// offset; the file may be longer while a window is in flight.
		limit = cur.Off
	}
	if off > limit {
		replError(w, http.StatusConflict,
			fmt.Sprintf("offset %d is past shard %s generation %d committed size %d", off, shard, gen, limit))
		return
	}
	if end := off + int64(len(chunk)); end > limit {
		chunk = chunk[:limit-off]
	}
	w.Header().Set(HeaderSealed, strconv.FormatBool(sealed))
	w.Header().Set(HeaderLimit, strconv.FormatInt(limit, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(chunk)
}

// handleDecide serves POST /v1/repl/decide: the primary's half of a
// follower submission. The primary derives the canonical key itself — from
// its own memo when it has prepared these exact bytes before, from its own
// parse otherwise; either way it is the authority — and the follower's
// fingerprint is only cross-checked against it, so a node pair that
// canonicalizes the same query differently (version skew, or a query
// corrupted in transit) turns into a hard 409 instead of a decision about a
// different canonical form than the one the follower will evaluate. The
// decision itself is System.DecidePrepared: labeled, durably logged,
// session state advanced, exactly as a local submission — which is what
// makes the follower's replicated copy of the session converge to it. The
// request is read into a pooled buffer and scanned, and the response is
// appended into the same buffer and written with its length (codec.go).
func (p *Primary) handleDecide(w http.ResponseWriter, r *http.Request) {
	buf := decideBufs.Get()
	defer decideBufs.Put(buf)
	body, err := wire.ReadAll(r.Body, (*buf)[:0])
	*buf = body
	if err != nil {
		replError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	req, err := decodeDecideRequest(body)
	if err != nil {
		replError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// Unlike the fetch endpoints, deciding requires epoch agreement both
	// ways: a follower below this node's epoch — a body with no epoch
	// included — predates a failover this node won and must resync before
	// delegating again. (Requests above this node's epoch were already
	// fenced in auth.)
	if myEpoch := p.dur.Epoch(); req.epoch < myEpoch {
		p.fencedRejections.Add(1)
		wire.WriteJSON(w, http.StatusConflict, ErrorResponse{
			Error:        fmt.Sprintf("decision request epoch %d is behind this primary's epoch %d: resync first", req.epoch, myEpoch),
			Code:         CodeStaleEpoch,
			Epoch:        myEpoch,
			RequestEpoch: req.epoch,
		})
		return
	}
	sys := p.dur.System()
	query, err := sys.Prepare(req.query)
	if err != nil {
		replError(w, http.StatusBadRequest, err.Error())
		return
	}
	var fpb [16]byte
	if fp := strconv.AppendUint(fpb[:0], query.Fingerprint, 16); len(req.fingerprint) > 0 && !bytes.Equal(req.fingerprint, fp) {
		replError(w, http.StatusConflict,
			fmt.Sprintf("canonical fingerprint mismatch (follower %s, primary %s): node versions have drifted", req.fingerprint, fp))
		return
	}
	dec, err := sys.DecidePrepared(req.principal, query)
	if err != nil {
		switch {
		case errors.Is(err, disclosure.ErrFenced):
			// Fenced between the auth check and the decision (a concurrent
			// request from the new epoch won the race).
			p.refuseFenced(w, err.Error())
		case errors.Is(err, disclosure.ErrLeaseExpired):
			replError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, disclosure.ErrNoPolicy):
			replError(w, http.StatusUnauthorized, err.Error())
		default:
			replError(w, http.StatusUnprocessableEntity, err.Error())
		}
		return
	}
	*buf = appendDecideResponse((*buf)[:0], &DecideResponse{Allowed: dec.Allowed, Live: dec.Live, Refusal: dec.Refusal})
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(*buf)))
	_, _ = w.Write(*buf)
}
