package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/store"
	"repro/internal/wire"
)

// This file is the one codec of the record payloads. EncodeOp and AppendOp
// write the bytes json.Marshal writes for an Op, so the format on disk and
// on the replication stream is the JSON it has always been. The records
// whose number grows with the state and the traffic are appended with
// package wire's encoders:
//
//	{"rows":{"rows":[{"rel":"…","values":["…",…]},…]}}
//	{"transition":{"principal":"…","live":["…",…],"cumulative":[["…",…],…]}}   (cumulative omitted when empty)
//	{"policy":{"principal":"…","partitions":{"…":["…",…],…}}}                   (keys sorted)
//	{"token":{"principal":"…","token":"…"}}
//	{"remove":{"principal":"…"}}
//
// Header and epoch records, one or two per checkpoint, are json.Marshal's:
// a header's store.Config keeps the format its own JSON tags give it.
//
// DecodeOp scans those five shapes: keys in that order and spelling,
// whitespace only after the last brace, null where the encoder writes it,
// and strings with no escape or control byte whose other bytes are
// well-formed UTF-8 (wire.Scanner.Unescaped and Strings) — which
// encoding/json decodes to their own bytes. A payload holding a backslash
// is declined before it is copied, so a record with an escaped string
// costs one byte search more than encoding/json alone. Every other payload — a legacy transition's tallies, a key in
// another case, the header and epoch records — is declined to
// encoding/json on the same bytes. FuzzDecodeOpJSON and FuzzEncodeOpJSON
// hold the two equal to encoding/json.

// Row is one relation tuple in its external string form — the unit of the
// row-insertion operation and of checkpointed table contents.
type Row struct {
	// Rel is the relation name.
	Rel string `json:"rel"`
	// Values are the tuple's constants, in attribute order.
	Values []string `json:"values"`
}

// RowsOp records a batch of row insertions (a LoadBatch, or a single
// Insert as a one-row batch). The batch is one record, so recovery
// restores it atomically: all of its rows or — if the record is torn —
// none of them.
type RowsOp struct {
	// Rows are the inserted rows, duplicates already excluded.
	Rows []Row `json:"rows"`
}

// PolicyOp records a policy installation or replacement; replaying it
// resets the principal's session, exactly like the live operation.
type PolicyOp struct {
	// Principal is the policy's owner.
	Principal string `json:"principal"`
	// Partitions maps partition name to security-view names.
	Partitions map[string][]string `json:"partitions"`
}

// RemoveOp records a principal's removal (policy, session state and
// submission token).
type RemoveOp struct {
	// Principal is the removed principal.
	Principal string `json:"principal"`
}

// TokenOp records a submission-token installation or rotation for a
// principal (the serving layer's credential state).
type TokenOp struct {
	// Principal owns the token.
	Principal string `json:"principal"`
	// Token is the bearer token that authenticates the principal.
	Token string `json:"token"`
}

// TransitionOp records a principal's session state as an absolute value:
// in a log segment the state a monitor decision moved the session to, in a
// checkpoint the state the session was captured in. Replay installs it —
// nothing is re-parsed, re-labeled or re-decided — so a record applied
// twice is a no-op. Decisions that change nothing (every refusal, every
// admit that retires and discloses nothing new) log none.
type TransitionOp struct {
	// Principal is the session's owner.
	Principal string `json:"principal"`
	// Live lists the partitions still consistent with the queries answered
	// so far.
	Live []string `json:"live"`
	// Cumulative is the session's total disclosure: one sorted
	// security-view name set per label atom — a rendering independent of
	// the labeler's internal bit assignment.
	Cumulative [][]string `json:"cumulative,omitempty"`
}

// EpochOp records a decision-epoch event in the meta shard's log. With
// Fenced false it stamps the epoch this deployment decides under — written
// at initialization and at follower promotion, so the epoch is part of the
// replayable history and not ambient state. With Fenced true it records
// that this node learned a higher epoch supersedes its own: replaying it
// re-fences the node without adopting the foreign epoch, so a fenced
// primary stays fenced across restarts.
type EpochOp struct {
	// Epoch is the decision epoch the record announces (Fenced false) or
	// the superseding epoch the node was fenced by (Fenced true).
	Epoch uint64 `json:"epoch"`
	// Fenced marks a fencing record: the node at a lower epoch observed
	// this one and must refuse decisions from then on.
	Fenced bool `json:"fenced,omitempty"`
}

// HeaderOp is the first record of every checkpoint file and appears nowhere
// else. It names the file's place in the directory, says how many records
// follow it — a checkpoint that does not hold exactly that many is not
// loadable (CheckpointRecords) — and, on the meta shard, carries the
// configuration the System is built from before any other record applies.
type HeaderOp struct {
	// Shard is the log the checkpoint captures: MetaShard or DataShard.
	// Recovery loads a checkpoint only if it names the file's own log and
	// generation.
	Shard string `json:"shard"`
	// Shards is the deployment's data-log count. It is always written as 1,
	// which is what releases that split principals across several data
	// shards expect of a one-shard directory; recovery refuses any other
	// value.
	Shards int `json:"shards"`
	// Generation is the checkpoint's generation; the paired
	// wal-<shard>-<generation>.log holds the operations logged after it.
	Generation uint64 `json:"generation"`
	// Records is the number of records that follow the header.
	Records int `json:"records"`
	// Config is the schema and security-view catalog (meta shard only; its
	// Policies field is unused — policies are PolicyOp records).
	Config *store.Config `json:"config,omitempty"`
}

// Op is the one record vocabulary of the durability layer: a log segment is
// a sequence of the state-changing operations below, and a checkpoint is a
// HeaderOp followed by the same records describing a state outright.
// Exactly one field is set. Reads — evaluations, explains, stats, decisions
// that leave their session where it was — are never logged: only what
// recovery needs to rebuild rows, policies, tokens and session state.
type Op struct {
	// Header opens a checkpoint file.
	Header *HeaderOp `json:"header,omitempty"`
	// Rows is a row-insertion batch.
	Rows *RowsOp `json:"rows,omitempty"`
	// Policy is a policy installation.
	Policy *PolicyOp `json:"policy,omitempty"`
	// Remove is a principal removal.
	Remove *RemoveOp `json:"remove,omitempty"`
	// Token is a submission-token installation.
	Token *TokenOp `json:"token,omitempty"`
	// Transition is a session-state change made by a monitor decision.
	Transition *TransitionOp `json:"transition,omitempty"`
	// Epoch is a decision-epoch stamp or fencing record (meta shard only).
	Epoch *EpochOp `json:"epoch,omitempty"`
}

// count returns the number of set operation fields.
func (op *Op) count() int {
	n := 0
	for _, set := range []bool{op.Header != nil, op.Rows != nil, op.Policy != nil, op.Remove != nil, op.Token != nil, op.Transition != nil, op.Epoch != nil} {
		if set {
			n++
		}
	}
	return n
}

// EncodeOp serializes an operation into a record payload, validating that
// exactly one operation field is set.
func EncodeOp(op *Op) ([]byte, error) {
	size := 128
	if op.Rows != nil {
		size = rowsSize(op.Rows)
	}
	return AppendOp(make([]byte, 0, size), op)
}

// AppendOp is EncodeOp appending to dst: a writer that frames records in
// one reused buffer encodes each in place.
func AppendOp(dst []byte, op *Op) ([]byte, error) {
	if n := op.count(); n != 1 {
		return dst, fmt.Errorf("wal: operation must set exactly one field, has %d", n)
	}
	switch {
	case op.Rows != nil:
		return appendRows(dst, op.Rows), nil
	case op.Transition != nil:
		return appendTransition(dst, op.Transition), nil
	case op.Policy != nil:
		return appendPolicy(dst, op.Policy), nil
	case op.Token != nil:
		return appendToken(dst, op.Token), nil
	case op.Remove != nil:
		return appendRemove(dst, op.Remove), nil
	}
	payload, err := json.Marshal(op)
	if err != nil {
		return dst, fmt.Errorf("wal: encoding operation: %w", err)
	}
	return append(dst, payload...), nil
}

// rowsSize is the length of a rows record whose strings need no escape.
func rowsSize(op *RowsOp) int {
	n := len(`{"rows":{"rows":[]}}`)
	for _, r := range op.Rows {
		n += len(`{"rel":"","values":[]},`) + len(r.Rel)
		for _, v := range r.Values {
			n += len(`"",`) + len(v)
		}
	}
	return n
}

func appendRows(dst []byte, op *RowsOp) []byte {
	dst = append(dst, `{"rows":{"rows":`...)
	if op.Rows == nil {
		return append(dst, `null}}`...)
	}
	dst = append(dst, '[')
	for i := range op.Rows {
		r := &op.Rows[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"rel":`...)
		dst = wire.AppendString(dst, r.Rel)
		dst = append(dst, `,"values":`...)
		dst = wire.AppendStrings(dst, r.Values)
		dst = append(dst, '}')
	}
	return append(dst, "]}}"...)
}

func appendTransition(dst []byte, op *TransitionOp) []byte {
	dst = append(dst, `{"transition":{"principal":`...)
	dst = wire.AppendString(dst, op.Principal)
	dst = append(dst, `,"live":`...)
	dst = wire.AppendStrings(dst, op.Live)
	if len(op.Cumulative) > 0 {
		dst = append(dst, `,"cumulative":[`...)
		for i, set := range op.Cumulative {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = wire.AppendStrings(dst, set)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}}"...)
}

func appendPolicy(dst []byte, op *PolicyOp) []byte {
	dst = append(dst, `{"policy":{"principal":`...)
	dst = wire.AppendString(dst, op.Principal)
	dst = append(dst, `,"partitions":`...)
	dst = appendPartitions(dst, op.Partitions)
	return append(dst, "}}"...)
}

func appendToken(dst []byte, op *TokenOp) []byte {
	dst = append(dst, `{"token":{"principal":`...)
	dst = wire.AppendString(dst, op.Principal)
	dst = append(dst, `,"token":`...)
	dst = wire.AppendString(dst, op.Token)
	return append(dst, "}}"...)
}

func appendRemove(dst []byte, op *RemoveOp) []byte {
	dst = append(dst, `{"remove":{"principal":`...)
	dst = wire.AppendString(dst, op.Principal)
	return append(dst, "}}"...)
}

// appendPartitions appends a policy's partitions as encoding/json writes
// the map: null when nil, otherwise its entries in sorted key order.
func appendPartitions(dst []byte, m map[string][]string) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '{')
	for i, k := range slices.Sorted(maps.Keys(m)) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = wire.AppendString(dst, k)
		dst = append(dst, ':')
		dst = wire.AppendStrings(dst, m[k])
	}
	return append(dst, '}')
}

// DecodeOp parses a record payload back into an operation. A payload that
// passed its CRC but does not decode to exactly one operation indicates a
// format incompatibility, not disk corruption, and is an error.
func DecodeOp(payload []byte) (*Op, error) {
	var op *Op
	ok := false
	// A payload with an escape is declined before it is copied.
	if bytes.IndexByte(payload, '\\') < 0 {
		op, ok = scanOp(string(payload))
	}
	if !ok {
		// The decline path: encoding/json's accept/reject behaviour, error
		// texts and values are the only ones there are.
		op = &Op{}
		if err := json.Unmarshal(payload, op); err != nil {
			return nil, fmt.Errorf("wal: decoding operation: %w", err)
		}
	}
	if op.count() != 1 {
		return nil, fmt.Errorf("wal: operation record sets %d fields, want exactly 1", op.count())
	}
	return op, nil
}

// opScanner scans the payload, copied once into a string every decoded
// string is a substring of.
type opScanner struct{ wire.Scanner[string] }

// scanOp recognizes the encoder's shapes; ok is false for any other input,
// valid or not.
func scanOp(body string) (op *Op, ok bool) {
	sc := opScanner{Scanner: wire.Scanner[string]{Body: body}}
	op = &Op{}
	switch {
	case sc.Lit(`{"rows":{"rows":`):
		op.Rows, ok = sc.rows()
	case sc.Lit(`{"transition":{"principal":`):
		op.Transition, ok = sc.transition()
	case sc.Lit(`{"policy":{"principal":`):
		op.Policy, ok = sc.policy()
	case sc.Lit(`{"token":{"principal":`):
		t := &TokenOp{}
		var named bool
		if t.Principal, named = sc.Unescaped(); named && sc.Lit(`,"token":`) {
			t.Token, ok = sc.Unescaped()
			op.Token, ok = t, ok && sc.Lit("}")
		}
	case sc.Lit(`{"remove":{"principal":`):
		r := &RemoveOp{}
		r.Principal, ok = sc.Unescaped()
		op.Remove, ok = r, ok && sc.Lit("}")
	}
	return op, ok && sc.End()
}

// rows scans a RowsOp after its key. No string in the accepted shape holds
// a quote, so every quote in the rest of the body is structural: a row costs
// six of them and a cell two, and the two counts size the row slice and
// the cell backing exactly.
func (sc *opScanner) rows() (*RowsOp, bool) {
	op := &RowsOp{}
	if sc.Lit("null") {
		return op, sc.Lit("}")
	}
	if !sc.Lit("[") {
		return nil, false
	}
	rest := sc.Body[sc.Pos:]
	n := strings.Count(rest, `{"rel":`)
	op.Rows = make([]Row, 0, n)
	sc.Cells = make([]string, 0, max(0, strings.Count(rest, `"`)/2-3*n))
	for more := !sc.Lit("]"); more; {
		var r Row
		var ok bool
		if !sc.Lit(`{"rel":`) {
			return nil, false
		}
		if r.Rel, ok = sc.Unescaped(); !ok || !sc.Lit(`,"values":`) {
			return nil, false
		}
		if r.Values, ok = sc.Strings(); !ok || !sc.Lit("}") {
			return nil, false
		}
		op.Rows = append(op.Rows, r)
		if more, ok = sc.More(); !ok {
			return nil, false
		}
	}
	return op, sc.Lit("}")
}

// transition scans a TransitionOp after its principal key.
func (sc *opScanner) transition() (*TransitionOp, bool) {
	op := &TransitionOp{}
	var ok bool
	if op.Principal, ok = sc.Unescaped(); !ok || !sc.Lit(`,"live":`) {
		return nil, false
	}
	if op.Live, ok = sc.Strings(); !ok {
		return nil, false
	}
	if sc.Lit(`,"cumulative":`) && !sc.Lit("null") {
		if !sc.Lit("[") {
			return nil, false
		}
		op.Cumulative = [][]string{}
		for more := !sc.Lit("]"); more; {
			set, ok := sc.Strings()
			if !ok {
				return nil, false
			}
			op.Cumulative = append(op.Cumulative, set)
			if more, ok = sc.More(); !ok {
				return nil, false
			}
		}
	}
	return op, sc.Lit("}")
}

// policy scans a PolicyOp after its principal key. A repeated partition
// name keeps its last value, as encoding/json does.
func (sc *opScanner) policy() (*PolicyOp, bool) {
	op := &PolicyOp{}
	var ok bool
	if op.Principal, ok = sc.Unescaped(); !ok || !sc.Lit(`,"partitions":`) {
		return nil, false
	}
	if !sc.Lit("null") {
		if !sc.Lit("{") {
			return nil, false
		}
		op.Partitions = map[string][]string{}
		for more := !sc.Lit("}"); more; {
			name, ok := sc.Unescaped()
			if !ok || !sc.Lit(":") {
				return nil, false
			}
			if op.Partitions[name], ok = sc.Strings(); !ok {
				return nil, false
			}
			if more = sc.Lit(","); !more && !sc.Lit("}") {
				return nil, false
			}
		}
	}
	return op, sc.Lit("}")
}
