package wal

import (
	"encoding/json"
	"fmt"

	"repro/internal/store"
)

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
	if op.count() != 1 {
		return nil, fmt.Errorf("wal: operation must set exactly one field, has %d", op.count())
	}
	payload, err := json.Marshal(op)
	if err != nil {
		return nil, fmt.Errorf("wal: encoding operation: %w", err)
	}
	return payload, nil
}

// DecodeOp parses a record payload back into an operation. A payload that
// passed its CRC but does not decode to exactly one operation indicates a
// format incompatibility, not disk corruption, and is an error.
func DecodeOp(payload []byte) (*Op, error) {
	op := &Op{}
	if err := json.Unmarshal(payload, op); err != nil {
		return nil, fmt.Errorf("wal: decoding operation: %w", err)
	}
	if op.count() != 1 {
		return nil, fmt.Errorf("wal: operation record sets %d fields, want exactly 1", op.count())
	}
	return op, nil
}
