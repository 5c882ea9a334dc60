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

// TransitionOp records that a monitor decision moved a principal's session
// state, as the absolute state it moved to (PrincipalState's rendering).
// Replay installs it — nothing is re-parsed, re-labeled or re-decided — so
// a record applied twice is a no-op. Decisions that change nothing (every
// refusal, every admit that retires and discloses nothing new) log none.
type TransitionOp struct {
	// Principal is the session's owner.
	Principal string `json:"principal"`
	// Live lists the partitions still consistent after the decision.
	Live []string `json:"live"`
	// Cumulative is the total disclosure after it (see PrincipalState).
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

// Op is the union of state-changing operations a log record can carry;
// exactly one field is set. Reads — evaluations, explains, stats, decisions
// that leave their session where it was — are never logged: only what
// recovery needs to rebuild rows, policies, tokens and session state.
type Op struct {
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
	for _, set := range []bool{op.Rows != nil, op.Policy != nil, op.Remove != nil, op.Token != nil, op.Transition != nil, op.Epoch != nil} {
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

// PrincipalState is one principal's checkpointed policy and session: the
// partition vocabulary, which partitions are still live, the cumulative
// disclosure, and the session's decision counts. It is everything the
// reference monitor needs to keep refusing after a restart exactly what it
// refused before. The counts are soft: only checkpoints carry them.
type PrincipalState struct {
	// Name is the principal.
	Name string `json:"name"`
	// Partitions maps partition name to security-view names (the policy).
	Partitions map[string][]string `json:"partitions"`
	// Live lists the names of the partitions still consistent with the
	// queries answered so far.
	Live []string `json:"live"`
	// Cumulative is the session's total disclosure: one sorted
	// security-view name set per label atom — a rendering independent of
	// the labeler's internal bit assignment.
	Cumulative [][]string `json:"cumulative,omitempty"`
	// Accepted and Refused are the session's decision counts.
	Accepted int `json:"accepted"`
	Refused  int `json:"refused"`
}

// Checkpoint is the full serialized state of a disclosure deployment at
// one instant: the configuration (schema and security views, reusing the
// internal/store vocabulary), every table row, every principal's policy
// and session, and the serving layer's submission tokens. Recovery loads
// the newest checkpoint and replays the log tail on top.
type Checkpoint struct {
	// Generation is the checkpoint's generation number; the paired
	// wal-<shard>-<generation>.log segment holds the operations logged
	// after it.
	Generation uint64 `json:"generation"`
	// Shard names the shard this checkpoint captures: MetaShard for the
	// deployment-wide state (configuration and rows), a data-shard index
	// for a slice of the principal space. Empty in pre-sharding archives.
	Shard string `json:"shard,omitempty"`
	// Shards is the deployment's data-shard count, recorded so recovery
	// can refuse a re-partitioned open (the principal → shard routing is
	// a function of this count).
	Shards int `json:"shards,omitempty"`
	// Epoch is the decision epoch the state was captured under. Zero in
	// pre-epoch archives, which load as epoch 1 (the first epoch every
	// deployment starts at).
	Epoch uint64 `json:"epoch,omitempty"`
	// FencedBy, when non-zero, records that this node was fenced by a
	// higher decision epoch; recovery keeps refusing decisions.
	FencedBy uint64 `json:"fenced_by,omitempty"`
	// Config is the schema and security-view catalog (store.Config with
	// its Policies field unused — policies live in Principals, with their
	// session state).
	Config *store.Config `json:"config"`
	// Rows holds every table row, grouped by schema relation order.
	Rows []Row `json:"rows,omitempty"`
	// Principals holds per-principal policy and session state.
	Principals []PrincipalState `json:"principals,omitempty"`
	// Tokens maps principal to its current submission token.
	Tokens map[string]string `json:"tokens,omitempty"`
}

// EncodeCheckpoint serializes a checkpoint into a snapshot-file payload.
func EncodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	if ck.Config == nil {
		return nil, fmt.Errorf("wal: checkpoint must carry a configuration")
	}
	payload, err := json.Marshal(ck)
	if err != nil {
		return nil, fmt.Errorf("wal: encoding checkpoint: %w", err)
	}
	return payload, nil
}

// DecodeCheckpoint parses a snapshot-file payload back into a checkpoint.
func DecodeCheckpoint(payload []byte) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := json.Unmarshal(payload, ck); err != nil {
		return nil, fmt.Errorf("wal: decoding checkpoint: %w", err)
	}
	if ck.Config == nil {
		return nil, fmt.Errorf("wal: checkpoint carries no configuration")
	}
	return ck, nil
}
