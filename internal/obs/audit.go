package obs

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// AuditRecord is one line of the structured decision audit log: a
// refusal, a submission error, or a slow submission, with the identity
// of the decision (principal, query head, canonical fingerprint), its
// outcome, and the per-stage timings an operator needs to see where the
// submission spent its time. Records are written as JSONL — one JSON
// object per line — so the log is greppable and stream-parseable.
type AuditRecord struct {
	// Time is the record time in RFC3339Nano.
	Time string `json:"time"`
	// Node is the serving role that produced the record: "primary" or
	// "follower".
	Node string `json:"node"`
	// Principal is the submitting principal.
	Principal string `json:"principal"`
	// Query is the head name of the submitted query.
	Query string `json:"query,omitempty"`
	// Fingerprint is the query's canonical 64-bit fingerprint in hex —
	// the same key the label cache, plan cache and replication decision
	// RPC use, so one grep correlates a refusal across the fleet.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Outcome is "admitted", "refused" or "errored". Admitted records
	// appear only when the submission crossed the slow-query threshold.
	Outcome string `json:"outcome"`
	// Slow marks records emitted because the submission crossed the
	// slow-query threshold.
	Slow bool `json:"slow,omitempty"`
	// Error is the submission error, when Outcome is "errored".
	Error string `json:"error,omitempty"`
	// Live lists the policy partitions still live at decision time.
	Live []string `json:"live,omitempty"`
	// Offending lists the live partitions that failed to dominate the
	// query's label — the reason a refusal refused.
	Offending []string `json:"offending,omitempty"`
	// LabelMs, DecideMs and EvalMs are the stage timings of the
	// submission in milliseconds (labeling+canonicalization, reference
	// monitor including WAL wait, evaluation). Stages the submission
	// never reached are zero.
	LabelMs  float64 `json:"label_ms"`
	DecideMs float64 `json:"decide_ms"`
	EvalMs   float64 `json:"eval_ms"`
	// Rows is the number of rows an admitted submission answered with, so a
	// slow record tells a large answer from a slow join. The strings of
	// those rows are produced while the response is encoded, after the
	// stages above: a large answer's cost beyond EvalMs shows under
	// disclosure_submit_stage_seconds{stage="encode"}.
	Rows int `json:"rows,omitempty"`
	// TotalMs is the end-to-end submission time in milliseconds.
	TotalMs float64 `json:"total_ms"`
	// StalenessSeconds is the follower's replica staleness at decision
	// time (-1 before its first sync); zero on the primary.
	StalenessSeconds float64 `json:"staleness_seconds,omitempty"`
	// DecidedBy says, on a follower's admitted and refused records, whose
	// session the outcome was decided on: "primary" (the decision RPC) or
	// "replica" (a refusal the follower's own replica already implied).
	DecidedBy string `json:"decided_by,omitempty"`
}

// AuditLog is an append-only JSONL sink for AuditRecords. Log is safe
// for concurrent use: each record is marshaled outside the lock and
// written with a single Write call under it, so concurrent records
// never interleave within a line.
type AuditLog struct {
	mu sync.Mutex
	f  *os.File
}

// OpenAuditLog opens (creating, append-mode) the audit log at path.
func OpenAuditLog(path string) (*AuditLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &AuditLog{f: f}, nil
}

// Log writes one record as a JSON line, stamping Time if unset. Errors
// are returned but a failed write never blocks the decision path —
// callers log and continue. No-op on a nil AuditLog.
func (a *AuditLog) Log(rec *AuditRecord) error {
	if a == nil {
		return nil
	}
	if rec.Time == "" {
		rec.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	a.mu.Lock()
	_, err = a.f.Write(line)
	a.mu.Unlock()
	return err
}

// Close closes the underlying file. No-op on a nil AuditLog.
func (a *AuditLog) Close() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.f.Close()
}
