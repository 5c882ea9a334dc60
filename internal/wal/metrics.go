package wal

import "repro/internal/obs"

// The WAL's collectors live on the process-wide registry: every GroupLog
// in the process (all shards, all generations) shares them, they exist
// at zero from process start, and rotation to a new segment keeps the
// same series. Updates are allocation-free (internal/obs), so the
// group-commit hot path keeps its cost profile.
var (
	metricFsyncWait = obs.Default.Histogram("disclosure_wal_fsync_wait_seconds",
		"Time a WaitDurable caller blocked until its commit window was durable (callers whose window already was — a decision that logged nothing — are not observed).",
		obs.LatencyBuckets)
	metricWindowFrames = obs.Default.Histogram("disclosure_wal_commit_window_frames",
		"Frames coalesced into one committed group-commit window (one write, one fsync).",
		obs.CountBuckets)
	metricCommitSeconds = obs.Default.Histogram("disclosure_wal_commit_seconds",
		"Duration of one window commit: the buffered write plus the fsync in sync mode.",
		obs.LatencyBuckets)
	metricCommitWindows = obs.Default.Counter("disclosure_wal_commit_windows_total",
		"Committed group-commit windows.")
	metricPoisoned = obs.Default.Counter("disclosure_wal_poisoned_total",
		"Group logs poisoned by a write or sync failure (sticky until restart/recovery).")
)
