package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// ErrLogClosed is the sticky error a GroupLog reports once Close has run;
// records committed before the close still report durable success.
var ErrLogClosed = errors.New("wal: log is closed")

// GroupLog is an append-only record log with a group-commit pipeline:
// concurrent appenders coalesce into one buffered write and one fsync per
// commit window instead of paying a write+fsync each. The first waiter of
// a window becomes its commit leader — it takes the whole buffered batch,
// writes it with a single syscall and syncs once — while the other
// appenders of the window block until the leader announces durability.
// Under a single appender the pipeline degenerates to one write plus one
// fsync per record; under N concurrent appenders the fsync cost is
// amortized across the window.
//
// The two-phase API keeps log order equal to apply order without holding
// any lock across the fsync: Enqueue buffers the framed record and
// reserves its position (callers serialize Enqueue with state application
// under their own mutex), then WaitDurable blocks — outside that mutex —
// until the record's commit window is on disk. Append combines both for
// callers without an apply step.
//
// Failure model: a write or sync error poisons the log — the file offset
// may sit inside a torn frame — so every pending and future operation
// fails with the same sticky error until the process restarts and
// recovers (recovery truncates the torn tail). Records whose window
// committed before the error keep reporting success.
type GroupLog struct {
	mu   sync.Mutex
	cond *sync.Cond

	f        *os.File
	fsync    bool         // sync on every commit window
	syncFile func() error // the commit-window fsync: f.Sync outside tests (SetSyncFunc)

	buf     []byte // frames of the window currently accepting appends
	frames  int    // record count of the open window (window-occupancy metric)
	epoch   uint64 // window open for appends (first window is 1)
	durable uint64 // newest window known durable
	leading bool   // a leader is writing the taken window
	off     int64  // file offset after the newest committed window
	err     error  // sticky failure (or ErrLogClosed)
}

// CreateGroup creates (or truncates) a group-commit log at path, syncing
// the parent directory so the file's existence survives a crash. With
// fsync set every commit window is fsynced before its waiters unblock.
func CreateGroup(path string, fsync bool) (*GroupLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", path, err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return newGroup(f, fsync), nil
}

// OpenAppendGroup opens the log at path for group-commit appending, first
// truncating it to validLen — the valid prefix a prior Replay reported — so
// a torn tail from a crash is physically discarded before any new record
// lands after it. The file is created empty if it does not exist.
func OpenAppendGroup(path string, validLen int64, fsync bool) (*GroupLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate %s to %d: %w", path, validLen, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	g := newGroup(f, fsync)
	g.off = validLen
	return g, nil
}

func newGroup(f *os.File, fsync bool) *GroupLog {
	g := &GroupLog{f: f, fsync: fsync, syncFile: f.Sync, epoch: 1}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// SetSyncFunc replaces the fsync a sync-mode log issues per commit window.
// It is a test seam — a test blocks or fails the sync to hold a window
// open between "written" and "durable" — and must be called before the
// log is shared.
func (g *GroupLog) SetSyncFunc(fn func() error) { g.syncFile = fn }

// CommittedOffset returns the file offset after the newest committed
// window: every byte below it holds whole frames the log has written (and,
// in sync mode, fsynced). The replication layer serves a live segment only
// up to this offset, so a follower never streams bytes from a window whose
// commit could still fail and be truncated on recovery.
func (g *GroupLog) CommittedOffset() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.off
}

// Enqueue frames payload into the open commit window and returns the
// window number to pass to WaitDurable. Callers that must keep log order
// equal to apply order call Enqueue and apply state under one mutex, then
// WaitDurable after releasing it.
func (g *GroupLog) Enqueue(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(payload), MaxRecordBytes)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return 0, g.err
	}
	g.buf = appendFrame(g.buf, payload)
	g.frames++
	return g.epoch, nil
}

// WaitDurable blocks until window e is durable (written, and fsynced when
// the log syncs) or the log has failed. The calling goroutine may be
// drafted as the commit leader: if e is not durable and no leader is
// writing, the caller commits the open window itself — syncing once for
// every record buffered in it — and then announces the result.
//
// Before leading, the caller yields the scheduler once. When the log is
// idle at arrival (the previous window already synced) the window would
// otherwise hold a single record and the pipeline would degenerate to one
// fsync per operation; the yield lets every submitter already past its
// compute finish Enqueue first, so their frames share the window — and
// the fsync. On an uncontended log the yield costs one scheduler pass.
//
// A window that is already durable on arrival returns at once and is not
// counted as a wait: that is the steady state of callers passing an ack
// barrier for a record they did not write.
func (g *GroupLog) WaitDurable(e uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.durable >= e {
		return nil
	}
	t0 := time.Now()
	yielded := false
	for {
		if g.durable >= e {
			metricFsyncWait.Observe(time.Since(t0).Seconds())
			return nil
		}
		if g.err != nil {
			return g.err
		}
		if g.leading {
			g.cond.Wait()
			continue
		}
		if !yielded {
			yielded = true
			g.mu.Unlock()
			runtime.Gosched()
			g.mu.Lock()
			continue
		}
		// No leader and our window is not durable, so our frame is still
		// buffered in the open window (windows commit in order): lead it.
		g.commitLocked()
	}
}

// Append frames, commits and waits for one record — the one-shot form of
// Enqueue + WaitDurable for callers without an apply step between them.
func (g *GroupLog) Append(payload []byte) error {
	e, err := g.Enqueue(payload)
	if err != nil {
		return err
	}
	return g.WaitDurable(e)
}

// commitLocked takes the open window and commits it: one write of every
// buffered frame, one fsync in sync mode. The GroupLog mutex is held on
// entry and on exit but released around the file operations, which is
// what lets the next window fill while this one syncs. On error the log
// is poisoned for every pending and future record.
func (g *GroupLog) commitLocked() {
	buf := g.buf
	g.buf = nil
	frames := g.frames
	g.frames = 0
	e := g.epoch
	g.epoch++
	g.leading = true
	g.mu.Unlock()

	t0 := time.Now()
	var err error
	if len(buf) > 0 {
		_, err = g.f.Write(buf)
	}
	if err == nil && g.fsync {
		err = g.syncFile()
	}

	g.mu.Lock()
	g.leading = false
	if err != nil {
		if g.err == nil {
			g.err = fmt.Errorf("wal: commit: %w", err)
			metricPoisoned.Inc()
		}
	} else {
		g.durable = e
		g.off += int64(len(buf))
		metricCommitWindows.Inc()
		metricCommitSeconds.Observe(time.Since(t0).Seconds())
		if frames > 0 {
			metricWindowFrames.Observe(float64(frames))
		}
	}
	g.cond.Broadcast()
}

// Flush commits any buffered window and forces everything written so far
// to stable storage, regardless of sync mode — the pre-rotation barrier:
// after Flush returns nil, every enqueued record is durable in this file.
func (g *GroupLog) Flush() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.leading {
		g.cond.Wait()
	}
	if g.err != nil {
		return g.err
	}
	if len(g.buf) > 0 {
		g.commitLocked()
		for g.leading {
			g.cond.Wait()
		}
		if g.err != nil {
			return g.err
		}
	}
	if err := g.f.Sync(); err != nil {
		g.err = fmt.Errorf("wal: sync: %w", err)
		metricPoisoned.Inc()
		g.cond.Broadcast()
		return g.err
	}
	return nil
}

// Err returns the log's sticky failure, nil while the log is healthy.
func (g *GroupLog) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Close flushes any buffered window, syncs, and closes the file. Waiters
// of windows committed by the final flush see durable success; later
// operations fail with ErrLogClosed. Close after a failure releases the
// file and returns the sticky error.
func (g *GroupLog) Close() error {
	g.mu.Lock()
	if errors.Is(g.err, ErrLogClosed) {
		g.mu.Unlock()
		return nil
	}
	for g.leading {
		g.cond.Wait()
	}
	if g.err == nil && len(g.buf) > 0 {
		g.commitLocked()
		for g.leading {
			g.cond.Wait()
		}
	}
	err := g.err
	if err == nil {
		if serr := g.f.Sync(); serr != nil {
			err = fmt.Errorf("wal: sync: %w", serr)
		}
	}
	if g.err == nil {
		g.err = ErrLogClosed
	}
	g.cond.Broadcast()
	g.mu.Unlock()
	if cerr := g.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if errors.Is(err, ErrLogClosed) {
		return nil
	}
	return err
}
