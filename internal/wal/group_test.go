package wal

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestGroupLogConcurrentAppendsReplay hammers one GroupLog from many
// goroutines and checks that every acknowledged record is replayed whole:
// the coalesced commit windows must not lose, tear, or duplicate frames.
func TestGroupLogConcurrentAppendsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	g, err := CreateGroup(path, true)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := g.Append(fmt.Appendf(nil, "w%d-%d", w, i)); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seen := make(map[string]bool)
	_, n, err := Replay(path, func(payload []byte) error {
		if seen[string(payload)] {
			return fmt.Errorf("duplicate record %q", payload)
		}
		seen[string(payload)] = true
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != workers*perWorker {
		t.Fatalf("replayed %d records, want %d", n, workers*perWorker)
	}
}

// TestGroupLogOrderMatchesEnqueue checks the pipeline's core contract:
// records land in the file in Enqueue order, so a caller serializing
// Enqueue with state application gets log order == apply order even
// though commits are batched.
func TestGroupLogOrderMatchesEnqueue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	g, err := CreateGroup(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	const workers, perWorker = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec := fmt.Sprintf("w%d-%d", w, i)
				mu.Lock()
				e, err := g.Enqueue([]byte(rec))
				if err == nil {
					order = append(order, rec) // "apply" under the same lock
				}
				mu.Unlock()
				if err != nil {
					t.Errorf("Enqueue: %v", err)
					return
				}
				if err := g.WaitDurable(e); err != nil {
					t.Errorf("WaitDurable: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	i := 0
	_, _, err = Replay(path, func(payload []byte) error {
		if i >= len(order) || string(payload) != order[i] {
			return fmt.Errorf("record %d is %q, want %q", i, payload, order[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if i != len(order) {
		t.Fatalf("replayed %d records, applied %d", i, len(order))
	}
}

// TestGroupLogCloseFlushesBufferedWindow checks that records enqueued but
// never waited on still reach the file: Close commits the open window.
func TestGroupLogCloseFlushesBufferedWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	g, err := CreateGroup(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Enqueue([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	_, n, err := Replay(path, func([]byte) error { return nil })
	if err != nil || n != 1 {
		t.Fatalf("replayed %d records (err %v), want the buffered record", n, err)
	}
	if _, err := g.Enqueue([]byte("late")); err == nil {
		t.Fatal("Enqueue after Close succeeded")
	}
}

// TestGroupLogOpenAppendTruncates checks that OpenAppendGroup discards a
// torn tail exactly like OpenAppend.
func TestGroupLogOpenAppendTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	g, err := CreateGroup(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Append([]byte("keep")); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	valid, _, err := Replay(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	g2, err := OpenAppendGroup(path, valid, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Append([]byte("more")); err != nil {
		t.Fatal(err)
	}
	if err := g2.Close(); err != nil {
		t.Fatal(err)
	}
	_, n, err := Replay(path, func([]byte) error { return nil })
	if err != nil || n != 2 {
		t.Fatalf("replayed %d records (err %v), want 2", n, err)
	}
}

// TestScanShards checks the sharded directory scan: per-shard generation
// lists, legacy-layout detection, and foreign-file tolerance.
func TestScanShards(t *testing.T) {
	dir := t.TempDir()
	for _, gen := range []uint64{0, 1} {
		for _, shard := range []string{MetaShard, DataShard(0), DataShard(1)} {
			header := &HeaderOp{Shard: shard, Shards: 2, Generation: gen}
			if err := WriteSnapshotFile(ShardCheckpointPath(dir, shard, gen), header, func(func(*Op) error) error { return nil }); err != nil {
				t.Fatal(err)
			}
			l, err := CreateGroup(ShardSegmentPath(dir, shard, gen), false)
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
		}
	}
	shards, legacy, err := ScanShards(dir)
	if err != nil {
		t.Fatalf("ScanShards: %v", err)
	}
	if legacy {
		t.Fatal("fresh sharded layout reported as legacy")
	}
	if len(shards) != 3 {
		t.Fatalf("found %d shards, want 3: %v", len(shards), shards)
	}
	for _, shard := range []string{MetaShard, "0", "1"} {
		sf := shards[shard]
		if sf == nil || fmt.Sprint(sf.Checkpoints) != "[0 1]" || fmt.Sprint(sf.Segments) != "[0 1]" {
			t.Fatalf("shard %s files = %+v, want generations [0 1]", shard, sf)
		}
	}

	// A pre-sharding file flips the legacy flag without joining a shard.
	l, err := CreateGroup(filepath.Join(dir, "wal-0000000000000007.log"), false)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	shards, legacy, err = ScanShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !legacy {
		t.Fatal("legacy segment not detected")
	}
	if len(shards) != 3 {
		t.Fatalf("legacy file joined a shard: %v", shards)
	}
}
