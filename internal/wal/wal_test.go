package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// collect replays a log into a slice of payloads.
func collect(t *testing.T, path string) (payloads [][]byte, validLen int64) {
	t.Helper()
	valid, _, err := Replay(path, func(p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return payloads, valid
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0.log")
	l, err := CreateGroup(path, true)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		p := []byte(fmt.Sprintf(`{"record":%d}`, i))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, _ := collect(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestReplayMissingFile(t *testing.T) {
	valid, n, err := Replay(filepath.Join(t.TempDir(), "absent.log"), func([]byte) error { return nil })
	if err != nil || valid != 0 || n != 0 {
		t.Fatalf("Replay(missing) = (%d, %d, %v), want (0, 0, nil)", valid, n, err)
	}
}

// TestReplayTornTail appends torn tails of every flavor — a partial
// header, a partial payload, and a corrupted payload — and checks that
// replay keeps exactly the valid prefix and that OpenAppend truncates it.
func TestReplayTornTail(t *testing.T) {
	for name, tail := range map[string][]byte{
		"partial header":  {0x10},
		"partial payload": {0x10, 0x00, 0x00, 0x00, 0xAA, 0xBB, 0xCC, 0xDD, 0x01, 0x02},
		"huge length":     {0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal-0.log")
			l, err := CreateGroup(path, false)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			if err := l.Append([]byte("first")); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if _, err := f.Write(tail); err != nil {
				t.Fatalf("append tail: %v", err)
			}
			f.Close()

			got, valid := collect(t, path)
			if len(got) != 1 || string(got[0]) != "first" {
				t.Fatalf("replay kept %d records (%q), want the single valid one", len(got), got)
			}
			l2, err := OpenAppendGroup(path, valid, false)
			if err != nil {
				t.Fatalf("OpenAppend: %v", err)
			}
			if err := l2.Append([]byte("second")); err != nil {
				t.Fatalf("Append after truncation: %v", err)
			}
			l2.Close()
			got, _ = collect(t, path)
			if len(got) != 2 || string(got[1]) != "second" {
				t.Fatalf("after truncate+append, replayed %q, want [first second]", got)
			}
		})
	}
}

// TestReplayCorruptedRecord flips a payload byte in place and checks the
// checksum rejects the record and everything after it.
func TestReplayCorruptedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0.log")
	l, err := CreateGroup(path, false)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, p := range []string{"one", "two", "three"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Flip a byte inside the second record's payload.
	raw[headerSize+3+headerSize] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, valid := collect(t, path)
	if len(got) != 1 || string(got[0]) != "one" {
		t.Fatalf("replayed %q, want just the first record", got)
	}
	if want := int64(headerSize + 3); valid != want {
		t.Errorf("validLen = %d, want %d", valid, want)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint-0.ckpt")
	payload := []byte(`{"generation":0}`)
	if err := WriteSnapshotFile(path, payload); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("ReadSnapshotFile: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
	// Corruption is detected.
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xFF
	os.WriteFile(path, raw, 0o644)
	if _, err := ReadSnapshotFile(path); err == nil {
		t.Fatalf("ReadSnapshotFile accepted a corrupted snapshot")
	}
}

func TestScanDirAndRemove(t *testing.T) {
	dir := t.TempDir()
	for _, gen := range []uint64{0, 1, 2} {
		if err := WriteSnapshotFile(CheckpointPath(dir, gen), []byte("{}")); err != nil {
			t.Fatalf("WriteSnapshotFile: %v", err)
		}
		l, err := CreateGroup(SegmentPath(dir, gen), false)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		l.Close()
	}
	// Stray files are ignored.
	os.WriteFile(filepath.Join(dir, "checkpoint-x.ckpt"), []byte("junk"), 0o644)
	os.WriteFile(filepath.Join(dir, "checkpoint-0000000000000003.ckpt.tmp"), []byte("junk"), 0o644)

	ckpts, segs, err := ScanDir(dir)
	if err != nil {
		t.Fatalf("ScanDir: %v", err)
	}
	if fmt.Sprint(ckpts) != "[0 1 2]" || fmt.Sprint(segs) != "[0 1 2]" {
		t.Fatalf("ScanDir = (%v, %v), want ([0 1 2], [0 1 2])", ckpts, segs)
	}
	if err := RemoveGeneration(dir, 0); err != nil {
		t.Fatalf("RemoveGeneration: %v", err)
	}
	if err := RemoveGeneration(dir, 0); err != nil { // already gone: fine
		t.Fatalf("RemoveGeneration (again): %v", err)
	}
	ckpts, segs, _ = ScanDir(dir)
	if fmt.Sprint(ckpts) != "[1 2]" || fmt.Sprint(segs) != "[1 2]" {
		t.Fatalf("after removal ScanDir = (%v, %v), want ([1 2], [1 2])", ckpts, segs)
	}
}

func TestOpEncodingExactlyOne(t *testing.T) {
	if _, err := EncodeOp(&Op{}); err == nil {
		t.Errorf("EncodeOp accepted an empty operation")
	}
	if _, err := EncodeOp(&Op{
		Token:  &TokenOp{Principal: "a", Token: "t"},
		Remove: &RemoveOp{Principal: "a"},
	}); err == nil {
		t.Errorf("EncodeOp accepted a two-field operation")
	}
	payload, err := EncodeOp(&Op{Transition: &TransitionOp{Principal: "app", Live: []string{"W2"}, Cumulative: [][]string{{"V3"}}}})
	if err != nil {
		t.Fatalf("EncodeOp: %v", err)
	}
	op, err := DecodeOp(payload)
	if err != nil {
		t.Fatalf("DecodeOp: %v", err)
	}
	if tr := op.Transition; tr == nil || tr.Principal != "app" || fmt.Sprint(tr.Live, tr.Cumulative) != "[W2] [[V3]]" {
		t.Fatalf("round-tripped op = %+v", op)
	}
	if _, err := DecodeOp([]byte(`{}`)); err == nil {
		t.Errorf("DecodeOp accepted an empty operation record")
	}
}

func TestCheckpointEncoding(t *testing.T) {
	ck := &Checkpoint{
		Generation: 7,
		Config: &store.Config{
			Schema: []store.RelationDef{{Name: "M", Attrs: []string{"t", "p"}}},
			Views:  []string{"V1(t, p) :- M(t, p)"},
		},
		Rows: []Row{{Rel: "M", Values: []string{"10", "Cathy"}}},
		Principals: []PrincipalState{{
			Name:       "app",
			Partitions: map[string][]string{"W1": {"V1"}},
			Live:       []string{"W1"},
			Cumulative: [][]string{{"V1"}},
			Accepted:   3,
			Refused:    1,
		}},
		Tokens: map[string]string{"app": "tok"},
	}
	payload, err := EncodeCheckpoint(ck)
	if err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	got, err := DecodeCheckpoint(payload)
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	if got.Generation != 7 || len(got.Rows) != 1 || len(got.Principals) != 1 ||
		got.Principals[0].Accepted != 3 || got.Tokens["app"] != "tok" {
		t.Fatalf("round-tripped checkpoint = %+v", got)
	}
	if _, err := EncodeCheckpoint(&Checkpoint{}); err == nil {
		t.Errorf("EncodeCheckpoint accepted a checkpoint without a configuration")
	}
	if _, err := DecodeCheckpoint([]byte(`{"generation":1}`)); err == nil {
		t.Errorf("DecodeCheckpoint accepted a checkpoint without a configuration")
	}
}
