package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestSnapshotFileRoundTrip writes a checkpoint through WriteSnapshotFile
// and reads it back through CheckpointRecords, then checks that every way a
// file can fall short of its header's count — cut at a frame boundary, cut
// inside a frame, one byte flipped — is refused before any record is
// handed out.
func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint-0-0000000000000000.ckpt")
	ops := seedOps()
	header := &HeaderOp{Shard: DataShard(0), Shards: 1, Generation: 3, Records: len(ops)}
	write := func(n int) error {
		return WriteSnapshotFile(path, header, func(emit func(*Op) error) error {
			for _, op := range ops[:n] {
				if err := emit(op); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := write(len(ops) - 1); err == nil {
		t.Fatalf("WriteSnapshotFile accepted fewer records than its header announces")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a failed write left %s behind (err=%v)", path, err)
	}
	if err := write(len(ops)); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, payloads, err := CheckpointRecords(raw)
	if err != nil {
		t.Fatalf("CheckpointRecords: %v", err)
	}
	if *got != *header || len(payloads) != len(ops) {
		t.Fatalf("read back header %+v and %d records, want %+v and %d", got, len(payloads), header, len(ops))
	}
	for i, p := range payloads {
		want, _ := EncodeOp(ops[i])
		if !bytes.Equal(p, want) {
			t.Errorf("record %d = %q, want %q", i, p, want)
		}
	}

	var bounds []int
	end := 0
	if _, err := Frames(raw, func(p []byte) error {
		end += headerSize + len(p)
		bounds = append(bounds, end)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, b := range append([]int{0, 3}, bounds[:len(bounds)-1]...) {
		if _, _, err := CheckpointRecords(raw[:b]); err == nil {
			t.Errorf("CheckpointRecords accepted the file cut at byte %d of %d", b, len(raw))
		}
		if _, _, err := CheckpointRecords(raw[:b+5]); err == nil {
			t.Errorf("CheckpointRecords accepted the file cut at byte %d of %d", b+5, len(raw))
		}
	}
	for _, b := range bounds {
		bad := bytes.Clone(raw)
		bad[b-1] ^= 0xFF
		if _, _, err := CheckpointRecords(bad); err == nil {
			t.Errorf("CheckpointRecords accepted a flipped byte at %d", b-1)
		}
	}
	// A file of whole records that does not open with a header is a
	// different format, and the error says what to do about it (seedOps'
	// own first two records are headers: skip those too).
	if _, _, err := CheckpointRecords(raw[bounds[2]:]); err == nil || !strings.Contains(err.Error(), "re-initialize") {
		t.Errorf("headerless file: err = %v, want the re-initialize refusal", err)
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
