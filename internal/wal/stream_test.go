package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestFramesDecodesWholePrefix checks the replication decoder against the
// writer's framing: whole frames decode in order, an incomplete trailing
// frame stops decoding cleanly at its start, and appending the missing
// bytes later completes it.
func TestFramesDecodesWholePrefix(t *testing.T) {
	var buf []byte
	var want [][]byte
	for i := 0; i < 3; i++ {
		p := fmt.Appendf(nil, "record-%d", i)
		want = append(want, p)
		buf = appendFrame(buf, p)
	}
	whole := len(buf)
	tail := appendFrame(nil, []byte("partial"))
	buf = append(buf, tail[:len(tail)-3]...) // torn mid-frame

	var got [][]byte
	consumed, err := Frames(buf, func(payload []byte) error {
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("Frames: %v", err)
	}
	if consumed != whole {
		t.Fatalf("consumed %d bytes, want %d (the whole-frame prefix)", consumed, whole)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("frame %d = %q, want %q", i, got[i], want[i])
		}
	}

	// The retained tail plus the missing bytes completes the frame.
	rest := append(append([]byte(nil), buf[consumed:]...), tail[len(tail)-3:]...)
	n, err := Frames(rest, func(payload []byte) error {
		if string(payload) != "partial" {
			return fmt.Errorf("completed frame = %q", payload)
		}
		return nil
	})
	if err != nil || n != len(tail) {
		t.Fatalf("completed tail: consumed %d (err %v), want %d", n, err, len(tail))
	}
}

// TestFramesCorruption checks the divergence signals: a complete frame
// failing its checksum and an absurd length prefix both report
// ErrCorruptStream (the follower's resync trigger), never a clean stop.
func TestFramesCorruption(t *testing.T) {
	good := appendFrame(nil, []byte("ok"))
	buf := append(append([]byte(nil), good...), appendFrame(nil, []byte("tampered"))...)
	buf[len(good)+headerSize] ^= 0xff // flip a payload byte of frame 2

	consumed, err := Frames(buf, func([]byte) error { return nil })
	if !errors.Is(err, ErrCorruptStream) {
		t.Fatalf("checksum corruption: err = %v, want ErrCorruptStream", err)
	}
	if consumed != len(good) {
		t.Fatalf("consumed %d bytes before corruption, want %d", consumed, len(good))
	}

	huge := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(huge[0:4], MaxRecordBytes+1)
	if _, err := Frames(huge, func([]byte) error { return nil }); !errors.Is(err, ErrCorruptStream) {
		t.Fatalf("oversized length prefix: err = %v, want ErrCorruptStream", err)
	}

	// An error from fn aborts and surfaces as-is.
	sentinel := errors.New("stop")
	if _, err := Frames(good, func([]byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("fn error: %v, want the sentinel", err)
	}
}

// TestReadSegmentAt checks the primary's byte server: ranged reads, the
// empty read at EOF, and the pruned-generation signal for a missing file.
func TestReadSegmentAt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.log")
	content := []byte("0123456789abcdef")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	chunk, size, err := ReadSegmentAt(path, 0, 1024)
	if err != nil || size != int64(len(content)) || !bytes.Equal(chunk, content) {
		t.Fatalf("full read = %q size %d err %v", chunk, size, err)
	}
	chunk, _, err = ReadSegmentAt(path, 10, 4)
	if err != nil || string(chunk) != "abcd" {
		t.Fatalf("ranged read = %q err %v, want \"abcd\"", chunk, err)
	}
	chunk, size, err = ReadSegmentAt(path, int64(len(content)), 4)
	if err != nil || len(chunk) != 0 || size != int64(len(content)) {
		t.Fatalf("read at EOF = %q size %d err %v, want empty", chunk, size, err)
	}
	if _, _, err := ReadSegmentAt(path, -1, 4); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, _, err := ReadSegmentAt(filepath.Join(t.TempDir(), "gone.log"), 0, 4); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing segment: err = %v, want os.ErrNotExist", err)
	}
}

// TestCommittedOffset checks the live-tail serving bound: the committed
// offset tracks exactly the bytes of committed windows (whole frames),
// and OpenAppendGroup resumes it at the recovered valid length.
func TestCommittedOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	g, err := CreateGroup(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CommittedOffset(); got != 0 {
		t.Fatalf("fresh log committed offset = %d, want 0", got)
	}
	var prev int64
	for i := 0; i < 5; i++ {
		if err := g.Append(fmt.Appendf(nil, "r%d", i)); err != nil {
			t.Fatal(err)
		}
		off := g.CommittedOffset()
		if off <= prev {
			t.Fatalf("committed offset %d did not advance past %d", off, prev)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if off != st.Size() {
			t.Fatalf("committed offset %d != file size %d after quiescent append", off, st.Size())
		}
		// Every committed prefix must decode as whole frames.
		buf := make([]byte, off)
		if chunk, _, err := ReadSegmentAt(path, 0, int(off)); err != nil {
			t.Fatal(err)
		} else {
			copy(buf, chunk)
		}
		if n, err := Frames(buf, func([]byte) error { return nil }); err != nil || int64(n) != off {
			t.Fatalf("committed prefix of %d bytes decoded %d (err %v)", off, n, err)
		}
		prev = off
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := OpenAppendGroup(path, prev, false)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if got := g2.CommittedOffset(); got != prev {
		t.Fatalf("reopened committed offset = %d, want %d", got, prev)
	}
}
