package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// This file holds the frame walker — Frames, the one function that parses
// the [length][crc][payload] format, for local replay, checkpoint loading
// and replication alike — and the primitives for shipping a shard's
// segments to a follower byte-for-byte. A primary serves raw segment byte
// ranges (it never re-frames anything — the on-disk framing is the wire
// framing), a follower tracks its position with a Cursor per shard and
// feeds fetched chunks through Frames, which yields exactly the whole,
// CRC-valid records a local Replay of the same prefix would.

// Cursor is a replication reader's position in one shard's log: the
// generation of the segment being streamed and the byte offset of the next
// unread position within it. A shard's state is reproduced by loading its
// checkpoint for generation Gen and applying every record of
// wal-<shard>-<Gen>.log from offset 0 — so a freshly bootstrapped
// follower's cursor is {checkpoint generation, 0}.
type Cursor struct {
	// Gen is the segment generation being read.
	Gen uint64 `json:"gen"`
	// Off is the byte offset of the next unread byte in that segment.
	Off int64 `json:"off"`
}

// ReadSegmentAt reads up to max bytes of the segment at path starting at
// byte offset off, returning the chunk and the file's current size. A read
// at or past the current size returns an empty chunk. A missing file
// returns os.ErrNotExist (wrapped): on a primary that means the generation
// was pruned and the reader must restart from a checkpoint.
//
// The returned bytes are raw framed records; they may end mid-frame (the
// appender's next commit window completes it), so callers accumulate
// chunks and decode with Frames.
func ReadSegmentAt(path string, off int64, max int) (chunk []byte, size int64, err error) {
	if off < 0 || max <= 0 {
		return nil, 0, fmt.Errorf("wal: bad segment read (off %d, max %d)", off, max)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	size = st.Size()
	if off >= size {
		return nil, size, nil
	}
	n := size - off
	if n > int64(max) {
		n = int64(max)
	}
	chunk = make([]byte, n)
	if _, err := f.ReadAt(chunk, off); err != nil {
		return nil, size, fmt.Errorf("wal: read %s at %d: %w", path, off, err)
	}
	return chunk, size, nil
}

// ErrCorruptStream reports that a replication buffer holds a frame that can
// never become valid — an absurd length prefix or a checksum mismatch on a
// complete frame. Unlike a local Replay, where such bytes are a crash's
// torn tail and end the log, a streamed copy of a live segment must treat
// them as divergence from the primary (e.g. the primary crashed, truncated
// its tail and wrote different bytes over offsets the follower had already
// fetched): the follower's only safe move is to resynchronize from a fresh
// checkpoint.
var ErrCorruptStream = errors.New("wal: replication stream is corrupt")

// Frames decodes the whole, CRC-valid frames at the front of buf in order,
// calling fn with each payload, and returns how many bytes it consumed.
// Decoding stops cleanly at an incomplete trailing frame (consumed marks
// its start; the caller retains buf[consumed:] and appends the next chunk
// to it). A frame that is provably invalid — oversized length prefix, or a
// complete frame failing its checksum — returns ErrCorruptStream (wrapped);
// an error from fn aborts decoding and is returned with the bytes consumed
// so far.
func Frames(buf []byte, fn func(payload []byte) error) (consumed int, err error) {
	for {
		rest := buf[consumed:]
		if len(rest) < headerSize {
			return consumed, nil
		}
		size := binary.LittleEndian.Uint32(rest[0:4])
		want := binary.LittleEndian.Uint32(rest[4:8])
		if size > MaxRecordBytes {
			return consumed, fmt.Errorf("%w: frame length %d exceeds the %d-byte bound", ErrCorruptStream, size, MaxRecordBytes)
		}
		if len(rest) < headerSize+int(size) {
			return consumed, nil
		}
		payload := rest[headerSize : headerSize+int(size)]
		if crc32.Checksum(payload, castagnoli) != want {
			return consumed, fmt.Errorf("%w: frame at relative offset %d fails its checksum", ErrCorruptStream, consumed)
		}
		if err := fn(payload); err != nil {
			return consumed, err
		}
		consumed += headerSize + int(size)
	}
}
