// Package wal is the durability substrate of the disclosure system: an
// append-only, CRC-framed log of state-changing operations plus atomically
// written checkpoint files, organized in numbered generations so that
// recovery is always "apply the newest checkpoint's records, then the log
// tail's" — both files are sequences of the same records (Op), read by the
// same frame walker (Frames) and decoded by the same decoder (DecodeOp).
//
// # On-disk record framing
//
// Every record — in log segments and in checkpoint files alike — is framed
// as
//
//	[4 bytes little-endian payload length]
//	[4 bytes little-endian CRC-32C (Castagnoli) of the payload]
//	[payload]
//
// In a log segment a reader stops at the first frame that is incomplete or
// whose checksum does not match: everything before it is the valid prefix,
// everything from it on is a torn tail from a crash mid-append and is
// discarded (the appender truncates the file back to the valid prefix
// before continuing). A record is therefore recovered either whole or not
// at all. A checkpoint is renamed into place complete, so it has no torn
// tail to forgive: it opens with a HeaderOp announcing how many records
// follow, and a file that is not exactly that many whole records is not
// loadable (CheckpointRecords) — recovery falls back one generation.
//
// # Generations
//
// A data directory holds pairs of files per shard s and generation g:
//
//	checkpoint-<s>-<g>.ckpt   the shard's full state when generation g began
//	wal-<s>-<g>.log           every operation the shard logged since
//
// where s is "meta" (rows, configuration, bulk loads) or a data-shard
// index owning a slice of the principal space; each shard's generations
// advance independently, so state(s, g) = checkpoint(s, g) +
// replay(wal-<s>-<g>.log) per shard. Taking a shard's checkpoint
// writes checkpoint-<g+1> (streamed record by record to a temporary file
// and renamed into place), starts an empty wal-<g+1>.log, and deletes
// generations older than g — the previous generation is retained so that a
// corrupted newest checkpoint can be recovered past: checkpoint(g) plus a
// full replay of wal-<g>.log reproduces checkpoint(g+1) exactly, and the
// later segments replay on top.
//
// The record vocabulary (Op) is defined in op.go; this file is the framing
// and file layer.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// MaxRecordBytes bounds a single record's payload (1 GiB), in log segments
// and checkpoint files alike. It exists so a corrupted length prefix cannot
// force a reader into an absurd allocation; legitimate records — even a
// bulk load of a large synthetic graph, which logs one record per batch —
// stay below it, and a checkpoint spreads a shard's rows over records of
// RowsPerRecord rows each.
const MaxRecordBytes = 1 << 30

// RowsPerRecord is the number of rows a checkpoint packs into one RowsOp:
// large enough that framing and snapshot publication are noise, small
// enough that no table can push a record near MaxRecordBytes.
const RowsPerRecord = 4096

// castagnoli is the CRC-32C table used for all record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerSize is the per-record frame overhead: length plus checksum.
const headerSize = 8

// appendFrame appends one framed record (length, CRC-32C, payload) to dst
// and returns the extended slice — the encoding Frames reads back.
func appendFrame(dst, payload []byte) []byte {
	var header [headerSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, header[:]...)
	return append(dst, payload...)
}

// Replay reads the log at path and calls fn with every whole, CRC-valid
// record payload in order. It returns the length of the valid prefix (the
// offset OpenAppendGroup should truncate to) and the number of records
// delivered. A missing file replays as empty. A frame Frames cannot decode —
// incomplete or failing its checksum — ends a local replay silently: that
// is the torn tail a crash leaves. An error from fn aborts the replay and
// is returned.
func Replay(path string, fn func(payload []byte) error) (validLen int64, n int, err error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("wal: read %s: %w", path, err)
	}
	var fnErr error
	consumed, _ := Frames(buf, func(payload []byte) error {
		if fnErr = fn(payload); fnErr == nil {
			n++
		}
		return fnErr
	})
	return int64(consumed), n, fnErr
}

// WriteSnapshotFile atomically writes a checkpoint file: the header record,
// then every record the records callback emits, each framed as in a log
// segment and streamed to disk as it is emitted. header.Records must
// announce exactly the number of records emitted. The bytes go to a
// temporary file in the same directory, are fsynced, and are renamed into
// place (then the directory is fsynced). A crash at any point leaves either
// the old file, the new file, or a stray .tmp that readers ignore — never a
// half-written checkpoint under the final name.
func WriteSnapshotFile(path string, header *HeaderOp, records func(emit func(*Op) error) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", tmp, err)
	}
	w := bufio.NewWriter(f)
	var frame []byte
	write := func(op *Op) error {
		payload, err := EncodeOp(op)
		if err != nil {
			return err
		}
		if len(payload) > MaxRecordBytes {
			return fmt.Errorf("wal: checkpoint record of %d bytes exceeds the %d-byte bound", len(payload), MaxRecordBytes)
		}
		frame = appendFrame(frame[:0], payload)
		_, err = w.Write(frame)
		return err
	}
	emitted := 0
	werr := write(&Op{Header: header})
	if werr == nil {
		werr = records(func(op *Op) error { emitted++; return write(op) })
	}
	if werr == nil && emitted != header.Records {
		werr = fmt.Errorf("header announces %d records, %d were emitted", header.Records, emitted)
	}
	if werr == nil {
		werr = w.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: write %s: %w", tmp, werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: rename %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
}

// CheckpointRecords verifies that buf is one whole checkpoint file and
// returns its header and the payloads of the records after it (slices of
// buf, to be decoded with DecodeOp and applied in order). Verification
// comes before the first record is handed out, so a damaged checkpoint is
// never loaded in part: every byte must belong to a whole, CRC-valid frame,
// the first record must be a HeaderOp, and exactly header.Records records
// must follow — a multi-record file, unlike a single frame, can be cut
// cleanly at a frame boundary, and the count is what notices.
func CheckpointRecords(buf []byte) (*HeaderOp, [][]byte, error) {
	var payloads [][]byte
	consumed, err := Frames(buf, func(payload []byte) error {
		payloads = append(payloads, payload)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("wal: checkpoint: %w", err)
	}
	if consumed != len(buf) || len(payloads) == 0 {
		return nil, nil, fmt.Errorf("wal: checkpoint is truncated: %d of %d bytes are whole records", consumed, len(buf))
	}
	first, err := DecodeOp(payloads[0])
	if err != nil || first.Header == nil {
		return nil, nil, errors.New("wal: checkpoint does not open with a header record: it was written in a checkpoint format this release no longer reads; re-initialize the data directory (see docs/OPERATIONS.md, \"Changing the shard count\")")
	}
	if got := len(payloads) - 1; got != first.Header.Records {
		return nil, nil, fmt.Errorf("wal: checkpoint is truncated: header announces %d records, file holds %d", first.Header.Records, got)
	}
	return first.Header, payloads[1:], nil
}

// checkpointPrefix and segmentPrefix name the two per-generation files.
const (
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".ckpt"
	segmentPrefix    = "wal-"
	segmentSuffix    = ".log"
)

// MetaShard names the shard that owns the deployment-wide state: the row
// store, the configuration, and bulk loads. Per-principal state lives in
// the numbered data shards instead.
const MetaShard = "meta"

// DataShard returns the shard name of data shard i ("0", "1", ...).
func DataShard(i int) string { return strconv.Itoa(i) }

// ShardCheckpointPath returns the checkpoint file path for one shard's
// generation: checkpoint-<shard>-<gen>.ckpt.
func ShardCheckpointPath(dir, shard string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%s-%016d%s", checkpointPrefix, shard, gen, checkpointSuffix))
}

// ShardSegmentPath returns the log-segment file path for one shard's
// generation: wal-<shard>-<gen>.log.
func ShardSegmentPath(dir, shard string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%s-%016d%s", segmentPrefix, shard, gen, segmentSuffix))
}

// ShardFiles lists one shard's on-disk generations, each sorted ascending.
type ShardFiles struct {
	// Checkpoints holds the generations with a checkpoint file.
	Checkpoints []uint64
	// Segments holds the generations with a log-segment file.
	Segments []uint64
}

// ScanShards lists the per-shard generations present in dir, keyed by
// shard name (MetaShard or a data-shard index). Files in the pre-sharding
// single-log layout (wal-<gen>.log with no shard component) set legacy
// instead of contributing to the map, so callers can refuse or migrate
// such directories explicitly. Files matching neither naming scheme
// (including .tmp leftovers) are ignored; a missing directory scans empty.
func ScanShards(dir string) (shards map[string]*ShardFiles, legacy bool, err error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("wal: scan %s: %w", dir, err)
	}
	shards = make(map[string]*ShardFiles)
	add := func(shard string, gen uint64, checkpoint bool) {
		sf := shards[shard]
		if sf == nil {
			sf = &ShardFiles{}
			shards[shard] = sf
		}
		if checkpoint {
			sf.Checkpoints = append(sf.Checkpoints, gen)
		} else {
			sf.Segments = append(sf.Segments, gen)
		}
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		var mid string
		var checkpoint bool
		switch {
		case strings.HasPrefix(name, checkpointPrefix) && strings.HasSuffix(name, checkpointSuffix):
			mid = name[len(checkpointPrefix) : len(name)-len(checkpointSuffix)]
			checkpoint = true
		case strings.HasPrefix(name, segmentPrefix) && strings.HasSuffix(name, segmentSuffix):
			mid = name[len(segmentPrefix) : len(name)-len(segmentSuffix)]
		default:
			continue
		}
		cut := strings.LastIndexByte(mid, '-')
		if cut < 0 {
			if _, err := strconv.ParseUint(mid, 10, 64); err == nil {
				legacy = true
			}
			continue
		}
		shard, genStr := mid[:cut], mid[cut+1:]
		gen, err := strconv.ParseUint(genStr, 10, 64)
		if err != nil || !validShardName(shard) {
			continue
		}
		add(shard, gen, checkpoint)
	}
	for _, sf := range shards {
		sort.Slice(sf.Checkpoints, func(i, j int) bool { return sf.Checkpoints[i] < sf.Checkpoints[j] })
		sort.Slice(sf.Segments, func(i, j int) bool { return sf.Segments[i] < sf.Segments[j] })
	}
	return shards, legacy, nil
}

// validShardName reports whether s names the meta shard or a data shard.
func validShardName(s string) bool {
	if s == MetaShard {
		return true
	}
	n, err := strconv.Atoi(s)
	return err == nil && n >= 0 && s == strconv.Itoa(n)
}

// RemoveShardGeneration deletes one shard generation's checkpoint and
// segment files, ignoring files already absent.
func RemoveShardGeneration(dir, shard string, gen uint64) error {
	for _, p := range []string{ShardCheckpointPath(dir, shard, gen), ShardSegmentPath(dir, shard, gen)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("wal: remove %s: %w", p, err)
		}
	}
	return nil
}

// syncDir fsyncs a directory so renames and creations within it are
// durable. Errors from filesystems that refuse directory fsync (some
// network mounts) are reported; the caller decides how fatal that is.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir %s: %w", dir, err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	return nil
}
