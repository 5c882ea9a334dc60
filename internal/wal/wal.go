// Package wal is the durability substrate of the disclosure system: an
// append-only, CRC-framed log of state-changing operations plus atomically
// written checkpoint files, organized in numbered generations so that
// recovery is always "load the newest checkpoint, replay the log tail".
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
// A reader stops at the first frame that is incomplete or whose checksum
// does not match: everything before it is the valid prefix, everything
// from it on is a torn tail from a crash mid-append and is discarded (the
// appender truncates the file back to the valid prefix before continuing).
// A record is therefore recovered either whole or not at all.
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
// writes checkpoint-<g+1> (a single framed record, written to a temporary
// file and renamed into place), starts an empty wal-<g+1>.log, and deletes
// generations older than g — the previous generation is retained so that a
// corrupted newest checkpoint can be recovered past: checkpoint(g) plus a
// full replay of wal-<g>.log reproduces checkpoint(g+1) exactly, and the
// later segments replay on top.
//
// The operation vocabulary (Op) and the checkpoint payload (Checkpoint)
// are defined in op.go; this file is the framing and file layer.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// MaxRecordBytes bounds a single log record's payload (1 GiB). It exists
// so a corrupted length prefix cannot force a replaying reader into an
// absurd allocation; legitimate records — even a bulk load of a large
// synthetic graph, which logs one record per batch — stay below it.
// Checkpoint files are not subject to it: they are read whole, so their
// structural validation is against the actual file size.
const MaxRecordBytes = 1 << 30

// castagnoli is the CRC-32C table used for all record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerSize is the per-record frame overhead: length plus checksum.
const headerSize = 8

// appendFrame appends one framed record (length, CRC-32C, payload) to dst
// and returns the extended slice — the encoding Replay reads back.
func appendFrame(dst, payload []byte) []byte {
	var header [headerSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, header[:]...)
	return append(dst, payload...)
}

// Replay reads the log at path and calls fn with every whole, CRC-valid
// record payload in order. It returns the length of the valid prefix (the
// offset OpenAppend should truncate to) and the number of records
// delivered. A missing file replays as empty. An incomplete or corrupt
// frame ends the replay silently — that is the torn tail a crash leaves —
// but an error from fn aborts the replay and is returned.
func Replay(path string, fn func(payload []byte) error) (validLen int64, n int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	var header [headerSize]byte
	for {
		if _, err := io.ReadFull(f, header[:]); err != nil {
			return validLen, n, nil // clean EOF or torn header
		}
		size := binary.LittleEndian.Uint32(header[0:4])
		want := binary.LittleEndian.Uint32(header[4:8])
		if size > MaxRecordBytes {
			return validLen, n, nil // corrupt length prefix
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(f, payload); err != nil {
			return validLen, n, nil // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return validLen, n, nil // corrupt payload
		}
		if err := fn(payload); err != nil {
			return validLen, n, err
		}
		validLen += int64(headerSize) + int64(size)
		n++
	}
}

// WriteSnapshotFile atomically writes payload as a single framed record:
// the bytes go to a temporary file in the same directory, are fsynced,
// and are renamed into place (then the directory is fsynced). A crash at
// any point leaves either the old file, the new file, or a stray .tmp that
// readers ignore — never a half-written snapshot under the final name.
func WriteSnapshotFile(path string, payload []byte) error {
	if uint64(len(payload)) > uint64(^uint32(0)) {
		return fmt.Errorf("wal: snapshot of %d bytes exceeds the frame's 32-bit length", len(payload))
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", tmp, err)
	}
	var header [headerSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum(payload, castagnoli))
	_, werr := f.Write(header[:])
	if werr == nil {
		_, werr = f.Write(payload)
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

// ReadSnapshotFile reads and checksum-verifies a file written by
// WriteSnapshotFile, returning its payload.
func ReadSnapshotFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	if len(raw) < headerSize {
		return nil, fmt.Errorf("wal: snapshot %s is truncated (%d bytes)", path, len(raw))
	}
	size := binary.LittleEndian.Uint32(raw[0:4])
	want := binary.LittleEndian.Uint32(raw[4:8])
	if int64(size) != int64(len(raw)-headerSize) {
		return nil, fmt.Errorf("wal: snapshot %s length mismatch: header says %d, file holds %d", path, size, len(raw)-headerSize)
	}
	payload := raw[headerSize:]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, fmt.Errorf("wal: snapshot %s fails its checksum", path)
	}
	return payload, nil
}

// checkpointPrefix and segmentPrefix name the two per-generation files.
const (
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".ckpt"
	segmentPrefix    = "wal-"
	segmentSuffix    = ".log"
)

// CheckpointPath returns the checkpoint file path for a generation.
func CheckpointPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", checkpointPrefix, gen, checkpointSuffix))
}

// SegmentPath returns the log-segment file path for a generation.
func SegmentPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", segmentPrefix, gen, segmentSuffix))
}

// ScanDir lists the generation numbers of the checkpoints and log segments
// present in dir, each sorted ascending. Files that do not match the
// naming scheme (including .tmp leftovers of an interrupted checkpoint)
// are ignored. A missing directory scans as empty.
func ScanDir(dir string) (checkpoints, segments []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wal: scan %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if g, ok := genOf(name, checkpointPrefix, checkpointSuffix); ok {
			checkpoints = append(checkpoints, g)
		} else if g, ok := genOf(name, segmentPrefix, segmentSuffix); ok {
			segments = append(segments, g)
		}
	}
	sort.Slice(checkpoints, func(i, j int) bool { return checkpoints[i] < checkpoints[j] })
	sort.Slice(segments, func(i, j int) bool { return segments[i] < segments[j] })
	return checkpoints, segments, nil
}

// genOf parses a generation number out of a file name with the given
// prefix and suffix.
func genOf(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	g, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// RemoveGeneration deletes a generation's checkpoint and segment files,
// ignoring files already absent.
func RemoveGeneration(dir string, gen uint64) error {
	for _, p := range []string{CheckpointPath(dir, gen), SegmentPath(dir, gen)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("wal: remove %s: %w", p, err)
		}
	}
	return nil
}

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
