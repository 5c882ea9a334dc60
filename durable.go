package disclosure

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/ring"
	"repro/internal/store"
	"repro/internal/wal"
)

// DurabilityOptions configures a durable System's write-ahead log.
type DurabilityOptions struct {
	// NoSync disables the fsync after every logged operation. Appends
	// still reach the OS immediately, so the log survives a process crash
	// (kill -9) intact, but the tail of acknowledged operations may be
	// lost on a power failure or kernel crash. What the fsync costs is
	// wal.commit_wait_us and wal.fsyncs_per_op on the repository
	// benchmark's durable_wall workload, which runs with it on.
	NoSync bool

	// Shards is the number of data shards the principal space is
	// partitioned across. Each shard owns its slice of the reference-
	// monitor state, its own write-ahead log generation sequence
	// (wal-<shard>-<gen>.log), its own append lock and its own checkpoint
	// cadence, so submissions for principals on different shards never
	// contend on a lock or an fsync. Zero means one shard on a fresh
	// directory and "whatever the directory holds" on recovery; a
	// non-zero count that differs from a recovered directory's is
	// refused, because the principal → shard routing is a function of the
	// count (see docs/OPERATIONS.md for the re-partitioning story).
	Shards int

	// CheckpointOps, when positive, gives every shard its own checkpoint
	// cadence: after this many logged operations a shard rotates its own
	// generation — writing only its slice of the state, as a file of the
	// log's own records, under only its own lock — so checkpoint pressure
	// scales with per-shard write traffic instead of stopping the world.
	// Zero leaves rotation to explicit Checkpoint calls (the daemon's
	// timer and shutdown path).
	CheckpointOps int
}

// walShard is one write-ahead-log partition: the meta shard (rows,
// configuration, bulk loads) or a data shard owning a slice of the
// principal space. The shard mutex serializes log-order reservation with
// state application — the invariant replay depends on — but is NOT held
// across the fsync: that wait happens outside it.
type walShard struct {
	name string // wal.MetaShard or a data-shard index
	id   int    // ring index; -1 for the meta shard

	mu  sync.Mutex
	log *wal.GroupLog
	gen uint64
	ops int // records logged since the last rotation
	// tail is the newest ticket enqueued on log — the ack barrier every
	// operation, even a decision that logged nothing, waits on outside the
	// lock (releaseShard). Rotation starts a fresh log and resets it.
	tail uint64
	// soft: an unlogged decision moved a session tally since the last
	// rotation captured them.
	soft bool
	// broken is set when an append or commit fails: the file offset may
	// sit inside a torn frame and in-memory state may be ahead of the
	// log, so every further state-changing operation on this shard is
	// refused; the fix is to restart and recover, which truncates the
	// torn tail. Other shards keep serving.
	broken bool
}

// Durable couples a System with its sharded write-ahead log and
// checkpoints. Open one with OpenDurable; every state-changing operation
// of the wrapped System — row inserts, policy installs and removals, and
// each reference-monitor decision that moves its session's state — is then
// logged before it is acknowledged, and Checkpoint writes the full state
// out as the same records — a checkpoint file is a log that states a state
// outright — so recovery is, per shard, apply(checkpoint) then
// apply(log tail), one decoder and one apply function for both.
//
// The log records transitions, not traffic: a session's live partitions
// and cumulative disclosure move at most (#partitions + #label atoms)
// times, only those decisions append a record (the absolute state moved
// to), and every other decision — each refusal, each repeated admit —
// appends and fsyncs nothing. It is still held until the records it was
// decided on top of are durable (the ack barrier, walShard.tail) and still
// refused on a fenced, lease-expired, broken or closed node. The
// accepted/refused tallies it moves are soft state: exact in memory,
// captured by every checkpoint and by Close, after a crash only as fresh
// as the last checkpoint.
//
// The log is partitioned: a consistent-hash router (internal/ring) maps
// each principal to one of N data shards, and every per-principal record
// — policy installs, removals, submission tokens, session transitions —
// goes to that principal's shard, while rows and bulk loads go to a
// dedicated meta shard. Each shard has its own append lock and generation
// sequence of wal-<shard>-<gen>.log / checkpoint-<shard>-<gen>.ckpt files
// and recovers by replaying its own log independently (in parallel): the
// only order correctness needs is per-principal apply order, which
// shard-locality preserves. Within a shard, concurrent operations
// group-commit (wal.GroupLog): the fsync happens outside the shard lock,
// and no operation returns success before its record is on disk (or
// handed to the OS under NoSync).
//
// The serving layer logs submission tokens through LogToken (Durable
// implements server.TokenJournal) and re-seeds them after recovery from
// Tokens.
//
// Concurrency contract: all methods are safe for concurrent use.
// State-changing operations and decisions serialize per shard — a shard's
// log order is exactly its apply order — while the System's read path
// (admitted evaluations, explains, stats) remains lock-free.
type Durable struct {
	replayState // the System plus the apply/restore machinery replication shares

	dir     string
	noSync  bool
	ckptOps int

	router *ring.Ring
	shards []*walShard // data shards, index == ring shard
	meta   *walShard

	closed atomic.Bool

	recovered bool
	replayed  int

	// decideGate, when non-nil, is consulted before every admission
	// decision — the primary-lease hook (see SetDecisionGate). Set once
	// before the Durable is shared; never mutated afterwards.
	decideGate func() error
}

// OpenDurable opens (creating or recovering) a durable System rooted at
// dir. An empty directory is initialized with the given schema, security
// views and shard count: a generation-0 checkpoint per shard is written
// and empty log segments started. A directory that already holds
// checkpoints is recovered instead: each shard's newest loadable
// checkpoint is applied record by record — the meta shard's configuration,
// epoch and rows, each data shard's policies, sessions (live partitions,
// cumulative disclosure, decision counts as of the checkpoint) and tokens —
// and the log segments after it are replayed through the same apply
// function, data shards in parallel. A checkpoint that is truncated,
// corrupt or short of the record count its header announces is never
// loaded in part: recovery falls back one generation, and errors if there
// is none; a directory written in an older checkpoint format is refused
// with an error that says to re-initialize it. The schema and views
// must then match the checkpointed configuration exactly (a mismatched
// catalog would silently relabel recovered sessions), and a non-zero
// opts.Shards must match the directory's. Pass a nil schema (and zero
// Shards) to recover whatever configuration the directory holds.
//
// The returned Durable owns the directory until Close; running two
// processes over one directory is not supported.
func OpenDurable(dir string, opts DurabilityOptions, s *Schema, views ...*Query) (*Durable, error) {
	d, scan, err := openDir(dir, opts)
	if err != nil {
		return nil, err
	}
	d.seedTokens(map[string]string{})
	if len(scan) == 0 {
		if s == nil {
			return nil, fmt.Errorf("disclosure: %s holds no checkpoint and no schema was given", dir)
		}
		if d.sys, err = NewSystem(s, views...); err != nil {
			return nil, err
		}
		// Every deployment starts at decision epoch 1.
		if err := d.startFresh(opts.Shards, 1); err != nil {
			return nil, err
		}
	} else if err := d.recover(scan, opts, s, views); err != nil {
		return nil, err
	}
	d.sys.dur = d
	return d, nil
}

// PromoteReplica materializes a replica into a fresh durable primary — the
// disk half of a follower promotion. The replica's System (its replicated
// rows, policies, sessions and tokens, drained as far as replication
// reached; session tallies as of the checkpoints it was built from)
// becomes the new deployment's state: a generation-0 checkpoint per shard
// is written under epoch, empty log segments are started, and an EpochOp
// meta frame durably records the promotion. The directory must be
// fresh — promoting over existing shard files is refused, because silently
// replacing a durable history is exactly the kind of ambient handoff the
// epoch exists to prevent.
//
// On return the replica's System is owned by the returned Durable: further
// Replica.Apply calls are invalid (repl.Follower stops its sync loop before
// calling this), and every state-changing call on the System is logged
// under the new epoch.
func PromoteReplica(dir string, rep *Replica, epoch uint64, opts DurabilityOptions) (*Durable, error) {
	if rep.sys.dur != nil {
		return nil, fmt.Errorf("disclosure: replica is already promoted")
	}
	if epoch <= rep.Epoch() {
		return nil, fmt.Errorf("disclosure: promotion epoch %d does not advance the replicated epoch %d", epoch, rep.Epoch())
	}
	d, scan, err := openDir(dir, opts)
	if err != nil {
		return nil, err
	}
	if len(scan) != 0 {
		return nil, fmt.Errorf("disclosure: promotion target %s already holds durable state; promote into a fresh directory", dir)
	}
	d.sys = rep.sys
	d.seedTokens(rep.copyTokens())
	if err := d.startFresh(opts.Shards, epoch); err != nil {
		return nil, err
	}
	d.sys.dur = d
	return d, nil
}

// openDir validates opts, creates dir if needed and scans it for shard
// files; the returned Durable is configured but holds no state yet.
func openDir(dir string, opts DurabilityOptions) (*Durable, map[string]*wal.ShardFiles, error) {
	if opts.Shards < 0 {
		return nil, nil, fmt.Errorf("disclosure: negative shard count %d", opts.Shards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("disclosure: durable dir: %w", err)
	}
	scan, legacy, err := wal.ScanShards(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("disclosure: %w", err)
	}
	if legacy {
		return nil, nil, fmt.Errorf("disclosure: %s uses the pre-sharding single-log layout; re-initialize it from a fresh directory (see docs/OPERATIONS.md, \"Changing the shard count\")", dir)
	}
	d := &Durable{dir: dir, noSync: opts.NoSync, ckptOps: opts.CheckpointOps}
	return d, scan, nil
}

// startFresh begins a new durable history of n data shards (zero means
// one) under epoch: a generation-0 checkpoint per shard, empty segments,
// and the epoch logged as the meta shard's first frame, so it is part of
// the replayable history.
func (d *Durable) startFresh(n int, epoch uint64) error {
	d.epoch.Store(epoch)
	d.initShards(max(n, 1))
	for _, sh := range d.allShards() {
		if err := d.rotateShardLocked(sh, 0); err != nil {
			return err
		}
	}
	return d.appendApply(d.meta, wal.Op{Epoch: &wal.EpochOp{Epoch: epoch}}, nil)
}

// initShards builds the router and the shard handles for n data shards.
func (d *Durable) initShards(n int) {
	d.router = ring.New(n, 0)
	d.meta = &walShard{name: wal.MetaShard, id: -1}
	d.shards = make([]*walShard, n)
	for i := range d.shards {
		d.shards[i] = &walShard{name: wal.DataShard(i), id: i}
	}
}

// allShards returns the meta shard followed by the data shards.
func (d *Durable) allShards() []*walShard {
	return append([]*walShard{d.meta}, d.shards...)
}

// shardOf routes a principal to its data shard.
func (d *Durable) shardOf(principal string) *walShard {
	return d.shards[d.router.Shard(principal)]
}

// recover restores every shard from its newest loadable checkpoint plus a
// log-tail replay: the meta shard first (it defines the configuration the
// System is rebuilt from, and its rows), then all data shards in parallel
// — their logs are mutually independent, because a principal's operations
// all live in one shard's log and per-principal apply order is the only
// order the monitor semantics need.
func (d *Durable) recover(scan map[string]*wal.ShardFiles, opts DurabilityOptions, s *Schema, views []*Query) error {
	metaFiles := scan[wal.MetaShard]
	if metaFiles == nil || len(metaFiles.Checkpoints) == 0 {
		return fmt.Errorf("disclosure: %s holds shard files but no meta-shard checkpoint", d.dir)
	}
	n := 0
	for name := range scan {
		if name != wal.MetaShard {
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("disclosure: %s holds no data-shard files", d.dir)
	}
	for i := 0; i < n; i++ {
		if scan[wal.DataShard(i)] == nil {
			return fmt.Errorf("disclosure: %s holds %d data shards but shard %d is missing", d.dir, n, i)
		}
	}
	if opts.Shards != 0 && opts.Shards != n {
		return fmt.Errorf("disclosure: %s holds %d data shards but %d were requested; changing the shard count of an existing directory is refused — the principal → shard routing would change under recovered logs (see docs/OPERATIONS.md)", d.dir, n, opts.Shards)
	}
	d.initShards(n)

	// Meta shard: its header carries the configuration the System is built
	// from; its records are the epoch and the rows; then the bulk-load log.
	hdr, records, ckGen, err := d.loadShardCheckpoint(wal.MetaShard, metaFiles.Checkpoints, n)
	if err != nil {
		return err
	}
	if hdr.Config == nil {
		return fmt.Errorf("disclosure: meta checkpoint %d carries no configuration", ckGen)
	}
	if s != nil {
		if err := verifyConfig(hdr.Config, s, views); err != nil {
			return err
		}
	}
	if d.sys, err = systemFromConfig(hdr.Config); err != nil {
		return fmt.Errorf("disclosure: rebuilding system from checkpoint %d: %w", ckGen, err)
	}
	metaReplayed, err := d.recoverShard(d.meta, records, metaFiles, ckGen)
	if err != nil {
		return err
	}
	d.replayed += metaReplayed

	// Data shards: principals, sessions, tokens, decision logs — applied in
	// parallel, one goroutine per shard.
	errs := make([]error, n)
	counts := make([]int, n)
	var wg sync.WaitGroup
	for i, sh := range d.shards {
		wg.Add(1)
		go func(i int, sh *walShard) {
			defer wg.Done()
			files := scan[sh.name]
			_, records, ckGen, err := d.loadShardCheckpoint(sh.name, files.Checkpoints, n)
			if err != nil {
				errs[i] = err
				return
			}
			counts[i], errs[i] = d.recoverShard(sh, records, files, ckGen)
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return err
		}
		d.replayed += counts[i]
	}
	d.recovered = true
	return nil
}

// loadShardCheckpoint reads the shard's newest checkpoint that verifies as
// one whole file (wal.CheckpointRecords) and returns its header and record
// payloads, none applied yet: a checkpoint that fails verification is
// never loaded in part. The previous generation is retained on disk
// precisely for this fallback: checkpoint g plus a full replay of the
// shard's wal-<g> segment reproduces checkpoint g+1, so starting one
// generation back loses nothing.
func (d *Durable) loadShardCheckpoint(shard string, gens []uint64, shards int) (*wal.HeaderOp, [][]byte, uint64, error) {
	lastErr := errors.New("no checkpoint file")
	for i := len(gens) - 1; i >= 0; i-- {
		buf, err := os.ReadFile(wal.ShardCheckpointPath(d.dir, shard, gens[i]))
		if err != nil {
			lastErr = err
			continue
		}
		hdr, records, err := wal.CheckpointRecords(buf)
		if err != nil {
			lastErr = err
			continue
		}
		if hdr.Shards != shards {
			return nil, nil, 0, fmt.Errorf("disclosure: shard %s checkpoint records %d data shards, directory holds %d", shard, hdr.Shards, shards)
		}
		return hdr, records, gens[i], nil
	}
	return nil, nil, 0, fmt.Errorf("disclosure: no loadable checkpoint for shard %s in %s: %w", shard, d.dir, lastErr)
}

// recoverShard rebuilds one shard's slice of the state — the verified
// records of its checkpoint, then its segments at or after that
// generation: state = apply(checkpoint) ; apply(segments), every record
// through applyOp — opens the newest segment for appending past its valid
// prefix, and prunes generations the retention policy no longer needs. It
// returns the number of log records replayed. Only the last segment can
// carry a torn tail (earlier ones were completed before a later generation
// began).
func (d *Durable) recoverShard(sh *walShard, records [][]byte, files *wal.ShardFiles, ckGen uint64) (int, error) {
	for _, payload := range records {
		if err := d.applyPayload(payload); err != nil {
			return 0, fmt.Errorf("disclosure: loading shard %s checkpoint %d: %w", sh.name, ckGen, err)
		}
	}
	sh.gen = ckGen
	replayed := 0
	var lastValid int64
	for _, g := range files.Segments {
		if g < ckGen {
			continue
		}
		valid, n, err := wal.Replay(wal.ShardSegmentPath(d.dir, sh.name, g), d.applyPayload)
		if err != nil {
			return replayed, fmt.Errorf("disclosure: replaying shard %s generation %d: %w", sh.name, g, err)
		}
		replayed += n
		sh.gen, lastValid = g, valid
	}
	var err error
	sh.log, err = wal.OpenAppendGroup(wal.ShardSegmentPath(d.dir, sh.name, sh.gen), lastValid, !d.noSync)
	if err != nil {
		return replayed, fmt.Errorf("disclosure: %w", err)
	}
	// Prune generations the retention policy (current + previous) no
	// longer needs; a crash between checkpoint and cleanup leaves these.
	for _, g := range files.Checkpoints {
		if sh.gen >= 2 && g <= sh.gen-2 {
			if err := wal.RemoveShardGeneration(d.dir, sh.name, g); err != nil {
				return replayed, fmt.Errorf("disclosure: %w", err)
			}
		}
	}
	return replayed, nil
}

// System returns the durable System. Its full surface is usable as usual;
// state-changing calls are logged transparently.
func (d *Durable) System() *System { return d.sys }

// Dir returns the data directory.
func (d *Durable) Dir() string { return d.dir }

// Shards returns the data-shard count the directory is partitioned into.
func (d *Durable) Shards() int { return len(d.shards) }

// Recovered reports whether OpenDurable restored existing state (true) or
// initialized an empty directory (false).
func (d *Durable) Recovered() bool { return d.recovered }

// Replayed returns the number of logged operations replayed during
// recovery, summed across shards (zero for a fresh directory).
func (d *Durable) Replayed() int { return d.replayed }

// Generation returns the meta shard's current checkpoint generation.
// Data shards rotate independently; their generations are internal.
func (d *Durable) Generation() uint64 {
	d.meta.mu.Lock()
	defer d.meta.mu.Unlock()
	return d.meta.gen
}

// Tokens returns a copy of the current principal → submission-token map:
// after recovery, the credentials to re-seed the serving layer with.
func (d *Durable) Tokens() map[string]string { return d.copyTokens() }

// Epoch returns the decision epoch this deployment decides under. It is
// constant for the life of a primary: set to 1 at initialization, to the
// successor epoch by PromoteReplica, and restored on recovery from the
// EpochOp records of the meta shard's checkpoint and log.
func (d *Durable) Epoch() uint64 { return d.epoch.Load() }

// FencedBy returns the higher decision epoch this node has been superseded
// by, or zero while it is the authority. A fenced node refuses every
// state-changing operation (ErrFenced) — it can never hand out an admit
// the promoted successor does not know about.
func (d *Durable) FencedBy() uint64 { return d.fencedBy.Load() }

// ErrFenced is the sentinel wrapped by every refusal of a fenced node:
// a request proved a higher decision epoch exists, so this node's
// decision role has been handed off.
var ErrFenced = errors.New("disclosure: decision epoch superseded (node is fenced)")

// ErrLeaseExpired is the sentinel wrapped by decision refusals while the
// primary's decision lease is expired (no follower contact within the
// configured TTL) — the lease hook installed with SetDecisionGate reports
// it so a partitioned primary stops admitting before a follower is
// promoted. See cmd/disclosured's -lease-ttl.
var ErrLeaseExpired = errors.New("disclosure: decision lease expired")

// Fence marks this node as superseded by a higher decision epoch. The
// fence takes effect immediately — concurrent and future state-changing
// operations fail with ErrFenced — and is then durably recorded as a
// fencing EpochOp in the meta log (best effort: the in-memory fence holds
// even if the record cannot be written), so a restart recovers the node
// still fenced. Fencing with an epoch at or below the node's own is a
// no-op: the caller, not this node, is stale.
func (d *Durable) Fence(by uint64) {
	if by <= d.epoch.Load() {
		return
	}
	for {
		cur := d.fencedBy.Load()
		if cur >= by {
			return
		}
		if d.fencedBy.CompareAndSwap(cur, by) {
			break
		}
	}
	_ = d.appendApply(d.meta, wal.Op{Epoch: &wal.EpochOp{Epoch: by, Fenced: true}}, nil)
}

// fencedErr builds the structured refusal of a fenced node.
func (d *Durable) fencedErr() error {
	return fmt.Errorf("%w: this node decides under epoch %d, superseded by epoch %d", ErrFenced, d.epoch.Load(), d.fencedBy.Load())
}

// mutableErr is the gate every public state-changing operation passes:
// non-nil once the node is fenced.
func (d *Durable) mutableErr() error {
	if d.fencedBy.Load() != 0 {
		return d.fencedErr()
	}
	return nil
}

// SetDecisionGate installs a hook consulted before every admission
// decision; a non-nil return refuses the decision with that error. The
// daemon wires the primary decision lease here (repl.Lease.Check), so a
// primary cut off from its followers for longer than the lease TTL stops
// admitting — the other half, with epoch fencing, of split-brain safety.
// Call once, before the Durable is shared.
func (d *Durable) SetDecisionGate(gate func() error) { d.decideGate = gate }

// DecisionErr reports whether this node may currently make admission
// decisions: nil when it may, the fencing or lease error when it may not.
// The serving layer checks it up front to refuse submissions with a
// structured status instead of per-query errors.
func (d *Durable) DecisionErr() error {
	if err := d.mutableErr(); err != nil {
		return err
	}
	if d.decideGate != nil {
		return d.decideGate()
	}
	return nil
}

// ShardTails reports every shard's current replication tail: the open
// generation and the committed byte offset within its segment — the
// position up to which a follower may safely stream. Bytes past the
// committed offset belong to commit windows still in flight; a crash could
// truncate them, so the primary never serves them (wal.Cursor documents
// the reader side of this contract).
func (d *Durable) ShardTails() map[string]wal.Cursor {
	out := make(map[string]wal.Cursor, len(d.shards)+1)
	for _, sh := range d.allShards() {
		sh.mu.Lock()
		gen, lg := sh.gen, sh.log
		sh.mu.Unlock()
		out[sh.name] = wal.Cursor{Gen: gen, Off: lg.CommittedOffset()}
	}
	return out
}

// LogToken durably records a principal's submission token before it
// becomes active — the serving layer calls this on every token install or
// rotation (Durable implements server.TokenJournal). The token is logged
// to the principal's shard, alongside the rest of its history. Removing
// the principal (System.RemovePolicy) also retires its token.
func (d *Durable) LogToken(principal, token string) error {
	if err := d.mutableErr(); err != nil {
		return err
	}
	return d.appendApply(d.shardOf(principal), wal.Op{Token: &wal.TokenOp{Principal: principal, Token: token}}, func() {
		d.setToken(principal, token)
	})
}

// errShardBroken is the sticky refusal after an append or commit failure.
var errShardBroken = errors.New("disclosure: write-ahead log is broken from an earlier failure; restart to recover")

// errClosed refuses state-changing operations on a closed handle.
var errClosed = errors.New("disclosure: durable handle is closed")

// lockShard takes sh's mutex for an operation that logs, decides or
// rotates, refusing a closed handle and a broken shard. On nil the caller
// holds sh.mu.
func (d *Durable) lockShard(sh *walShard) error {
	sh.mu.Lock()
	var err error
	if d.closed.Load() {
		err = errClosed
	} else if sh.broken {
		err = errShardBroken
	}
	if err != nil {
		sh.mu.Unlock()
	}
	return err
}

// enqueueLocked frames payload into sh's open commit window; callers hold
// sh.mu, so the shard's log order is exactly its apply order. A failure
// marks the shard broken (see walShard.broken).
func (d *Durable) enqueueLocked(sh *walShard, payload []byte) error {
	ticket, err := sh.log.Enqueue(payload)
	if err != nil {
		sh.broken = true
		return fmt.Errorf("disclosure: wal append (shard %s): %w", sh.name, err)
	}
	sh.tail = ticket
	sh.ops++
	return nil
}

// releaseShard unlocks sh and then blocks, outside the mutex, until the
// newest record enqueued on the shard is on disk: the caller's own, or —
// the ack barrier — one an earlier operation still waits on, which a
// caller that logged nothing was nevertheless decided on top of (nothing
// in flight is the steady state and costs one compare). A commit failure
// marks the shard broken; a shard whose cadence came due rotates here.
func (d *Durable) releaseShard(sh *walShard) error {
	lg, ticket := sh.log, sh.tail
	due := d.ckptOps > 0 && sh.ops >= d.ckptOps
	if due {
		sh.ops = 0
	}
	sh.mu.Unlock()
	if err := lg.WaitDurable(ticket); err != nil {
		sh.mu.Lock()
		sh.broken = true
		sh.mu.Unlock()
		return fmt.Errorf("disclosure: wal commit (shard %s): %w", sh.name, err)
	}
	if due {
		d.checkpointShard(sh)
	}
	return nil
}

// appendApply logs op to sh and runs apply (if non-nil) under the shard
// mutex, acknowledging only after the record is durable.
func (d *Durable) appendApply(sh *walShard, op wal.Op, apply func()) error {
	payload, err := wal.EncodeOp(&op)
	if err != nil {
		return err
	}
	if err := d.lockShard(sh); err != nil {
		return err
	}
	if err := d.enqueueLocked(sh, payload); err != nil {
		sh.mu.Unlock()
		return err
	}
	if apply != nil {
		apply()
	}
	return d.releaseShard(sh)
}

// decide is System.decide's durable path: the monitor decides under the
// principal's shard lock, and only a decision that moved the session state
// appends a record; every other one, every refusal included, bumps the
// session's in-memory tally and is released once the barrier passes.
func (d *Durable) decide(principal, name string, lbl Label) (Decision, error) {
	if err := d.DecisionErr(); err != nil {
		return Decision{Allowed: false}, err
	}
	sh := d.shardOf(principal)
	if err := d.lockShard(sh); err != nil {
		return Decision{Allowed: false}, err
	}
	var dec Decision
	var cum Label
	err := d.sys.store.Do(principal, func(m *Monitor) {
		if dec = d.sys.decideLocked(m, name, lbl); dec.Changed {
			cum = m.Cumulative()
		}
	})
	if err == nil && dec.Changed {
		err = d.logTransitionLocked(sh, principal, dec.Live, cum)
	}
	if err != nil {
		sh.mu.Unlock()
		return Decision{Allowed: false}, err
	}
	if !dec.Changed {
		sh.soft = true
	}
	d.sys.mets.durableDecision(dec.Changed)
	if err := d.releaseShard(sh); err != nil {
		return Decision{Allowed: false}, err
	}
	return dec, nil
}

// logTransitionLocked enqueues the absolute state a session just moved
// to. The monitor is already ahead of the log, so failing to encode the
// record breaks the shard just as failing to append it does.
func (d *Durable) logTransitionLocked(sh *walShard, principal string, live []string, cum Label) error {
	sets, err := d.sys.cat.ViewSetsOf(cum)
	var payload []byte
	if err == nil {
		payload, err = wal.EncodeOp(&wal.Op{Transition: &wal.TransitionOp{Principal: principal, Live: live, Cumulative: sets}})
	}
	if err != nil {
		sh.broken = true
		return fmt.Errorf("disclosure: recording transition of %q: %w", principal, err)
	}
	return d.enqueueLocked(sh, payload)
}

// setPolicy durably installs a validated policy on the principal's shard.
func (d *Durable) setPolicy(principal string, partitions map[string][]string, p *Policy) error {
	if err := d.mutableErr(); err != nil {
		return err
	}
	return d.appendApply(d.shardOf(principal), wal.Op{Policy: &wal.PolicyOp{Principal: principal, Partitions: partitions}}, func() {
		d.sys.store.SetPolicy(principal, p)
	})
}

// removePolicy durably removes a principal (policy, session, token).
func (d *Durable) removePolicy(principal string) error {
	if err := d.mutableErr(); err != nil {
		return err
	}
	return d.appendApply(d.shardOf(principal), wal.Op{Remove: &wal.RemoveOp{Principal: principal}}, func() {
		d.sys.store.Remove(principal)
		d.dropToken(principal)
	})
}

// loadBatch is System.LoadBatch's durable path: the batch's inserted rows
// are framed into the meta shard's commit window as one record before the
// snapshot publishes, and the call acknowledges only after that record is
// durable. Bulk loads for different relations still serialize (the meta
// shard has one lock, as the engine has one write lock), but they no
// longer contend with any submission.
func (d *Durable) loadBatch(fn func(ld *Loader) error) error {
	if err := d.mutableErr(); err != nil {
		return err
	}
	sh := d.meta
	if err := d.lockShard(sh); err != nil {
		return err
	}
	err := d.sys.db.LoadRecorded(fn, func(rows []engine.Row) error {
		op := wal.RowsOp{Rows: make([]wal.Row, len(rows))}
		for i, r := range rows {
			op.Rows[i] = wal.Row{Rel: r.Rel, Values: r.Values}
		}
		payload, perr := wal.EncodeOp(&wal.Op{Rows: &op})
		if perr != nil {
			return perr
		}
		return d.enqueueLocked(sh, payload)
	})
	if werr := d.releaseShard(sh); err == nil {
		err = werr
	}
	return err
}

// Checkpoint serializes the full deployment state into a new checkpoint
// generation per shard, each rotated independently under only its own
// lock: the meta shard captures the configuration and rows, every data
// shard captures its slice of the per-principal monitors and tokens.
// State-changing operations on a shard block only while that shard
// rotates (reads always proceed). Generations older than the previous one
// are deleted per shard. On error the failing shard's previous generation
// remains current and its log keeps appending where it was.
func (d *Durable) Checkpoint() error {
	for _, sh := range d.allShards() {
		if err := d.lockShard(sh); err != nil {
			return err
		}
		err := d.rotateShardLocked(sh, sh.gen+1)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// checkpointShard is the self-rotation a shard performs when its
// CheckpointOps cadence comes due. Best effort: a rotation failure leaves
// the previous generation current (explicitly safe) and surfaces on the
// next explicit Checkpoint call instead of failing the triggering
// operation, whose record is already durable.
func (d *Durable) checkpointShard(sh *walShard) {
	if d.lockShard(sh) == nil {
		_ = d.rotateShardLocked(sh, sh.gen+1)
		sh.mu.Unlock()
	}
}

// Close flushes and closes every shard's log, first checkpointing the
// shards whose session tallies are ahead of it, so a graceful Close reopens
// with exact decision counts. The System remains usable in memory, but
// further state-changing calls fail; Close is final.
func (d *Durable) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	var err error
	for _, sh := range d.allShards() {
		sh.mu.Lock()
		if sh.soft && !sh.broken {
			err = errors.Join(err, d.rotateShardLocked(sh, sh.gen+1))
		}
		err = errors.Join(err, sh.log.Close())
		sh.mu.Unlock()
	}
	return err
}

// rotateShardLocked writes the shard's slice of the state as generation
// newGen: it flushes the old segment (the group-commit barrier: everything
// captured is durable before the new generation exists), streams the
// checkpoint's records to disk atomically, switches appending to a fresh
// segment, and prunes generations older than the previous one. Callers
// hold sh.mu (or own d exclusively during OpenDurable).
//
// The segment is created before the checkpoint is written: an empty
// wal-<s>-<g+1>.log next to a still-missing checkpoint recovers through
// checkpoint g (the empty segment replays as nothing), whereas the
// reverse order would leave a checkpoint whose generation shadows
// operations still being appended to the old segment. On any error the
// previous generation stays current and appending continues where it was.
func (d *Durable) rotateShardLocked(sh *walShard, newGen uint64) (err error) {
	t0 := time.Now()
	defer func() {
		if err != nil {
			checkpointFailures.Inc()
		} else {
			checkpointSeconds.Observe(time.Since(t0).Seconds())
		}
	}()
	header, records := d.captureShardLocked(sh, newGen)
	if sh.log != nil {
		if err := sh.log.Flush(); err != nil {
			sh.broken = true
			return fmt.Errorf("disclosure: flushing shard %s: %w", sh.name, err)
		}
	}
	nl, err := wal.CreateGroup(wal.ShardSegmentPath(d.dir, sh.name, newGen), !d.noSync)
	if err != nil {
		return fmt.Errorf("disclosure: %w", err)
	}
	if err := wal.WriteSnapshotFile(wal.ShardCheckpointPath(d.dir, sh.name, newGen), header, records); err != nil {
		nl.Close()
		return fmt.Errorf("disclosure: %w", err)
	}
	if sh.log != nil {
		_ = sh.log.Close()
	}
	sh.log, sh.tail = nl, 0
	sh.gen = newGen
	sh.ops = 0
	sh.soft = false
	if newGen >= 2 {
		for g := newGen - 2; ; g-- {
			ckptGone := removeMissingOK(wal.ShardCheckpointPath(d.dir, sh.name, g))
			segGone := removeMissingOK(wal.ShardSegmentPath(d.dir, sh.name, g))
			if (ckptGone && segGone) || g == 0 {
				break
			}
		}
	}
	return nil
}

// removeMissingOK removes a file and reports whether it was already
// absent (the signal that older generations were pruned before).
func removeMissingOK(path string) bool {
	err := os.Remove(path)
	return err != nil && os.IsNotExist(err)
}

// captureShardLocked renders one shard's slice of the deployment state as
// a checkpoint: the header, and a function that emits the records which
// rebuild the slice when applied in order to an empty one — the same
// records the log carries, stating the state outright. The meta shard emits
// the epoch and every table row, wal.RowsPerRecord to a record; a data
// shard emits, for exactly the principals the router assigns to it, the
// policy, the session (tallies included) and the token. Nothing is
// gathered first: records are built as they are emitted, so a checkpoint
// costs no memory proportional to the state. Callers hold sh.mu until the
// records have been emitted, so no state-changing operation is in flight
// on this shard and its slice is quiescent — the count in the header is
// the count emitted; other shards keep writing theirs, which is safe
// because the slices are disjoint.
func (d *Durable) captureShardLocked(sh *walShard, gen uint64) (*wal.HeaderOp, func(emit func(*wal.Op) error) error) {
	sys := d.sys
	header := &wal.HeaderOp{Shard: sh.name, Shards: len(d.shards), Generation: gen}
	if sh == d.meta {
		header.Config = store.Snapshot(sys.db.Schema(), sys.cat, nil)
		epochs := []*wal.EpochOp{{Epoch: d.epoch.Load()}}
		if by := d.fencedBy.Load(); by != 0 {
			epochs = append(epochs, &wal.EpochOp{Epoch: by, Fenced: true})
		}
		snap := sys.db.Snapshot()
		rows := 0
		for _, rel := range sys.db.Schema().Relations() {
			rows += snap.Table(rel.Name()).Len()
		}
		header.Records = len(epochs) + (rows+wal.RowsPerRecord-1)/wal.RowsPerRecord
		return header, func(emit func(*wal.Op) error) error {
			for _, e := range epochs {
				if err := emit(&wal.Op{Epoch: e}); err != nil {
					return err
				}
			}
			chunk := make([]wal.Row, 0, min(rows, wal.RowsPerRecord))
			for _, rel := range sys.db.Schema().Relations() {
				for row := range snap.Table(rel.Name()).All() {
					chunk = append(chunk, wal.Row{Rel: rel.Name(), Values: row})
					if len(chunk) == wal.RowsPerRecord {
						if err := emit(&wal.Op{Rows: &wal.RowsOp{Rows: chunk}}); err != nil {
							return err
						}
						chunk = chunk[:0]
					}
				}
			}
			if len(chunk) > 0 {
				return emit(&wal.Op{Rows: &wal.RowsOp{Rows: chunk}})
			}
			return nil
		}
	}

	d.tokMu.Lock()
	tokens := make(map[string]string)
	for principal, token := range d.tokens {
		if d.router.Shard(principal) == sh.id {
			tokens[principal] = token
		}
	}
	d.tokMu.Unlock()
	principals := 0
	sys.store.Each(func(principal string, _ *policy.Monitor) {
		if d.router.Shard(principal) == sh.id {
			principals++
		}
	})
	header.Records = 2*principals + len(tokens)
	return header, func(emit func(*wal.Op) error) error {
		var err error
		sys.store.Each(func(principal string, m *policy.Monitor) {
			if err != nil || d.router.Shard(principal) != sh.id {
				return
			}
			parts := make(map[string][]string)
			for _, part := range m.Policy().Partitions() {
				parts[part.Name] = part.Views
			}
			if err = emit(&wal.Op{Policy: &wal.PolicyOp{Principal: principal, Partitions: parts}}); err != nil {
				return
			}
			var cum [][]string
			if cum, err = sys.cat.ViewSetsOf(m.Cumulative()); err != nil {
				err = fmt.Errorf("disclosure: checkpointing principal %q: %w", principal, err)
				return
			}
			accepted, refused := m.Stats()
			err = emit(&wal.Op{Transition: &wal.TransitionOp{
				Principal: principal, Live: m.LiveNames(), Cumulative: cum, Accepted: accepted, Refused: refused,
			}})
		})
		for _, principal := range slices.Sorted(maps.Keys(tokens)) {
			if err != nil {
				break
			}
			err = emit(&wal.Op{Token: &wal.TokenOp{Principal: principal, Token: tokens[principal]}})
		}
		return err
	}
}

// systemFromConfig builds a System from a checkpointed configuration,
// through the same store.Config.Build validation the -config path uses.
func systemFromConfig(cfg *store.Config) (*System, error) {
	s, cat, _, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	return NewSystem(s, cat.Views()...)
}

// verifyConfig checks that the caller-supplied schema and views match the
// checkpointed configuration exactly. Labels and policies are only
// meaningful against the catalog they were computed under, so a silent
// divergence here would corrupt every recovered session.
func verifyConfig(got *store.Config, s *Schema, views []*Query) error {
	if len(got.Schema) != len(s.Relations()) {
		return fmt.Errorf("disclosure: checkpoint has %d relations, caller supplied %d", len(got.Schema), len(s.Relations()))
	}
	for i, r := range s.Relations() {
		rd := got.Schema[i]
		if rd.Name != r.Name() || len(rd.Attrs) != r.Arity() {
			return fmt.Errorf("disclosure: checkpoint relation %d is %q/%d, caller supplied %q/%d",
				i, rd.Name, len(rd.Attrs), r.Name(), r.Arity())
		}
		for j, a := range r.Attrs() {
			if rd.Attrs[j] != a {
				return fmt.Errorf("disclosure: relation %q attribute %d differs: checkpoint %q, caller %q", rd.Name, j, rd.Attrs[j], a)
			}
		}
	}
	if len(got.Views) != len(views) {
		return fmt.Errorf("disclosure: checkpoint has %d security views, caller supplied %d", len(got.Views), len(views))
	}
	for i, v := range views {
		if got.Views[i] != v.String() {
			return fmt.Errorf("disclosure: security view %d differs: checkpoint %q, caller %q", i, got.Views[i], v.String())
		}
	}
	return nil
}
