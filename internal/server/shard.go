// Package server implements the bloomrfd serving layer: a registry of named,
// sharded bloomRF filters behind an HTTP JSON API (create / insert / query /
// query-range / stats / snapshot, with batch variants of each), durable
// snapshots on disk (persist.go, lifecycle.go) and a Prometheus-style
// /metrics endpoint (metrics.go).
//
// The package splits into three layers:
//
//   - Registry (registry.go) maps names to filters. Its lock guards only
//     the name table; filter operations never serialize on it.
//   - ShardedFilter (this file) splits one logical filter across N
//     independent bloomRF instances so concurrent inserts land on disjoint
//     bit arrays, and serves every operation through the zero-allocation
//     batch APIs (batchexec.go). Queries run on the caller's goroutine; a
//     hash-routed range probes every shard from one range plan, since all
//     the shards share one layout. Only large insert batches fan out one
//     goroutine per shard.
//   - partitioner (partition.go) is the routing strategy between them:
//     which shard owns a key, and which shards a range query must probe.
//
// Two partitioning modes exist, chosen per filter at create time:
//
//   - hash (default): keys route by an independent hash. Inserts and point
//     queries spread uniformly whatever the key distribution, but a key
//     interval scatters across every shard, so a range query ORs all N
//     shard answers and the range false-positive rate grows roughly N-fold.
//     The decomposition is shared: one plan per range serves all N shards.
//   - range: the uint64 keyspace splits into N contiguous spans (equal
//     width at create time; live span splits may divide them further —
//     split.go). Point ops still touch exactly one shard, and a range query
//     probes only the shards whose span intersects the interval — typically
//     one — keeping the range FPR near the single-filter rate, at the cost
//     of load skew under non-uniform key distributions.
//
// Shard topology is a copy-on-write table (shardTable): every operation
// loads the current table once and works against that immutable view, and
// a span split publishes a whole new table with one atomic pointer store.
// Surviving shards are shared between consecutive tables by pointer, so a
// split copies O(shards) pointers, never filter state.
//
// The trade-off table and guidance live in docs/server.md; the layer map in
// docs/architecture.md.
package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// MaxShards bounds the fan-out of one logical filter. 256 shards is far
// past the point of diminishing returns for insert parallelism and keeps
// the N-fold range-FPR inflation of hash partitioning bounded. It also caps
// how far span splits can subdivide a filter, and keeps shard ids inside
// the uint8 the batch grouping scratch uses (batchexec.go).
const MaxShards = 256

// MaxFilterBits bounds one filter's total memory (ExpectedKeys·BitsPerKey)
// to 8 GiB, so a single unauthenticated create request cannot allocate the
// host into the ground.
const MaxFilterBits = 1 << 36

// fanOutMinKeys is the insert fan-out threshold: an insert batch below it
// runs the serial per-shard loop, because spawning goroutines costs more
// than the work they would parallelize. Above it the fan-out is still
// per-shard selective: sub-batches smaller than the inline threshold in
// batchexec.go run on the caller's goroutine. Query batches never fan out.
const fanOutMinKeys = 2048

// histBuckets is the resolution of the per-shard insert-key histogram that
// drives split-point selection (split.go). 16 equal-width buckets over the
// shard's span: enough to put a split within 1/16 of the span of the
// weighted median, cheap enough (16 atomic counters per shard, batch-local
// counting before one atomic add per touched bucket) to run on the insert
// hot path.
const histBuckets = 16

// FilterOptions sizes a sharded filter. The per-shard filters divide
// ExpectedKeys evenly; the total memory budget is ExpectedKeys·BitsPerKey
// bits regardless of the shard count. The JSON tags are the wire schema of
// both the create endpoint and the snapshot manifest (persist.go).
type FilterOptions struct {
	// ExpectedKeys is the anticipated total number of inserted keys.
	ExpectedKeys uint64 `json:"expected_keys"`
	// BitsPerKey is the space budget. 0 means DefaultBitsPerKey.
	BitsPerKey float64 `json:"bits_per_key"`
	// MaxRange, when > 0, runs the paper's tuning advisor per shard for
	// range queries up to this width; 0 builds basic (point-oriented)
	// filters, which still answer ranges up to ~2^14 well.
	MaxRange float64 `json:"max_range"`
	// Shards is the fan-out N. 0 means DefaultShards. Options returns the
	// live count, which span splits grow past the created value.
	Shards int `json:"shards"`
	// Partitioning is the key-routing mode, PartitionHash or
	// PartitionRange. Empty means PartitionHash, which is also what
	// snapshot manifests from before the field existed restore as. An
	// empty value is omitted from JSON, as those manifests omit it.
	Partitioning Partitioning `json:"partitioning,omitempty"`
	// Backend names the filter implementation behind every shard. The
	// server serves bloomRF only: "" and "bloomrf" are accepted, and
	// Options reports "bloomrf". Manifests record it from v4 on
	// (persist.go); earlier builds also served "bloom", "rosetta" and
	// "surf", which are now refused.
	Backend string `json:"backend,omitempty"`
}

// BackendBloomRF is the one backend the server serves.
const BackendBloomRF = "bloomrf"

// Defaults applied by NewSharded for zero option fields.
const (
	DefaultBitsPerKey = 16.0
	DefaultShards     = 8
)

// SnapshotInfo describes the most recent durable snapshot of a filter.
type SnapshotInfo struct {
	// Seq is the snapshot sequence number (monotonic per filter).
	Seq uint64 `json:"seq"`
	// UnixNano is the manifest creation time.
	UnixNano int64 `json:"unix_nano"`
	// Bytes is the total size of the snapshot's shard blobs.
	Bytes int64 `json:"bytes"`
	// WALPos is the write-ahead-log position the snapshot covers; WAL
	// segments entirely below the minimum WALPos across live filters are
	// truncatable (durability.go). 0 when no WAL was attached.
	WALPos uint64 `json:"wal_pos,omitempty"`
	// ReusedShards counts shard blobs the snapshot reused from the
	// previous one instead of re-marshaling, because the shard's mutation
	// epoch had not moved — the dirty-shard incremental capture
	// (persist.go). 0 for full snapshots.
	ReusedShards int `json:"reused_shards,omitempty"`
	// DurationNanos is how long the snapshot pass took (capture through
	// manifest commit). Stats-only; not persisted in the manifest.
	DurationNanos int64 `json:"duration_nanos,omitempty"`
}

// shardState is one shard of a sharded filter: the filter instance plus
// everything that belongs to the shard rather than the logical filter — its
// lock, its owned key span, and its per-shard counters. States are shared
// by pointer between consecutive shard tables, so a split replaces only the
// shard it divides and counters on surviving shards never miss an update.
type shardState struct {
	f *core.Filter

	// mu serializes marshals against inserts: insert paths hold the read
	// side (shared, so inserts still run in parallel) and captures hold the
	// write side, so a snapshot of a shard contains every insert that
	// completed before it and no torn half-applied insert. A split also
	// holds the write side of the shard it retires across the table swap —
	// the fence that makes a concurrent insert either land before the swap
	// (visible to the splitter via mut) or re-route through the new table.
	mu sync.RWMutex

	// lo, hi bound the shard's owned key span, inclusive (range modes).
	// Hash routing owns no interval: lo = 0, hi = ^0, bucketW = 0.
	lo, hi uint64
	// bucketW is the insert-histogram bucket width, (hi-lo)/histBuckets+1;
	// 0 disables the histogram (hash routing).
	bucketW uint64

	// mut is the shard's mutation epoch: bumped before every insert applies
	// (inside the read-locked critical section), so an observer that reads
	// mut, captures the shard, and later re-reads an unchanged mut knows no
	// bit moved in between — the cheap cleanliness proof behind incremental
	// snapshots and the split's stale-clone check. Process-local; restores
	// reset it to zero.
	mut atomic.Uint64

	// Per-shard traffic counters, the raw data behind the partition-skew
	// gauges in /metrics: keys resident in the shard (placement skew) and
	// probes actually routed to it (the routing proof).
	keys        atomic.Uint64
	pointProbes atomic.Uint64
	rangeProbes atomic.Uint64

	// hist is the insert-key histogram over the shard's span, bucket b
	// counting inserts of keys in [lo + b·bucketW, lo + (b+1)·bucketW).
	// Split-point selection reads it to place the cut at the weighted
	// median instead of the span midpoint (split.go).
	hist [histBuckets]atomic.Uint64
}

// noteInserts records a sub-batch in the shard's key histogram. Counting
// into a stack-local array first keeps the hot path at ≤histBuckets atomic
// adds per sub-batch instead of one per key.
func (ss *shardState) noteInserts(sub []uint64) {
	if ss.bucketW == 0 {
		return
	}
	var h [histBuckets]uint64
	for _, k := range sub {
		b := (k - ss.lo) / ss.bucketW
		if b >= histBuckets {
			b = histBuckets - 1 // defensive: a misrouted key must not panic
		}
		h[b]++
	}
	for b, c := range h {
		if c != 0 {
			ss.hist[b].Add(c)
		}
	}
}

// histSnapshot reads the histogram once.
func (ss *shardState) histSnapshot() (h [histBuckets]uint64, total uint64) {
	for b := range ss.hist {
		h[b] = ss.hist[b].Load()
		total += h[b]
	}
	return h, total
}

// shardTable is one immutable shard topology: the routing partitioner and
// the shard states it routes to, in span order. ShardedFilter publishes a
// new table atomically on every split; operations load the pointer once and
// use that consistent view throughout.
type shardTable struct {
	part   partitioner
	shards []*shardState
	// epoch increments on every table swap. Restores start at 0; the value
	// fences stale observers — incremental snapshot state recorded under an
	// older epoch is discarded rather than trusted across a topology change.
	epoch uint64
}

// newShardTable pairs states with a partitioner, assigning each state its
// owned span (and histogram bucket width) from the partitioner's span
// table.
func newShardTable(part partitioner, filters []*core.Filter, epoch uint64) *shardTable {
	starts := part.spans()
	shards := make([]*shardState, len(filters))
	for i, f := range filters {
		ss := &shardState{f: f, hi: ^uint64(0)}
		if starts != nil {
			ss.lo = starts[i]
			if i+1 < len(starts) {
				ss.hi = starts[i+1] - 1
			}
			ss.bucketW = (ss.hi-ss.lo)/histBuckets + 1
		}
		shards[i] = ss
	}
	return &shardTable{part: part, shards: shards, epoch: epoch}
}

// ShardedFilter is one logical bloomRF filter split across independent
// shards, with key routing delegated to the current shard table's
// partitioner. All methods are safe for concurrent use.
type ShardedFilter struct {
	tab  atomic.Pointer[shardTable]
	keys atomic.Uint64 // inserted-key count, for stats
	opt  FilterOptions

	// splitMu serializes topology changes and whole-table captures: span
	// splits (split.go) and snapshot passes (persist.go) both hold it, so a
	// snapshot can never interleave with a split's swap-and-backfill window
	// and record post-split blobs under a pre-split WAL position.
	splitMu sync.Mutex

	// applyMu is the mutation drain gate. Mutating request handlers hold
	// the read side across apply + WAL append (beginApply/endApply); a
	// split, after swapping the table, acquires and releases the write side
	// once — when that returns, every mutation that could have applied to
	// the old table has finished its WAL append, so the split's tail replay
	// reads a log that already contains every straggler (split.go).
	applyMu sync.RWMutex

	// incr is the incremental-snapshot state: which snapshot seq the last
	// capture of this process wrote, under which table epoch (persist.go).
	// Guarded by splitMu. Process-local on purpose — mutation epochs reset
	// on restart, so the first snapshot of an incarnation is always full.
	incr *incrSnapState

	splits        atomic.Uint64 // completed span splits since process start
	autoSplitting atomic.Bool   // one auto-split loop per filter at a time (metrics.go)

	// splitHook, when non-nil, is called at each split lifecycle stage
	// (split.go names them); the crash-injection tests use it to interleave
	// traffic and simulated kills at exact boundaries. Set before serving;
	// never called with locks held.
	splitHook func(stage string)

	// Query counters for /metrics; positives count "maybe" answers, so
	// positives/queries approximates the observed hit + false-positive rate.
	pointQueries   atomic.Uint64
	pointPositives atomic.Uint64
	rangeQueries   atomic.Uint64
	rangePositives atomic.Uint64

	// Server-side latency histograms per op × codec: the trace total of
	// every served request, recorded by recordTrace (phases.go); /metrics
	// and Stats read them.
	lat [numLatOps][numLatCodecs]obs.Hist

	// Per-phase request-time accumulators (phases.go). Global per-phase
	// *histograms* live on the API (one table across filters, labeled by
	// op and codec); here the filter keeps only cheap counters — total
	// nanoseconds per phase, trace count, total and unattributed time —
	// enough for the stats "phases" block and the per-filter /metrics
	// counters without 42 more histograms per filter.
	phaseNs       [obs.NumPhases]atomic.Uint64
	traceCount    atomic.Uint64
	traceTotalNs  atomic.Uint64
	traceUnattrNs atomic.Uint64
	// slowLogUnixNs is the wall time of the filter's last slow-request
	// log line, the 1/s/filter rate limit (phases.go).
	slowLogUnixNs atomic.Int64

	// Split instrumentation: cumulative wall time spent in completed
	// splits and WAL-tail keys replayed by them (split.go).
	splitNs       atomic.Uint64
	splitReplayed atomic.Uint64

	snap atomic.Pointer[SnapshotInfo] // last durable snapshot, nil if none
}

// incrSnapState remembers the last snapshot this process captured, so the
// next pass can reuse blobs of shards whose mutation epoch has not moved.
type incrSnapState struct {
	seq   uint64 // snapshot sequence the capture committed as
	epoch uint64 // table epoch the capture saw; a split invalidates reuse
}

// NewSharded builds a sharded filter. It validates and defaults opt.
func NewSharded(opt FilterOptions) (*ShardedFilter, error) {
	s, perShard, err := newShardedShell(&opt)
	if err != nil {
		return nil, err
	}
	tab := s.tab.Load()
	for i := range tab.shards {
		if s.opt.MaxRange == 0 {
			tab.shards[i].f = core.NewBasic(perShard, s.opt.BitsPerKey)
			continue
		}
		f, _, err := core.NewTuned(core.TuneOptions{N: perShard, BitsPerKey: s.opt.BitsPerKey, MaxRange: s.opt.MaxRange})
		if err != nil {
			return nil, fmt.Errorf("server: building shard %d: %w", i, err)
		}
		tab.shards[i].f = f
	}
	return s, nil
}

// newShardedShell validates and defaults opt and allocates a ShardedFilter
// whose shard table has empty filter slots, returning the per-shard key
// budget. Shared by NewSharded (which builds fresh filters) and
// restoreSharded (which fills the slots from snapshot blobs).
func newShardedShell(opt *FilterOptions) (*ShardedFilter, uint64, error) {
	if opt.Shards == 0 {
		opt.Shards = DefaultShards
	}
	if opt.Shards < 1 || opt.Shards > MaxShards {
		return nil, 0, fmt.Errorf("server: shards %d out of range [1,%d]", opt.Shards, MaxShards)
	}
	if opt.BitsPerKey == 0 {
		opt.BitsPerKey = DefaultBitsPerKey
	}
	if opt.BitsPerKey < 1 || opt.BitsPerKey > 64 {
		return nil, 0, fmt.Errorf("server: bits per key %g out of range [1,64]", opt.BitsPerKey)
	}
	if opt.ExpectedKeys == 0 {
		return nil, 0, fmt.Errorf("server: expected keys must be > 0")
	}
	if opt.MaxRange < 0 {
		return nil, 0, fmt.Errorf("server: max range %g must be ≥ 0", opt.MaxRange)
	}
	if bits := float64(opt.ExpectedKeys) * opt.BitsPerKey; bits > MaxFilterBits {
		return nil, 0, fmt.Errorf("server: expected_keys·bits_per_key = %.0f bits exceeds limit %d (8 GiB)",
			bits, uint64(MaxFilterBits))
	}
	if opt.Partitioning == "" {
		opt.Partitioning = PartitionHash
	}
	if opt.Backend == "" {
		opt.Backend = BackendBloomRF
	}
	if opt.Backend != BackendBloomRF {
		return nil, 0, fmt.Errorf("server: backend %q is not served; %s is the only servable backend",
			opt.Backend, BackendBloomRF)
	}
	part, err := newPartitioner(opt.Partitioning, uint64(opt.Shards))
	if err != nil {
		return nil, 0, err
	}
	perShard := opt.ExpectedKeys / uint64(opt.Shards)
	if perShard == 0 {
		perShard = 1
	}
	s := &ShardedFilter{opt: *opt}
	s.tab.Store(newShardTable(part, make([]*core.Filter, opt.Shards), 0))
	return s, perShard, nil
}

// restoreSharded rebuilds a sharded filter from deserialized shards (one
// per shard, in shard order) and the options, key counts and span table
// recorded in a snapshot manifest. The shard count must match opt.Shards.
// shardKeys is the per-shard inserted-key counts; nil (v1 manifests predate
// them) leaves the per-shard counters at zero, which only dims the skew
// gauges. spans, when non-nil (v5 range-mode manifests), is the span-start
// table — required to restore a filter whose spans a split made non-uniform;
// nil restores the uniform create-time spans.
func restoreSharded(opt FilterOptions, shards []*core.Filter, insertedKeys uint64, shardKeys []uint64, spans []uint64) (*ShardedFilter, error) {
	s, _, err := newShardedShell(&opt)
	if err != nil {
		return nil, err
	}
	tab := s.tab.Load()
	if len(shards) != len(tab.shards) {
		return nil, fmt.Errorf("server: restore has %d shards, options say %d", len(shards), len(tab.shards))
	}
	if shardKeys != nil && len(shardKeys) != len(tab.shards) {
		return nil, fmt.Errorf("server: restore has %d shard key counts, options say %d shards", len(shardKeys), len(tab.shards))
	}
	if spans != nil {
		if opt.Partitioning != PartitionRange {
			return nil, fmt.Errorf("server: restore has a span table under %s partitioning", opt.Partitioning)
		}
		if len(spans) != len(shards) {
			return nil, fmt.Errorf("server: restore has %d spans for %d shards", len(spans), len(shards))
		}
		part, err := newSpanPartitioner(spans)
		if err != nil {
			return nil, err
		}
		tab = newShardTable(part, shards, 0)
		s.tab.Store(tab)
	}
	for i, f := range shards {
		tab.shards[i].f = f
	}
	s.keys.Store(insertedKeys)
	for i, k := range shardKeys {
		tab.shards[i].keys.Store(k)
	}
	return s, nil
}

// Options returns the validated, defaulted options the filter was built
// with, with Shards reporting the live shard count (splits grow it past the
// created value); the snapshot manifest persists them so a restore rebuilds
// an identically-routed filter.
func (s *ShardedFilter) Options() FilterOptions {
	opt := s.opt
	opt.Shards = len(s.tab.Load().shards)
	return opt
}

// NumShards returns the current shard count.
func (s *ShardedFilter) NumShards() int { return len(s.tab.Load().shards) }

// shardOf reports which shard of the current routing table owns key.
// Routing is table-relative: the same key may map to a different index
// after a split swaps in a finer table.
func (s *ShardedFilter) shardOf(key uint64) uint64 { return s.tab.Load().part.shardOf(key) }

// Partitioning returns the filter's routing mode.
func (s *ShardedFilter) Partitioning() Partitioning { return s.tab.Load().part.mode() }

// TableEpoch returns the current shard-table epoch: how many times the
// topology has changed since the filter was built or restored.
func (s *ShardedFilter) TableEpoch() uint64 { return s.tab.Load().epoch }

// Splits returns how many span splits completed since process start.
func (s *ShardedFilter) Splits() uint64 { return s.splits.Load() }

// beginApply opens one mutation's apply + WAL-append critical section; the
// handler must call endApply after the record is appended (or the mutation
// abandoned). The read side of a RWMutex, so mutations never serialize on
// each other — only a split's post-swap drain takes the write side, and
// only for an instant (shard.go field comment, split.go).
func (s *ShardedFilter) beginApply() { s.applyMu.RLock() }

// endApply closes the section beginApply opened.
func (s *ShardedFilter) endApply() { s.applyMu.RUnlock() }

// hook invokes the split lifecycle test hook, if any.
func (s *ShardedFilter) hook(stage string) {
	if s.splitHook != nil {
		s.splitHook(stage)
	}
}

// MarshalShard serializes shard i of the current table under the shard's
// write lock, so the blob reflects a point between fully applied inserts on
// that shard (inserts hold the read side for their duration). Consistency
// is per shard: a batch spanning shards may land in some shards' blobs and
// not others.
func (s *ShardedFilter) MarshalShard(i int) ([]byte, error) {
	blob, _, err := s.tab.Load().captureShard(i)
	return blob, err
}

// captureShard marshals shard i under its write lock, returning the blob
// and the shard's mutation epoch at capture. While the caller holds no
// other guarantee, an epoch re-read that still matches proves the blob
// still reflects every applied insert (mut bumps before apply, inside the
// same read-locked section).
func (tab *shardTable) captureShard(i int) ([]byte, uint64, error) {
	ss := tab.shards[i]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	blob, err := ss.f.MarshalBinary()
	return blob, ss.mut.Load(), err
}

// drainShard waits out the inserts running on shard i — it takes and drops
// the shard's write lock — and returns the shard's mutation epoch read
// under it. Every insert that began before the call has then completed;
// every one that begins after it bumps the epoch before its bits move
// (insertShard). A snapshot streams the shard after the call, without the
// lock (Store.SnapshotGuarded).
func (tab *shardTable) drainShard(i int) uint64 {
	ss := tab.shards[i]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.mut.Load()
}

// setSnapshotInfo records the filter's latest durable snapshot for stats
// and /metrics. The persistence layer calls it after a successful commit.
func (s *ShardedFilter) setSnapshotInfo(info SnapshotInfo) { s.snap.Store(&info) }

// LastSnapshot returns the most recent durable snapshot's metadata, or nil
// if the filter has never been snapshotted.
func (s *ShardedFilter) LastSnapshot() *SnapshotInfo { return s.snap.Load() }

// Insert adds one key: a one-key InsertBatch, so insertShard is the one
// place an insert takes the shard lock and bumps the counters. The key
// goes through the pooled scratch, so a warm call does not allocate.
func (s *ShardedFilter) Insert(key uint64) {
	sc := getScratch()
	sc.keys = append(sc.keys[:0], key)
	s.insertBatchWith(sc.keys, sc)
	putScratch(sc)
}

// MayContain tests one key; false is definitive. It is a one-key
// MayContainBatch through the pooled scratch: both partitioning modes
// probe exactly the one shard owning the key. Queries never validate the
// table: a shard a split just retired still answers correctly for every
// key it was ever routed (its bits are a superset of the replacement's).
func (s *ShardedFilter) MayContain(key uint64) bool {
	sc := getScratch()
	sc.keys = append(sc.keys[:0], key)
	sc.out = grown(sc.out, 1)
	s.mayContainBatchWith(sc.keys, sc.out, sc)
	ok := sc.out[0]
	putScratch(sc)
	return ok
}

// rangeOne probes one [lo, hi] query against the shards the partitioner
// routes it to: under hash partitioning every shard, through hashRanges;
// under range partitioning the span-overlapping shards, ORing the answers
// and stopping at the first positive. Every routed shard counts one range
// probe, whether or not the loop reached it. Callers account the
// query-level metrics.
func (s *ShardedFilter) rangeOne(tab *shardTable, lo, hi uint64) bool {
	if tab.part.mode() == PartitionHash {
		r := [1][2]uint64{{lo, hi}}
		var out [1]bool
		s.hashRanges(tab, r[:], out[:])
		return out[0]
	}
	first, last := tab.part.rangeShards(lo, hi)
	for sh := first; sh <= last; sh++ {
		tab.shards[sh].rangeProbes.Add(1)
	}
	for sh := first; sh <= last; sh++ {
		if tab.shards[sh].f.MayContainRange(lo, hi) {
			return true
		}
	}
	return false
}

// MayContainRange tests whether any key in [lo, hi] (inclusive, either
// order) may have been inserted; false is definitive. Under hash
// partitioning every shard is consulted and the answers ORed, so the
// false-positive rate is roughly the per-shard rate times the shard count;
// under range partitioning only shards whose span intersects [lo, hi] are
// probed — one shard, when the interval sits inside a single span.
func (s *ShardedFilter) MayContainRange(lo, hi uint64) bool {
	ok := s.rangeOne(s.tab.Load(), lo, hi)
	s.rangeQueries.Add(1)
	if ok {
		s.rangePositives.Add(1)
	}
	return ok
}

// insertShard runs one shard's sub-batch under the shard's read lock,
// counting the keys before the lock drops, so a snapshot's manifest never
// undercounts the keys its blobs contain. It reports false — nothing
// applied — when the shard table changed between the caller's load and the
// lock acquisition: the shard may have been retired by a split, and
// inserting into a retired shard after its replacement was captured would
// lose the keys. The caller re-routes the sub-batch through the new table.
// The batch entry points that feed it live in batchexec.go, which owns the
// pooled grouping scratch and the fan-out policy.
func (s *ShardedFilter) insertShard(tab *shardTable, sh int, sub []uint64) bool {
	ss := tab.shards[sh]
	ss.mu.RLock()
	if s.tab.Load() != tab {
		ss.mu.RUnlock()
		return false
	}
	// Bump the epoch before the bits move: a concurrent capture that read
	// an equal epoch before and after marshaling is then guaranteed no
	// insert landed in between (a racy observer may see the bump without
	// the insert and conservatively re-capture — never the reverse).
	ss.mut.Add(1)
	ss.f.InsertBatch(sub)
	s.keys.Add(uint64(len(sub)))
	ss.keys.Add(uint64(len(sub)))
	ss.noteInserts(sub)
	ss.mu.RUnlock()
	return true
}

// ShardedStats aggregates occupancy and traffic counters across shards.
// The per-shard slices are indexed by shard id and feed the partition
// traffic/skew gauges in /metrics.
type ShardedStats struct {
	Shards         int          `json:"shards"`
	Partitioning   Partitioning `json:"partitioning"`
	Backend        string       `json:"backend"`
	ExpectedKeys   uint64       `json:"expected_keys"`
	InsertedKeys   uint64       `json:"inserted_keys"`
	BitsPerKey     float64      `json:"bits_per_key"`
	MaxRange       float64      `json:"max_range"`
	SizeBits       uint64       `json:"size_bits"`
	SetBits        uint64       `json:"set_bits"`
	K              int          `json:"k"`
	FillRatio      float64      `json:"fill_ratio"`
	PointQueries   uint64       `json:"point_queries"`
	PointPositives uint64       `json:"point_positives"`
	RangeQueries   uint64       `json:"range_queries"`
	RangePositives uint64       `json:"range_positives"`
	// Splits counts completed live span splits since process start;
	// TableEpoch counts topology changes of the current incarnation
	// (restores reset both).
	Splits     uint64 `json:"splits"`
	TableEpoch uint64 `json:"table_epoch"`
	// Spans is the span-start table under range partitioning — Spans[i] is
	// the smallest key shard i owns. Uniform at create time; splits divide
	// entries. Omitted under hash routing.
	Spans []uint64 `json:"spans,omitempty"`
	// ShardKeys is the number of keys resident per shard; its spread is
	// the placement skew (KeySkew summarizes it as max/mean).
	ShardKeys []uint64 `json:"shard_keys"`
	// ShardPointProbes / ShardRangeProbes count probes routed to each
	// shard; under range partitioning a narrow range query advances
	// exactly one entry.
	ShardPointProbes []uint64 `json:"shard_point_probes"`
	ShardRangeProbes []uint64 `json:"shard_range_probes"`
	// KeySkew is max(ShardKeys)/mean(ShardKeys), 1.0 for a perfectly even
	// spread and 0 while the filter is empty.
	KeySkew  float64       `json:"key_skew"`
	Snapshot *SnapshotInfo `json:"snapshot,omitempty"`
	// Latency summarizes server-side per-op latency, one entry per
	// op × codec pair that has served at least one request (phases.go).
	Latency []OpLatency `json:"latency,omitempty"`
	// Phases breaks the filter's served request time down by pipeline
	// phase (phases.go); present once at least one traced request
	// completed. The final entry is the unattributed remainder.
	Phases []PhaseStat `json:"phases,omitempty"`
}

// Stats returns aggregate occupancy statistics over the current table.
func (s *ShardedFilter) Stats() ShardedStats {
	tab := s.tab.Load()
	n := len(tab.shards)
	st := ShardedStats{
		Shards:           n,
		Partitioning:     tab.part.mode(),
		Backend:          s.opt.Backend,
		ExpectedKeys:     s.opt.ExpectedKeys,
		InsertedKeys:     s.keys.Load(),
		BitsPerKey:       s.opt.BitsPerKey,
		MaxRange:         s.opt.MaxRange,
		PointQueries:     s.pointQueries.Load(),
		PointPositives:   s.pointPositives.Load(),
		RangeQueries:     s.rangeQueries.Load(),
		RangePositives:   s.rangePositives.Load(),
		Splits:           s.splits.Load(),
		TableEpoch:       tab.epoch,
		Spans:            tab.part.spans(),
		ShardKeys:        make([]uint64, n),
		ShardPointProbes: make([]uint64, n),
		ShardRangeProbes: make([]uint64, n),
		Snapshot:         s.snap.Load(),
	}
	var maxKeys, sumKeys uint64
	for i, ss := range tab.shards {
		fst := ss.f.Stats()
		st.SizeBits += fst.SizeBits
		st.SetBits += fst.SetBits
		st.K = fst.K
		st.ShardKeys[i] = ss.keys.Load()
		st.ShardPointProbes[i] = ss.pointProbes.Load()
		st.ShardRangeProbes[i] = ss.rangeProbes.Load()
		sumKeys += st.ShardKeys[i]
		if st.ShardKeys[i] > maxKeys {
			maxKeys = st.ShardKeys[i]
		}
	}
	if st.SizeBits > 0 {
		st.FillRatio = float64(st.SetBits) / float64(st.SizeBits)
	}
	if sumKeys > 0 {
		st.KeySkew = float64(maxKeys) * float64(n) / float64(sumKeys)
	}
	st.Latency = s.latencySummaries()
	st.Phases = s.phaseSummaries()
	return st
}

// KeySkew returns max/mean of per-shard resident keys — the same value as
// Stats().KeySkew without the full stats walk, cheap enough for the
// mutation-path skew check (metrics.go). Computed over the current table,
// so a split recomputes it over the new spans immediately.
func (s *ShardedFilter) KeySkew() float64 {
	tab := s.tab.Load()
	var maxKeys, sumKeys uint64
	for _, ss := range tab.shards {
		k := ss.keys.Load()
		sumKeys += k
		if k > maxKeys {
			maxKeys = k
		}
	}
	if sumKeys == 0 {
		return 0
	}
	return float64(maxKeys) * float64(len(tab.shards)) / float64(sumKeys)
}
