package server

import (
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Pooled batch execution. Every batch operation on a ShardedFilter needs
// scratch space — per-key shard ids, per-shard sub-batches, per-shard
// verdict buffers — and before this file existed each request allocated all
// of it fresh (a 2-D slice-of-slices per call, plus one verdict slice per
// shard). At the request rates the binary wire protocol targets, that
// garbage dominated the handlers' profiles. Now a request checks one
// batchScratch out of a sync.Pool, every buffer inside it is grown once and
// reused for the rest of the process's life, and the grouped sub-batches
// live in flat arrays partitioned by counting-sort offsets instead of
// per-shard allocations — so a warm batch request performs zero heap
// allocations end to end (binary codec included; see binary.go).
//
// Every operation loads the copy-on-write shard table (shard.go) exactly
// once and threads that *shardTable through grouping and execution, so one
// batch always sees a single consistent topology even while a span split
// publishes a new one. Queries need nothing more — a shard retired by a
// split still answers correctly for every key it ever owned. Inserts
// validate under the shard lock (insertShard) and re-route sub-batches the
// swap invalidated through a fresh InsertBatch call.
//
// Goroutines: only insert batches fan out. An insert batch below
// fanOutMinKeys runs entirely on the caller's goroutine. Above it, only
// shards whose sub-batch clears spawnThreshold get their own goroutine;
// straggler sub-batches run inline on the caller's goroutine while the
// spawned shards work — a 16-key straggler sub-batch costs a function call,
// not a goroutine hop. Every query batch runs on the caller's goroutine:
// point batches shard by shard, hash-routed ranges through hashRanges (one
// plan per range across all shards), range-routed ranges one by one through
// rangeOne (usually one shard each). Under the closed loop other requests
// keep the CPUs busy, so a second goroutine per query buys nothing there.

// inlineMinKeys is the per-shard inline cap of a fanned-out insert: a
// sub-batch below the spawn threshold is applied on the caller's goroutine
// instead of its own. Goroutine spawn + schedule + join costs ~1–2 µs;
// sub-batches below this absolute size finish faster than that. The
// effective threshold also scales with the batch (spawnThreshold), so a
// mid-size batch spread thin across many shards still parallelizes.
const inlineMinKeys = 256

// spawnThreshold returns the minimum sub-batch size that earns its own
// goroutine when total items fan out across n shards: half the mean
// sub-batch size, capped at the absolute inline cap. Uniformly-loaded
// shards (sub ≈ total/n) always clear it — a batch past the fan-out
// cutoff keeps its parallelism however many shards split it — while
// straggler sub-batches far below the mean run inline on the caller's
// goroutine instead of paying a spawn that outweighs their work.
func spawnThreshold(total, n, inlineCap int) int {
	thr := inlineCap
	if t := total / (2 * n); t < thr {
		thr = t
	}
	if thr < 1 {
		thr = 1
	}
	return thr
}

// batchScratch carries every buffer one batch request needs. The fields
// group into decode buffers (filled by the binary codec or the JSON
// handlers), grouping scratch (counting-sort layout of a key batch by
// owning shard), and the flat sub-batch arrays the per-shard executors
// read. A scratch is checked out per request (getScratch/putScratch) and
// never shared; the flat arrays are partitioned by offs so an insert's
// per-shard goroutines touch disjoint segments.
type batchScratch struct {
	// Request/response byte buffers for the binary codec (binary.go), and
	// the WAL record of a durable insert (encodeInsert).
	body []byte
	resp []byte
	rec  []byte

	// Decoded request payloads.
	keys   []uint64
	ranges [][2]uint64
	out    []bool

	// Grouping scratch: ids[j] is the shard owning item j; counts, offs and
	// cursors implement the counting sort. offs has n+1 entries so shard
	// sh's segment of a flat array is [offs[sh], offs[sh+1]).
	ids     []uint8
	counts  []int
	offs    []int
	cursors []int

	// Flat grouped arrays, partitioned by offs: the keys routed to each
	// shard, the original batch position of each, and the per-shard
	// verdicts before they are scattered back.
	flatKeys []uint64
	flatPos  []int
	flatOut  []bool

	// tr is the request's phase trace (internal/obs). Handlers arm it with
	// Start; the executors below mark shard-dispatch and probe boundaries
	// on it. A plain value with no pointers: embedding it here keeps the
	// traced hot path allocation-free, and the zero (disarmed) state makes
	// every mark a no-op for callers that use the public batch APIs
	// without tracing.
	tr obs.Trace
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getScratch() *batchScratch { return batchScratchPool.Get().(*batchScratch) }

// maxRetainedScratchBytes caps how much buffer capacity one scratch may
// carry back into the pool. Buffers grow to the largest request they ever
// served, and a pooled scratch is reachable for as long as traffic keeps
// recycling it — without a cap, one worst-case request (a MaxBatch key
// batch sizes keys, ids, flatKeys, flatPos and flatOut at a million
// entries each) would pin tens of MiB per P forever
// (golang.org/issue/23199). 8 MiB keeps every routine large batch pooled;
// monsters are rebuilt on their next appearance, which is what the old
// per-request make() did on every one.
const maxRetainedScratchBytes = 8 << 20

// retainedBytes approximates the scratch's total buffer capacity.
func (sc *batchScratch) retainedBytes() int {
	return cap(sc.body) + cap(sc.resp) + cap(sc.rec) +
		8*cap(sc.keys) + 16*cap(sc.ranges) + cap(sc.out) +
		cap(sc.ids) + 8*(cap(sc.counts)+cap(sc.offs)+cap(sc.cursors)) +
		8*cap(sc.flatKeys) + 8*cap(sc.flatPos) + cap(sc.flatOut)
}

// putScratch recycles sc unless its buffers outgrew the retention cap, in
// which case it is left for the garbage collector. The trace is disarmed
// either way: a handler that errored out mid-request leaves its trace
// armed, and the next checkout must not accumulate into that stale state.
func putScratch(sc *batchScratch) {
	sc.tr.Disarm()
	if sc.retainedBytes() > maxRetainedScratchBytes {
		return
	}
	batchScratchPool.Put(sc)
}

// grown returns s resized to n, reallocating only when capacity is short.
// Contents are unspecified — every user overwrites its segment.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// groupKeys partitions keys by owning shard under tab's routing into sc's
// flat arrays using a counting sort: one routing pass filling ids and
// counts, an offset scan, and a scatter pass. When track is true, flatPos
// records each key's original batch position, so a query can scatter the
// per-shard verdicts back.
func groupKeys(tab *shardTable, keys []uint64, track bool, sc *batchScratch) {
	n := len(tab.shards)
	sc.ids = grown(sc.ids, len(keys))
	sc.counts = grown(sc.counts, n)
	sc.offs = grown(sc.offs, n+1)
	sc.cursors = grown(sc.cursors, n)
	for sh := range sc.counts {
		sc.counts[sh] = 0
	}
	for j, x := range keys {
		sh := tab.part.shardOf(x)
		sc.ids[j] = uint8(sh)
		sc.counts[sh]++
	}
	off := 0
	for sh := 0; sh < n; sh++ {
		sc.offs[sh] = off
		sc.cursors[sh] = off
		off += sc.counts[sh]
	}
	sc.offs[n] = off
	sc.flatKeys = grown(sc.flatKeys, len(keys))
	if track {
		sc.flatPos = grown(sc.flatPos, len(keys))
	}
	for j, x := range keys {
		sh := sc.ids[j]
		c := sc.cursors[sh]
		sc.flatKeys[c] = x
		if track {
			sc.flatPos[c] = j
		}
		sc.cursors[sh] = c + 1
	}
}

// insertBatchWith is InsertBatch against caller-provided scratch. A
// sub-batch whose shard a concurrent split retired between the table load
// and the shard lock (insertShard returns false) re-routes through a fresh
// InsertBatch call — new table, new scratch — so every key lands exactly
// once, in the shard that owns it when the insert applies.
func (s *ShardedFilter) insertBatchWith(keys []uint64, sc *batchScratch) {
	if len(keys) == 0 {
		return
	}
	tab := s.tab.Load()
	n := len(tab.shards)
	if n == 1 {
		sc.tr.Enter(obs.PhaseProbe)
		if !s.insertShard(tab, 0, keys) {
			s.InsertBatch(keys)
		}
		return
	}
	sc.tr.Enter(obs.PhaseShardDispatch)
	groupKeys(tab, keys, false, sc)
	sc.tr.Enter(obs.PhaseProbe)
	if len(keys) >= fanOutMinKeys {
		thr := spawnThreshold(len(keys), n, inlineMinKeys)
		var wg sync.WaitGroup
		for sh := 0; sh < n; sh++ {
			sub := sc.flatKeys[sc.offs[sh]:sc.offs[sh+1]]
			if len(sub) >= thr {
				wg.Add(1)
				go func(sh int, sub []uint64) {
					defer wg.Done()
					if !s.insertShard(tab, sh, sub) {
						s.InsertBatch(sub)
					}
				}(sh, sub)
			}
		}
		// Run the straggler sub-batches inline while the spawned shards work.
		for sh := 0; sh < n; sh++ {
			sub := sc.flatKeys[sc.offs[sh]:sc.offs[sh+1]]
			if len(sub) > 0 && len(sub) < thr {
				if !s.insertShard(tab, sh, sub) {
					s.InsertBatch(sub)
				}
			}
		}
		wg.Wait()
		return
	}
	for sh := 0; sh < n; sh++ {
		if sub := sc.flatKeys[sc.offs[sh]:sc.offs[sh+1]]; len(sub) > 0 {
			if !s.insertShard(tab, sh, sub) {
				s.InsertBatch(sub)
			}
		}
	}
}

// InsertBatch adds every key, fanning shard-local sub-batches into the
// filters' layer-major batch insert — inline for small (sub-)batches, one
// goroutine per shard once a shard's slice is large enough to amortize the
// spawn. A steady-state call performs no heap allocations below the
// fan-out threshold (fanOutMinKeys).
func (s *ShardedFilter) InsertBatch(keys []uint64) {
	sc := getScratch()
	s.insertBatchWith(keys, sc)
	putScratch(sc)
}

// queryShardInto probes one shard's sub-batch, writes the shard-local
// verdicts into sout (same length as sub), scatters them to their original
// batch positions in out, and returns the shard's positive count.
func queryShardInto(ss *shardState, sub []uint64, pos []int, sout []bool, out []bool) uint64 {
	ss.pointProbes.Add(uint64(len(sub)))
	ss.f.MayContainBatch(sub, sout)
	var hits uint64
	for i, j := range pos {
		out[j] = sout[i]
		if sout[i] {
			hits++
		}
	}
	return hits
}

// mayContainBatchWith is MayContainBatch against caller-provided scratch.
func (s *ShardedFilter) mayContainBatchWith(keys []uint64, out []bool, sc *batchScratch) {
	if len(out) != len(keys) {
		panic("server: MayContainBatch len(out) != len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	s.pointQueries.Add(uint64(len(keys)))
	tab := s.tab.Load()
	n := len(tab.shards)
	if n == 1 {
		sc.tr.Enter(obs.PhaseProbe)
		ss := tab.shards[0]
		ss.pointProbes.Add(uint64(len(keys)))
		ss.f.MayContainBatch(keys, out)
		var hits uint64
		for _, ok := range out {
			if ok {
				hits++
			}
		}
		s.pointPositives.Add(hits)
		return
	}
	sc.tr.Enter(obs.PhaseShardDispatch)
	groupKeys(tab, keys, true, sc)
	sc.flatOut = grown(sc.flatOut, len(keys))
	sc.tr.Enter(obs.PhaseProbe)
	var hits uint64
	for sh := 0; sh < n; sh++ {
		lo, hi := sc.offs[sh], sc.offs[sh+1]
		if hi > lo {
			hits += queryShardInto(tab.shards[sh], sc.flatKeys[lo:hi], sc.flatPos[lo:hi], sc.flatOut[lo:hi], out)
		}
	}
	s.pointPositives.Add(hits)
}

// MayContainBatch tests every key and stores the verdicts in out, which
// must have the same length as keys (it panics otherwise). The shards'
// sub-batches probe one after another on the caller's goroutine; a
// steady-state call performs no heap allocations.
func (s *ShardedFilter) MayContainBatch(keys []uint64, out []bool) {
	sc := getScratch()
	s.mayContainBatchWith(keys, out, sc)
	putScratch(sc)
}

// mayContainRangeBatchWith is MayContainRangeBatch against caller-provided
// scratch.
func (s *ShardedFilter) mayContainRangeBatchWith(ranges [][2]uint64, out []bool, sc *batchScratch) {
	if len(out) != len(ranges) {
		panic("server: MayContainRangeBatch len(out) != len(ranges)")
	}
	if len(ranges) == 0 {
		return
	}
	s.rangeQueries.Add(uint64(len(ranges)))
	tab := s.tab.Load()
	sc.tr.Enter(obs.PhaseProbe)
	if tab.part.mode() == PartitionHash {
		s.hashRanges(tab, ranges, out)
	} else {
		for j, r := range ranges {
			out[j] = s.rangeOne(tab, r[0], r[1])
		}
	}
	var hits uint64
	for _, ok := range out {
		if ok {
			hits++
		}
	}
	s.rangePositives.Add(hits)
}

// MayContainRangeBatch tests every [lo, hi] pair and stores the verdicts in
// out, which must have the same length as ranges (it panics otherwise).
//
// The batch runs on the caller's goroutine. Under hash partitioning every
// range consults every shard, through hashRanges: one range plan per
// range, executed across all the shards at once. Under range partitioning
// each range probes only the shards whose span it intersects (rangeOne,
// typically one shard), so the total probe work is near 1/N of the hash
// mode's. A steady-state call performs no heap allocations.
func (s *ShardedFilter) MayContainRangeBatch(ranges [][2]uint64, out []bool) {
	sc := getScratch()
	s.mayContainRangeBatchWith(ranges, out, sc)
	putScratch(sc)
}

// setBlock is the most filters one core.FilterSet holds; hashRanges splits
// larger shard tables (up to MaxShards) into sets of this size.
const setBlock = 64

// hashRanges answers a range batch under hash routing, where every shard
// may hold keys of every interval: out[j] is the OR over all shards of
// their MayContainRange(ranges[j]). The shards of a hash-routed filter are
// built from one Config, so the range's plan — the per-layer coverings,
// decomposition runs and word-group hashes — is the same for all of them:
// the batch builds one core.FilterSet per setBlock shards, which works the
// plan out once per range and probes the shards layer-major.
// MayContainRange, the single-range HTTP request and every batch size
// reach hash-routed ranges only through here, and each shard counts one
// range probe per range, whichever shard answers first.
func (s *ShardedFilter) hashRanges(tab *shardTable, ranges [][2]uint64, out []bool) {
	var buf [MaxShards]*core.Filter
	fs := buf[:0]
	for _, ss := range tab.shards {
		ss.rangeProbes.Add(uint64(len(ranges)))
		fs = append(fs, ss.f)
	}
	if len(fs) == 1 {
		// No plan to share: the single-filter traversal is cheaper.
		for j, r := range ranges {
			out[j] = fs[0].MayContainRange(r[0], r[1])
		}
		return
	}
	// Indexed, not appended: a set points into buf, which an append that
	// could grow would move to the heap.
	var setBuf [MaxShards / setBlock]core.FilterSet
	n := 0
	for lo := 0; lo < len(fs); lo += setBlock {
		setBuf[n] = core.NewFilterSet(fs[lo:min(lo+setBlock, len(fs))])
		n++
	}
	sets := setBuf[:n]
	for j, r := range ranges {
		hit := false
		for k := 0; k < len(sets) && !hit; k++ {
			hit = sets[k].MayContainRange(r[0], r[1]) != 0
		}
		out[j] = hit
	}
}
