package server

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/wal"
)

// Live hot-span splitting. A range-partitioned filter under a skewed key
// distribution concentrates load on few shards; the key_skew gauges
// observe it, and this file is what acts on it: divide the hottest span in
// two while the filter keeps serving, with zero lost acknowledged keys.
//
// The lifecycle (hook names in parentheses — the crash-injection tests
// attach at each boundary):
//
//	1. pick (picked): choose the shard to split — the caller's, or the one
//	   with the most resident keys — and the split key m: the caller's, or
//	   the weighted median of the shard's insert histogram, falling back
//	   to the span midpoint. The left half owns [lo, m], the right
//	   (m+1, hi].
//	2. capture (captured): note the WAL end p0, then marshal the shard
//	   under its write lock, recording its mutation epoch. The old shard
//	   keeps serving; inserts that land after the capture are the
//	   stragglers the later phases pick up.
//	3. materialize (materialized): unmarshal the blob twice into the two
//	   replacement shards. Each clone holds every key the old shard held —
//	   a superset of what its narrowed span will route to it, which costs
//	   a few stray bits but can never cause a false negative.
//	4. backfill (before-swap): replay the WAL tail [p0, end) into the
//	   not-yet-visible replacement pair, re-inserting this filter's keys
//	   from the old span. Re-applying keys the clones already contain is
//	   idempotent (inserts set bits); what matters is that no straggler is
//	   missed. The bulk of the tail replays here without blocking anyone.
//	5. swap (after-swap / replayed): acquire applyMu's write side — every
//	   mutation holds its read side across apply + WAL append, so the
//	   acquire proves no mutation is between applying against the old
//	   table and finishing its append — replay the delta appended since
//	   step 4, then publish the new table with one atomic store under the
//	   old shard's write lock, all before releasing the barrier. Ordering
//	   is the whole point: the tail is complete in the pair BEFORE the
//	   swap makes it visible, so a query never routes to a clone that is
//	   still missing an acknowledged key. Inserts validate the table
//	   pointer after taking their shard read lock (insertShard), so any
//	   insert that raced the swap re-routes through the new table. Without
//	   a WAL there is no log to replay, so the swap instead re-captures
//	   and re-materializes under the write lock when the mutation epoch
//	   moved since step 2.
//
// Correctness across crashes: the split itself is journaled as a recSplit
// record appended by the HTTP layer after Split returns (apply-before-
// append, like every mutation). A crash before the append reopens pre-split
// — the split was never acknowledged and every key is still owned by the
// undivided span. A crash after reopens, restores the last snapshot, and
// replays the record through replaySplit, which re-runs the same division
// at the same key; a snapshot that already captured the post-split topology
// makes the replay a no-op (the shard owning the split key already ends
// exactly at it). Either way every acknowledged insert is in the snapshot
// or in the retained log after it.

// ErrNotSplittable reports a split request the filter's state cannot
// honour: hash partitioning (no spans), the shard-count ceiling, or a
// single-key span.
var ErrNotSplittable = errors.New("server: filter not splittable")

// errSplitArg marks caller-supplied split parameters the current topology
// rejects (a shard index past the table, a key outside the shard's span);
// the HTTP layer maps it to 400 where ErrNotSplittable maps to 409.
var errSplitArg = errors.New("invalid split request")

// maxAutoSplitsPerTrigger bounds how many consecutive splits one
// auto-split episode may perform (metrics.go): enough for the skew of a
// heavily clustered distribution to converge below any sane threshold,
// small enough that a mis-set threshold cannot run the filter to the
// MaxShards ceiling in one burst.
const maxAutoSplitsPerTrigger = 8

// SplitOptions selects what to split. The zero value is NOT the default —
// use SplitAuto (Shard -1) for "pick for me".
type SplitOptions struct {
	// Shard, when ≥ 0, is the shard to split. -1 picks the shard with the
	// most resident keys (or the shard owning Key, when Key is set).
	Shard int
	// Key, when non-zero, is the split key: the left replacement owns
	// [lo, Key], the right (Key, hi]. It must satisfy lo ≤ Key < hi for
	// the chosen shard. 0 picks the weighted median of the shard's insert
	// histogram (midpoint when the histogram is empty).
	Key uint64
}

// SplitAuto asks Split to choose both the shard and the split key.
var SplitAuto = SplitOptions{Shard: -1}

// SplitResult describes a completed split.
type SplitResult struct {
	// Shard is the index the divided shard had in the pre-split table;
	// its replacements sit at Shard and Shard+1 in the new one.
	Shard int `json:"shard"`
	// SplitKey is the last key of the left replacement's span.
	SplitKey uint64 `json:"split_key"`
	// Shards is the post-split shard count.
	Shards int `json:"shards"`
	// TableEpoch is the post-split table epoch.
	TableEpoch uint64 `json:"table_epoch"`
	// Replayed is how many straggler keys the WAL tail backfill re-applied
	// (0 without a WAL, where stragglers are handled by re-capture).
	Replayed int `json:"replayed_keys"`
	// DurationNanos is the wall time the split took, lock wait included.
	DurationNanos int64 `json:"duration_nanos"`
}

// Split divides one span of a range-partitioned filter in two, live: the
// old shard serves until the routing table swaps, and stragglers are
// backfilled from the WAL tail (l, which must be the log the filter's
// mutations are appended to under name) or, with l nil, by re-capturing
// under the shard's write lock. Serialized against other splits and
// against snapshot passes by splitMu.
//
// Split only changes the in-memory filter. Durability is the caller's
// job, in the usual apply-before-append order: append a recSplit record
// after Split returns (the HTTP layer's performSplit), so crash replay
// re-runs the same division.
func (s *ShardedFilter) Split(name string, opt SplitOptions, l *wal.Log) (SplitResult, error) {
	splitStart := time.Now()
	s.splitMu.Lock()
	defer s.splitMu.Unlock()
	tab := s.tab.Load()
	if tab.part.mode() != PartitionRange {
		return SplitResult{}, fmt.Errorf("%w: %s partitioning has no spans", ErrNotSplittable, tab.part.mode())
	}
	if len(tab.shards) >= MaxShards {
		return SplitResult{}, fmt.Errorf("%w: already at the %d-shard ceiling", ErrNotSplittable, MaxShards)
	}

	// Phase 1: pick the shard and the split key.
	h := opt.Shard
	if h < 0 && opt.Key != 0 {
		h = int(tab.part.shardOf(opt.Key))
	}
	if h < 0 {
		if h = hottestShard(tab); h < 0 {
			return SplitResult{}, fmt.Errorf("%w: every span is a single key", ErrNotSplittable)
		}
	}
	if h >= len(tab.shards) {
		return SplitResult{}, fmt.Errorf("server: %w: no shard %d (filter has %d)", errSplitArg, h, len(tab.shards))
	}
	ss := tab.shards[h]
	if ss.lo == ss.hi {
		return SplitResult{}, fmt.Errorf("%w: shard %d owns the single key %d", ErrNotSplittable, h, ss.lo)
	}
	m := opt.Key
	if m != 0 {
		if m < ss.lo || m >= ss.hi {
			return SplitResult{}, fmt.Errorf("server: %w: split key %d outside shard %d's splittable span [%d, %d)",
				errSplitArg, m, h, ss.lo, ss.hi)
		}
	} else {
		m = pickSplitKey(ss)
	}
	s.hook("picked")

	// Phase 2: capture. p0 is read before the marshal: every record that
	// appended below p0 finished applying before it (apply-before-append),
	// hence before the capture's write lock, so the blob contains it and
	// the backfill may start at p0. p0 can never have been truncated away:
	// truncation stays below every live filter's last snapshot position
	// (TruncatableBefore), all of which predate this moment's log end.
	var p0 uint64
	if l != nil {
		p0 = l.End()
	}
	blob, mut0, err := tab.captureShard(h)
	if err != nil {
		return SplitResult{}, fmt.Errorf("server: split %q shard %d: capturing: %w", name, h, err)
	}
	s.hook("captured")

	// Phase 3: materialize the two replacements from the captured blob.
	left, right, err := materializePair(s.opt.Backend, blob)
	if err != nil {
		return SplitResult{}, fmt.Errorf("server: split %q shard %d: %w", name, h, err)
	}
	newTab, err := splitTable(tab, h, m, left, right)
	if err != nil {
		return SplitResult{}, fmt.Errorf("server: split %q shard %d: %w", name, h, err)
	}
	s.hook("materialized")

	// Phase 4: bulk backfill. Replay the WAL tail accumulated since the
	// capture into the not-yet-visible pair, without blocking mutators:
	// whatever lands while this runs is the (much shorter) delta phase 5
	// picks up under the barrier. Keys outside the retired span are
	// skipped, so this touches only shards no query can reach yet.
	replayed := 0
	if l != nil {
		p1 := l.End()
		n, rerr := replayTail(newTab, name, l, p0, p1, ss.lo, ss.hi)
		if rerr != nil {
			return SplitResult{}, fmt.Errorf("server: split %q shard %d: backfilling WAL tail [%d, %d): %w",
				name, h, p0, p1, rerr)
		}
		replayed += n
		p0 = p1
	}
	s.hook("before-swap")

	// Phase 5: delta replay + swap, atomic with respect to mutations.
	// Holding applyMu's write side means every mutation that applied
	// against the old table has finished its WAL append (mutators hold the
	// read side across apply + append), so the log end read here bounds a
	// delta that contains every remaining straggler — and no new mutation
	// can apply until the new table is published, so the pair is complete
	// BEFORE any query can route to it. The retired shard's write lock
	// additionally fences paths that do not take applyMu: insertShard
	// validates the table pointer under the shard read lock, so once this
	// write lock is held nothing more can land in the retired shard.
	s.applyMu.Lock()
	if l != nil {
		end := l.End()
		n, rerr := replayTail(newTab, name, l, p0, end, ss.lo, ss.hi)
		if rerr != nil {
			// Nothing swapped yet: the filter still serves the old topology
			// and no state was lost. This only fails when the log itself
			// cannot be read back.
			s.applyMu.Unlock()
			return SplitResult{}, fmt.Errorf("server: split %q shard %d: backfilling WAL delta [%d, %d): %w",
				name, h, p0, end, rerr)
		}
		replayed += n
	}
	ss.mu.Lock()
	if l == nil && ss.mut.Load() != mut0 {
		// No WAL to backfill stragglers from: inserts landed in the old
		// shard since the capture, so re-capture and re-materialize here,
		// under the write lock, where nothing can race the marshal.
		blob2, err := ss.f.MarshalBinary()
		if err == nil {
			left, right, err = materializePair(s.opt.Backend, blob2)
		}
		if err != nil {
			ss.mu.Unlock()
			s.applyMu.Unlock()
			return SplitResult{}, fmt.Errorf("server: split %q shard %d: re-capturing: %w", name, h, err)
		}
		newTab.shards[h].f = left
		newTab.shards[h+1].f = right
	}
	divideCounters(ss, newTab.shards[h], newTab.shards[h+1], m)
	s.tab.Store(newTab)
	ss.mu.Unlock()
	s.applyMu.Unlock()
	s.hook("after-swap")
	s.splits.Add(1)
	s.hook("replayed")
	d := time.Since(splitStart)
	s.splitNs.Add(uint64(d.Nanoseconds()))
	s.splitReplayed.Add(uint64(replayed))
	return SplitResult{
		Shard:         h,
		SplitKey:      m,
		Shards:        len(newTab.shards),
		TableEpoch:    newTab.epoch,
		Replayed:      replayed,
		DurationNanos: d.Nanoseconds(),
	}, nil
}

// hottestShard returns the splittable shard with the most resident keys —
// the span whose division moves key_skew the most. Single-key spans are
// skipped (they cannot be divided, and picking one would wedge every
// auto-split episode on the same ErrNotSplittable); ties break to the
// lowest index. Returns -1 when no span can be split at all.
func hottestShard(tab *shardTable) int {
	best := -1
	var bestKeys uint64
	for i, ss := range tab.shards {
		if ss.lo == ss.hi {
			continue
		}
		if k := ss.keys.Load(); best < 0 || k > bestKeys {
			best, bestKeys = i, k
		}
	}
	return best
}

// pickSplitKey places the cut at the weighted median of the shard's insert
// histogram — the last key of the bucket where the cumulative count
// crosses half — so a clustered distribution is divided where its mass
// is, not at the span midpoint (which for a cluster near one end would
// leave all the load on one half). An empty histogram (restored shard
// without traffic yet, or a freshly split shard) falls back to the
// midpoint.
func pickSplitKey(ss *shardState) uint64 {
	mid := ss.lo + (ss.hi-ss.lo)/2
	h, total := ss.histSnapshot()
	if total == 0 || ss.bucketW == 0 {
		return mid
	}
	var cum uint64
	b := 0
	for i := range h {
		cum += h[i]
		if cum*2 >= total {
			b = i
			break
		}
	}
	m := ss.lo + uint64(b+1)*ss.bucketW - 1
	if m < ss.lo || m >= ss.hi { // median bucket reaches the span end (or overflowed)
		if b > 0 {
			m = ss.lo + uint64(b)*ss.bucketW - 1
		} else {
			m = mid
		}
	}
	if m < ss.lo || m >= ss.hi {
		m = mid
	}
	return m
}

// materializePair unmarshals one captured shard blob into two independent
// filter instances — the left and right replacements. Each starts as a
// bit-identical clone of the old shard: a superset of what its narrowed
// span owns, never a subset, so no acknowledged key can turn up missing.
func materializePair(backend string, blob []byte) (left, right shardFilter, err error) {
	if left, err = unmarshalShardFilter(backend, blob); err != nil {
		return nil, nil, fmt.Errorf("materializing left replacement: %w", err)
	}
	if right, err = unmarshalShardFilter(backend, blob); err != nil {
		return nil, nil, fmt.Errorf("materializing right replacement: %w", err)
	}
	return left, right, nil
}

// splitTable builds the successor of tab with shard h divided at m: the
// span-start table gains m+1 at position h+1, surviving shard states carry
// over by pointer, and the epoch increments. The replacement states start
// with zeroed counters and histograms; divideCounters apportions the
// retired shard's counters at swap time.
func splitTable(tab *shardTable, h int, m uint64, left, right shardFilter) (*shardTable, error) {
	starts := slices.Insert(slices.Clone(tab.part.spans()), h+1, m+1)
	part, err := newSpanPartitioner(starts)
	if err != nil {
		return nil, err
	}
	old := tab.shards[h]
	ls := &shardState{f: left, lo: old.lo, hi: m}
	rs := &shardState{f: right, lo: m + 1, hi: old.hi}
	ls.bucketW = (ls.hi-ls.lo)/histBuckets + 1
	rs.bucketW = (rs.hi-rs.lo)/histBuckets + 1
	shards := make([]*shardState, 0, len(tab.shards)+1)
	shards = append(shards, tab.shards[:h]...)
	shards = append(shards, ls, rs)
	shards = append(shards, tab.shards[h+1:]...)
	return &shardTable{part: part, shards: shards, epoch: tab.epoch + 1}, nil
}

// divideCounters apportions the retired shard's key/probe counters between
// its replacements by the insert histogram's mass on each side of m (an
// even split when the histogram is empty). Called under the retired
// shard's write lock, so the counters are final. The estimate keeps the
// skew gauges meaningful across the swap; exact per-key counts were never
// tracked per side.
func divideCounters(old, left, right *shardState, m uint64) {
	frac := leftMassFraction(old, m)
	divide := func(c uint64) (l, r uint64) {
		l = uint64(float64(c) * frac)
		if l > c {
			l = c
		}
		return l, c - l
	}
	lk, rk := divide(old.keys.Load())
	left.keys.Store(lk)
	right.keys.Store(rk)
	lp, rp := divide(old.pointProbes.Load())
	left.pointProbes.Store(lp)
	right.pointProbes.Store(rp)
	lr, rr := divide(old.rangeProbes.Load())
	left.rangeProbes.Store(lr)
	right.rangeProbes.Store(rr)
}

// leftMassFraction estimates, from the insert histogram, the fraction of
// the shard's keys at or below m. A bucket straddling m contributes half.
func leftMassFraction(ss *shardState, m uint64) float64 {
	h, total := ss.histSnapshot()
	if total == 0 || ss.bucketW == 0 {
		return 0.5
	}
	var left float64
	start := ss.lo
	for b := 0; b < histBuckets; b++ {
		end := start + ss.bucketW - 1
		if end < start || end > ss.hi { // overflow or past the span
			end = ss.hi
		}
		switch {
		case end <= m:
			left += float64(h[b])
		case start <= m:
			left += float64(h[b]) / 2
		}
		if end == ss.hi {
			break
		}
		start = end + 1
	}
	return left / float64(total)
}

// replayTail re-applies this filter's straggler inserts from the WAL
// range [from, to) into tab: keys of insert records for name that fall in
// the retired shard's span [lo, hi]. Keys outside the span were applied to
// shards the new table kept; keys inside it may predate the capture (then
// the clones already contain them and the re-insert is an idempotent
// no-op) or be stragglers (then this is what saves them). Counters are not
// advanced — every replayed key was counted when it originally applied.
// The shard read lock is only needed against concurrent marshals, which
// splitMu (held by the caller) already excludes, but is cheap and keeps
// the locking rule uniform.
func replayTail(tab *shardTable, name string, l *wal.Log, from, to uint64, lo, hi uint64) (int, error) {
	if from >= to {
		return 0, nil
	}
	r, err := l.ReadFrom(from)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	n := 0
	for {
		pos, rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return n, err
		}
		if pos >= to {
			break // appended after the drain: applied against the new table already
		}
		if rec.Type != recInsert {
			continue
		}
		rname, keys, err := decodeInsert(rec.Data)
		if err != nil {
			return n, err
		}
		if rname != name {
			continue
		}
		for i, k := range keys {
			if k < lo || k > hi {
				continue
			}
			sh := tab.part.shardOf(k)
			ss := tab.shards[sh]
			ss.mu.RLock()
			ss.mut.Add(1)
			ss.f.InsertBatch(keys[i : i+1])
			ss.mu.RUnlock()
			n++
		}
	}
	return n, nil
}

// replaySplit re-applies a journaled split during WAL replay (boot
// recovery, or a follower's stream). Serial contexts: no concurrent
// mutations, so the split runs without a log to backfill from. It reports
// whether a split actually ran — a restored snapshot that already captured
// the post-split topology leaves the shard owning key ending exactly at
// it, and the replay is then an idempotent no-op.
func (s *ShardedFilter) replaySplit(name string, key uint64) (bool, error) {
	tab := s.tab.Load()
	if tab.part.mode() != PartitionRange {
		return false, fmt.Errorf("split record for %s-partitioned filter %q", tab.part.mode(), name)
	}
	sh := tab.part.shardOf(key)
	if tab.shards[sh].hi == key {
		return false, nil // this split is already reflected in the topology
	}
	if _, err := s.Split(name, SplitOptions{Shard: int(sh), Key: key}, nil); err != nil {
		return false, err
	}
	return true, nil
}
