package server

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Hash-routed range queries run one range plan across all shards
// (hashRanges); range-routed ones probe the shards whose span they
// intersect, range by range (rangeOne). These tests hold both executors to
// the plain definition: a range may match iff some routed shard's own
// MayContainRange says it may.

// hashRangeShardCounts covers one shard, a few, the served default, one
// past a 64-filter block and MaxShards.
var hashRangeShardCounts = []int{1, 2, 8, 65, MaxShards}

// hashRangeCase is one filter layout under test: a shard count, a
// partitioning, and whether the shards are MaxRange-tuned.
type hashRangeCase struct {
	shards int
	part   Partitioning
	tuned  bool
}

func (c hashRangeCase) String() string {
	s := fmt.Sprintf("bloomrf/shards=%d", c.shards)
	if c.tuned {
		s += "/tuned"
	}
	if c.part == PartitionRange {
		s += "/range"
	}
	return s
}

func hashRangeCases() []hashRangeCase {
	var cs []hashRangeCase
	for _, part := range []Partitioning{PartitionHash, PartitionRange} {
		for _, n := range hashRangeShardCounts {
			cs = append(cs, hashRangeCase{shards: n, part: part}, hashRangeCase{shards: n, part: part, tuned: true})
		}
	}
	return cs
}

// hashRangeKeys is the key set every case loads: random keys, a cluster
// at the bottom of the key space and one at the top, so that the special
// ranges below have keys to find, and one key just past each span start
// of every tested shard count, for spanRanges.
func hashRangeKeys() []uint64 {
	rng := rand.New(rand.NewSource(23))
	keys := make([]uint64, 0, 3000)
	for i := 0; i < 2900; i++ {
		keys = append(keys, rng.Uint64())
	}
	for i := uint64(0); i < 50; i++ {
		keys = append(keys, 7*i, ^uint64(0)-11*i)
	}
	for _, n := range hashRangeShardCounts {
		for i := 1; i < n; i++ {
			keys = append(keys, spanStart(uint64(i), uint64(n))+3)
		}
	}
	return keys
}

// spanRanges returns, for each span start of an n-shard range-routed
// filter, a range that begins in the span below it and holds the key just
// past it: a range-routed query must probe the second shard too.
func spanRanges(n int) [][2]uint64 {
	rs := make([][2]uint64, 0, n-1)
	for i := 1; i < n; i++ {
		b := spanStart(uint64(i), uint64(n))
		rs = append(rs, [2]uint64{b - 100, b + 10})
	}
	return rs
}

// newHashRangeFilter builds and loads the case's filter.
func newHashRangeFilter(t testing.TB, c hashRangeCase, keys []uint64) *ShardedFilter {
	t.Helper()
	opt := FilterOptions{
		ExpectedKeys: 4096, BitsPerKey: 16, Shards: c.shards,
		Partitioning: c.part,
	}
	if c.tuned {
		opt.MaxRange = 1 << 24
	}
	f, err := NewSharded(opt)
	if err != nil {
		t.Fatal(err)
	}
	f.InsertBatch(keys)
	return f
}

// hashRangeInputs returns n ranges over keys: ranges anchored at a key
// with log-uniform widths up to 2^30, ranges at uniform points, near
// misses just past a key, one-key ranges, and all of them sometimes with
// reversed bounds.
func hashRangeInputs(rng *rand.Rand, keys []uint64, n int) [][2]uint64 {
	rs := make([][2]uint64, n)
	for i := range rs {
		k := keys[rng.Intn(len(keys))]
		w := uint64(1) << rng.Intn(31)
		w += rng.Uint64() % w
		var lo, hi uint64
		switch rng.Intn(4) {
		case 0: // holds a key
			off := rng.Uint64() % w
			lo = k - min(off, k)
			hi = lo + min(w, ^uint64(0)-lo)
		case 1: // anywhere
			lo = rng.Uint64()
			hi = lo + min(w, ^uint64(0)-lo)
		case 2: // starts just past a key
			lo = k + 1 + min(uint64(rng.Intn(4)), ^uint64(0)-k-1)
			if k == ^uint64(0) {
				lo = k
			}
			hi = lo + min(w, ^uint64(0)-lo)
		case 3: // one key, present or not
			lo = k + uint64(rng.Intn(2))
			hi = lo
		}
		if rng.Intn(4) == 0 {
			lo, hi = hi, lo
		}
		rs[i] = [2]uint64{lo, hi}
	}
	return rs
}

// hashRangeSpecials are the edge ranges every case checks.
var hashRangeSpecials = [][2]uint64{
	{0, ^uint64(0)},
	{^uint64(0), 0},
	{0, 0},
	{^uint64(0), ^uint64(0)},
	{7, 7},
	{8, 8},
	{1 << 40, 1<<40 + 1},
	{1<<63 + 5, 1 << 63},
}

// checkHashRanges requires MayContainRange on every range, and
// MayContainRangeBatch on every batch of each size, to equal the OR of the
// routed shards' own answers. It returns the reference verdicts.
func checkHashRanges(t testing.TB, f *ShardedFilter, ranges [][2]uint64, sizes []int) []bool {
	t.Helper()
	want := make([]bool, len(ranges))
	f.rangeBatchSerial(ranges, want)
	for j, r := range ranges {
		if got := f.MayContainRange(r[0], r[1]); got != want[j] {
			t.Fatalf("MayContainRange(%d, %d) = %v, shards' OR = %v", r[0], r[1], got, want[j])
		}
	}
	for _, n := range sizes {
		got := make([]bool, n)
		for lo := 0; lo < len(ranges); lo += n {
			batch := ranges[lo:min(lo+n, len(ranges))]
			f.MayContainRangeBatch(batch, got[:len(batch)])
			for j, ok := range got[:len(batch)] {
				if ok != want[lo+j] {
					r := batch[j]
					t.Fatalf("batch of %d: range [%d, %d] = %v, shards' OR = %v", len(batch), r[0], r[1], ok, want[lo+j])
				}
			}
		}
	}
	return want
}

// TestHashRangeMatchesShards: on every shard count, partitioning and
// bloomRF layout, single and batched range queries of sizes 1, 15, 16
// and 256 answer exactly the OR of the routed shards' own answers.
func TestHashRangeMatchesShards(t *testing.T) {
	keys := hashRangeKeys()
	for _, c := range hashRangeCases() {
		t.Run(c.String(), func(t *testing.T) {
			f := newHashRangeFilter(t, c, keys)
			rng := rand.New(rand.NewSource(int64(c.shards)))
			ranges := append(hashRangeInputs(rng, keys, 512), hashRangeSpecials...)
			ranges = append(ranges, spanRanges(c.shards)...)
			want := checkHashRanges(t, f, ranges, []int{1, 15, 16, 256})
			pos := 0
			for _, ok := range want {
				if ok {
					pos++
				}
			}
			if pos == 0 || pos == len(want) {
				t.Fatalf("%d of %d ranges positive: the check cannot tell the executors apart", pos, len(want))
			}
		})
	}
}

// FuzzShardedRange holds the range executors of both routings to the
// per-shard OR on fuzzed bounds and batch sizes, across the layouts of
// TestHashRangeMatchesShards.
func FuzzShardedRange(f *testing.F) {
	cases := hashRangeCases()
	keys := hashRangeKeys()
	filters := make([]*ShardedFilter, len(cases))
	f.Add(uint8(0), uint64(0), ^uint64(0), uint16(0), int64(1))
	f.Add(uint8(3), uint64(7), uint64(7), uint16(15), int64(2))
	f.Add(uint8(7), ^uint64(0), uint64(1)<<63, uint16(255), int64(3))
	f.Add(uint8(9), uint64(1000), uint64(1<<20), uint16(16), int64(4))
	// Range-routed layouts follow the hash-routed ones in cases.
	hashCases := len(cases) / 2
	f.Add(uint8(hashCases+3), uint64(1)<<62-5, uint64(1)<<62+5, uint16(255), int64(5))
	f.Add(uint8(hashCases+7), uint64(0), ^uint64(0), uint16(16), int64(6))
	f.Add(uint8(hashCases+8), ^uint64(0)-1000, ^uint64(0), uint16(1), int64(7))
	f.Fuzz(func(t *testing.T, c uint8, lo, hi uint64, n uint16, seed int64) {
		i := int(c) % len(cases)
		if filters[i] == nil {
			filters[i] = newHashRangeFilter(t, cases[i], keys)
		}
		size := 1 + int(n)%256
		rng := rand.New(rand.NewSource(seed))
		ranges := append([][2]uint64{{lo, hi}}, hashRangeInputs(rng, keys, size-1)...)
		checkHashRanges(t, filters[i], ranges, []int{size})
	})
}

// TestHashRangeProbeCounts pins shard.probes_per_item under hash routing:
// every shard counts one range probe per range, whichever shard answers
// first, for a single query-range request and for a 256-range batch.
func TestHashRangeProbeCounts(t *testing.T) {
	const shards = 8
	a, f := newBinaryTestAPI(t, FilterOptions{ExpectedKeys: 10_000, BitsPerKey: 16, Shards: shards})
	keys := []uint64{1000, 2000, 3000}
	f.InsertBatch(keys)
	probes := func() (sum uint64) {
		for _, c := range f.Stats().ShardRangeProbes {
			sum += c
		}
		return sum
	}
	// A range holding a key: the shard-by-shard loop used to stop at the
	// first shard that answered maybe.
	if rec := doBinReq(t, a, "POST", "/v1/filters/f/query-range", "application/json",
		[]byte(`{"lo":900,"hi":1100}`)); rec.Code != 200 || !strings.Contains(rec.Body.String(), "true") {
		t.Fatalf("single query-range: %d %s", rec.Code, rec.Body)
	}
	if got := probes(); got != shards {
		t.Fatalf("single range: %d shard probes, want %d", got, shards)
	}
	ranges := make([][2]uint64, 256)
	for i := range ranges {
		k := keys[i%len(keys)]
		ranges[i] = [2]uint64{k - uint64(i), k + uint64(i)}
	}
	if rec := doBinReq(t, a, "POST", "/v1/filters/f/query-range", "application/json",
		jsonRangesBody(ranges)); rec.Code != 200 {
		t.Fatalf("batch query-range: %d %s", rec.Code, rec.Body)
	}
	if got, want := probes(), uint64(shards*(1+len(ranges))); got != want {
		t.Fatalf("after a 256-range batch: %d shard probes, want %d", got, want)
	}
	for sh, c := range f.Stats().ShardRangeProbes {
		if c != 1+uint64(len(ranges)) {
			t.Fatalf("shard %d counted %d range probes, want %d", sh, c, 1+len(ranges))
		}
	}
}
