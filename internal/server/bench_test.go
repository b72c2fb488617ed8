package server

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// BenchmarkBatch* for the sharded serving path, comparing the first
// serial per-shard loop (fresh per-shard slices on every call, below)
// against the batch APIs the endpoints use. Run with the family:
//
//	go test ./internal/server -run xxx -bench Batch
//
// Expectation: lookups run on the caller's goroutine either way; batch
// beats serial on points by the allocations it skips, and on hash-routed
// ranges by sharing one range plan across the shards. For inserts of these
// 65,536 keys, batch fans out one goroutine per shard and wins from 4
// shards up on multi-core hosts; at shards=1 the two match.

// benchFilter builds a filter preloaded with half the benchmark keys so
// lookups see a mix of hits and misses.
func benchFilter(b *testing.B, shards int) (*ShardedFilter, []uint64) {
	b.Helper()
	s, err := NewSharded(FilterOptions{ExpectedKeys: 1 << 20, BitsPerKey: 16, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	s.InsertBatch(keys[: len(keys)/2 : len(keys)/2])
	return s, keys
}

// groupAlloc is the first grouping pass, preserved here as the baseline
// the serial benchmarks measure against: per-shard sub-slices are allocated
// fresh on every call (the live path now counting-sorts into pooled flat
// arrays, batchexec.go).
func (s *ShardedFilter) groupAlloc(keys []uint64, track bool) (bkeys [][]uint64, bpos [][]int) {
	tab := s.tab.Load()
	n := len(tab.shards)
	ids := make([]uint8, len(keys))
	counts := make([]int, n)
	for j, x := range keys {
		sh := tab.part.shardOf(x)
		ids[j] = uint8(sh)
		counts[sh]++
	}
	bkeys = make([][]uint64, n)
	if track {
		bpos = make([][]int, n)
	}
	for sh, c := range counts {
		if c == 0 {
			continue
		}
		bkeys[sh] = make([]uint64, 0, c)
		if track {
			bpos[sh] = make([]int, 0, c)
		}
	}
	for j, x := range keys {
		sh := ids[j]
		bkeys[sh] = append(bkeys[sh], x)
		if track {
			bpos[sh] = append(bpos[sh], j)
		}
	}
	return bkeys, bpos
}

// insertBatchSerial is the first request path: group, then shard sub-batches
// one after another on the caller's goroutine.
func (s *ShardedFilter) insertBatchSerial(keys []uint64) {
	tab := s.tab.Load()
	bkeys, _ := s.groupAlloc(keys, false)
	for sh, sub := range bkeys {
		if len(sub) > 0 {
			if !s.insertShard(tab, sh, sub) {
				s.InsertBatch(sub)
			}
		}
	}
}

// queryBatchSerial is the first lookup path: per-shard verdict slices are
// allocated per call, verdicts scattered back by tracked position.
func (s *ShardedFilter) queryBatchSerial(keys []uint64, out []bool) {
	tab := s.tab.Load()
	bkeys, bpos := s.groupAlloc(keys, true)
	for sh, sub := range bkeys {
		if len(sub) > 0 {
			sout := make([]bool, len(sub))
			queryShardInto(tab.shards[sh], sub, bpos[sh], sout, out)
		}
	}
}

// rangeBatchSerial is the reference range path: per range, the OR of each
// routed shard's own MayContainRange, shard after shard. It bypasses the
// shared-plan executor and the probe counters.
func (s *ShardedFilter) rangeBatchSerial(ranges [][2]uint64, out []bool) {
	tab := s.tab.Load()
	for j, r := range ranges {
		first, last := tab.part.rangeShards(r[0], r[1])
		out[j] = false
		for sh := first; sh <= last && !out[j]; sh++ {
			out[j] = tab.shards[sh].f.MayContainRange(r[0], r[1])
		}
	}
}

var shardCounts = []int{1, 4, 8}

func BenchmarkBatchShardedInsert(b *testing.B) {
	for _, shards := range shardCounts {
		s, keys := benchFilter(b, shards)
		b.Run(fmt.Sprintf("serial/shards=%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(keys)) * 8)
			for i := 0; i < b.N; i++ {
				s.insertBatchSerial(keys)
			}
		})
		s, keys = benchFilter(b, shards)
		b.Run(fmt.Sprintf("batch/shards=%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(keys)) * 8)
			for i := 0; i < b.N; i++ {
				s.InsertBatch(keys)
			}
		})
	}
}

func BenchmarkBatchShardedPointLookup(b *testing.B) {
	for _, shards := range shardCounts {
		s, keys := benchFilter(b, shards)
		out := make([]bool, len(keys))
		b.Run(fmt.Sprintf("serial/shards=%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(keys)) * 8)
			for i := 0; i < b.N; i++ {
				s.queryBatchSerial(keys, out)
			}
		})
		b.Run(fmt.Sprintf("batch/shards=%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(keys)) * 8)
			for i := 0; i < b.N; i++ {
				s.MayContainBatch(keys, out)
			}
		})
	}
}

func BenchmarkBatchShardedRangeLookup(b *testing.B) {
	for _, shards := range shardCounts {
		s, keys := benchFilter(b, shards)
		rng := rand.New(rand.NewSource(72))
		ranges := make([][2]uint64, 1024)
		for i := range ranges {
			x := keys[rng.Intn(len(keys))]
			ranges[i] = [2]uint64{x, x + 1<<12}
		}
		out := make([]bool, len(ranges))
		b.Run(fmt.Sprintf("serial/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.rangeBatchSerial(ranges, out)
			}
		})
		b.Run(fmt.Sprintf("batch/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.MayContainRangeBatch(ranges, out)
			}
		})
	}
	// The range-json-cached shape (bench/serverload.go): 2^18 keys at 16
	// bits per key over 8 hash shards, against one filter of the same total
	// size, queried with 256-range batches whose widths are log-uniform in
	// [2, 2^14], half of them anchored at a loaded key.
	for _, shards := range []int{1, 8} {
		s, err := NewSharded(FilterOptions{ExpectedKeys: 1 << 18, BitsPerKey: 16, Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(75))
		keys := make([]uint64, 1<<18)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		s.InsertBatch(keys)
		ranges := make([][2]uint64, 256)
		for i := range ranges {
			w := uint64(math.Exp2(1 + 13*rng.Float64()))
			lo := rng.Uint64()
			if i%2 == 0 {
				lo = keys[rng.Intn(len(keys))] - rng.Uint64()%w
			}
			ranges[i] = [2]uint64{lo, lo + w - 1}
		}
		out := make([]bool, len(ranges))
		b.Run(fmt.Sprintf("cached-shape/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.MayContainRangeBatch(ranges, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ranges)), "ns/range")
		})
	}
}

// TestBatchFanOutEquivalence pins that the batch executors return the
// same answers as the reference paths on the same filter: point batches of
// 1024 and 6144 keys and range batches of 8 and 256 ranges on the serial
// executors, and a 4096-key insert through the insert fan-out.
func TestBatchFanOutEquivalence(t *testing.T) {
	s, keys := func() (*ShardedFilter, []uint64) {
		s, err := NewSharded(FilterOptions{ExpectedKeys: 100_000, BitsPerKey: 16, Shards: 8})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(73))
		keys := make([]uint64, 6144)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		s.InsertBatch(keys[:len(keys)/2])
		return s, keys
	}()
	for _, n := range []int{1024, 6144} {
		want := make([]bool, n)
		got := make([]bool, n)
		s.queryBatchSerial(keys[:n], want)
		s.MayContainBatch(keys[:n], got)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("n=%d: point batch diverges at %d", n, i)
			}
		}
	}
	rng := rand.New(rand.NewSource(74))
	for _, n := range []int{8, 256} {
		ranges := make([][2]uint64, n)
		for i := range ranges {
			x := keys[rng.Intn(len(keys))]
			ranges[i] = [2]uint64{x - 100, x + 100}
		}
		want := make([]bool, n)
		got := make([]bool, n)
		s.rangeBatchSerial(ranges, want)
		s.MayContainRangeBatch(ranges, got)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("ranges n=%d: range batch diverges at %d", n, i)
			}
		}
	}

	// Insert equivalence: keys batch-inserted through the fan-out path are
	// all found, and the key counter is exact.
	before := s.Stats().InsertedKeys
	extra := make([]uint64, 2*fanOutMinKeys)
	for i := range extra {
		extra[i] = rng.Uint64()
	}
	var wg sync.WaitGroup // concurrent with queries, to mimic the server
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]bool, len(keys))
		s.MayContainBatch(keys, out)
	}()
	s.InsertBatch(extra)
	wg.Wait()
	if got := s.Stats().InsertedKeys; got != before+uint64(len(extra)) {
		t.Fatalf("InsertedKeys = %d, want %d", got, before+uint64(len(extra)))
	}
	out := make([]bool, len(extra))
	s.MayContainBatch(extra, out)
	for i, ok := range out {
		if !ok {
			t.Fatalf("fan-out insert lost key %#x", extra[i])
		}
	}
}
