package server

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkRangePartitioned* quantifies what the range partitioner buys:
// on the same workload, hash partitioning must probe every shard per range
// query while range partitioning probes only span-overlapping shards
// (typically one). Run the family with:
//
//	go test ./internal/server -run xxx -bench RangePartitioned
//
// Expectation: point insert/lookup are comparable across modes (both route
// each key to one shard). Range lookups in range mode win, and the gap
// grows with the shard count, but by less than the shard count: a hash
// range decomposes once and probes every shard from that one plan
// (hashRanges), so each extra hash shard costs a probe, not a
// decomposition. Every query batch runs on the caller's goroutine in
// both modes.

var partModes = []Partitioning{PartitionHash, PartitionRange}

// benchPartitioned builds a filter in the given mode preloaded with
// uniform random keys (half the benchmark key set), plus narrow query
// ranges anchored at inserted keys.
func benchPartitioned(b *testing.B, mode Partitioning, shards int) (*ShardedFilter, []uint64, [][2]uint64) {
	b.Helper()
	s, err := NewSharded(FilterOptions{
		ExpectedKeys: 1 << 20, BitsPerKey: 16, Shards: shards, Partitioning: mode,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(75))
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	s.InsertBatch(keys[: len(keys)/2 : len(keys)/2])
	ranges := make([][2]uint64, 1024)
	for i := range ranges {
		x := keys[rng.Intn(len(keys))]
		ranges[i] = [2]uint64{x, x + 1<<12}
	}
	return s, keys, ranges
}

func BenchmarkRangePartitionedRangeLookup(b *testing.B) {
	for _, shards := range []int{4, 8, 16} {
		for _, mode := range partModes {
			s, _, ranges := benchPartitioned(b, mode, shards)
			out := make([]bool, len(ranges))
			b.Run(fmt.Sprintf("mode=%s/shards=%d", mode, shards), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.MayContainRangeBatch(ranges, out)
				}
			})
		}
	}
}

// BenchmarkRangePartitionedRangeLookupSingle measures the unbatched path
// (one MayContainRange call per query). "hit" ranges cover an inserted
// key; "miss" ranges are (almost surely) absent. Hash mode runs one plan
// across all N shards either way, and range mode probes one shard.
func BenchmarkRangePartitionedRangeLookupSingle(b *testing.B) {
	for _, mode := range partModes {
		s, _, hits := benchPartitioned(b, mode, 8)
		rng := rand.New(rand.NewSource(76))
		misses := make([][2]uint64, len(hits))
		for i := range misses {
			lo := rng.Uint64()
			misses[i] = [2]uint64{lo, lo + 1<<10}
		}
		for _, kind := range []struct {
			name   string
			ranges [][2]uint64
		}{{"hit", hits}, {"miss", misses}} {
			b.Run(fmt.Sprintf("mode=%s/%s/shards=8", mode, kind.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := kind.ranges[i%len(kind.ranges)]
					s.MayContainRange(r[0], r[1])
				}
			})
		}
	}
}

func BenchmarkRangePartitionedInsert(b *testing.B) {
	for _, mode := range partModes {
		s, keys, _ := benchPartitioned(b, mode, 8)
		b.Run(fmt.Sprintf("mode=%s/shards=8", mode), func(b *testing.B) {
			b.SetBytes(int64(len(keys)) * 8)
			for i := 0; i < b.N; i++ {
				s.InsertBatch(keys)
			}
		})
	}
}

func BenchmarkRangePartitionedPointLookup(b *testing.B) {
	for _, mode := range partModes {
		s, keys, _ := benchPartitioned(b, mode, 8)
		out := make([]bool, len(keys))
		b.Run(fmt.Sprintf("mode=%s/shards=8", mode), func(b *testing.B) {
			b.SetBytes(int64(len(keys)) * 8)
			for i := 0; i < b.N; i++ {
				s.MayContainBatch(keys, out)
			}
		})
	}
}
