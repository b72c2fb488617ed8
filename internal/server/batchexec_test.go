package server

import (
	"math/rand"
	"testing"
)

// TestSpawnThreshold pins the insert fan-out policy's arithmetic: uniform
// sub-batches (≈ total/n) always clear the threshold, so a batch past the
// fan-out cutoff parallelizes regardless of how many shards split it, and
// the threshold never exceeds the absolute inline cap or drops below 1.
func TestSpawnThreshold(t *testing.T) {
	cases := []struct {
		total, n, cap, want int
	}{
		{3000, 16, inlineMinKeys, 93},    // mid-size batch, many shards: mean/2, not the cap
		{1 << 20, 8, inlineMinKeys, 256}, // big batch: absolute cap
		{2048, 256, inlineMinKeys, 4},    // cutoff batch, max shards: tiny but ≥ 1
		{100, 256, inlineMinKeys, 1},     // degenerate: floor at 1
	}
	for _, c := range cases {
		if got := spawnThreshold(c.total, c.n, c.cap); got != c.want {
			t.Errorf("spawnThreshold(%d, %d, %d) = %d, want %d", c.total, c.n, c.cap, got, c.want)
		}
		if mean := c.total / c.n; mean > 0 && spawnThreshold(c.total, c.n, c.cap) > mean {
			t.Errorf("threshold exceeds the mean sub-batch for total=%d n=%d: uniform batches would serialize", c.total, c.n)
		}
	}
}

// TestSkewedBatchEquivalence drives the insert fan-out's mixed
// spawn-plus-inline path: range partitioning with keys clustered into one
// span gives one huge sub-batch (spawned) and many stragglers (inline).
// The serial query executors must then answer exactly as the reference
// paths do on the same skew, for point and range batches.
func TestSkewedBatchEquivalence(t *testing.T) {
	s, err := NewSharded(FilterOptions{
		ExpectedKeys: 200_000, BitsPerKey: 16, Shards: 16, Partitioning: PartitionRange,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(86))
	span := ^uint64(0)/16 + 1
	keys := make([]uint64, 6144)
	for i := range keys {
		if i%8 == 0 {
			keys[i] = rng.Uint64() // spread: most shards get a straggler sub-batch
		} else {
			keys[i] = rng.Uint64() % span // clustered: shard 0 gets the bulk
		}
	}
	s.InsertBatch(keys[:len(keys)/2])

	want := make([]bool, len(keys))
	got := make([]bool, len(keys))
	s.queryBatchSerial(keys, want)
	s.MayContainBatch(keys, got)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("skewed point batch diverges at %d", i)
		}
		if i < len(keys)/2 && !got[i] {
			t.Fatalf("skewed insert lost key %#x", keys[i])
		}
	}

	// Range batch with the same skew: bulk of the ranges in shard 0's span.
	ranges := make([][2]uint64, 512)
	for i := range ranges {
		x := keys[rng.Intn(len(keys))]
		ranges[i] = [2]uint64{x - 100, x + 100}
	}
	rs := make([]bool, len(ranges))
	rg := make([]bool, len(ranges))
	s.rangeBatchSerial(ranges, rs)
	s.MayContainRangeBatch(ranges, rg)
	for i := range rs {
		if rs[i] != rg[i] {
			t.Fatalf("skewed range batch diverges at %d", i)
		}
	}
}

// TestScratchPoolRetentionCap pins the pool-hygiene rule: a scratch whose
// buffers outgrew the cap is dropped rather than recycled, so one
// worst-case request cannot pin its buffers in the pool forever, while
// ordinary scratches keep circulating.
func TestScratchPoolRetentionCap(t *testing.T) {
	small := &batchScratch{keys: make([]uint64, 1<<10)}
	if small.retainedBytes() > maxRetainedScratchBytes {
		t.Fatalf("a routine scratch (%d bytes) must stay under the cap", small.retainedBytes())
	}
	huge := &batchScratch{flatOut: make([]bool, maxRetainedScratchBytes+1)}
	if huge.retainedBytes() <= maxRetainedScratchBytes {
		t.Fatalf("retainedBytes undercounts: %d", huge.retainedBytes())
	}
	// Drain the shared pool, put the oversized scratch, and check it does
	// not come back (a fresh zero-value scratch does instead).
	var drained []*batchScratch
	for i := 0; i < 64; i++ {
		drained = append(drained, getScratch())
	}
	putScratch(huge)
	got := getScratch()
	if got == huge {
		t.Fatal("oversized scratch was recycled through the pool")
	}
	putScratch(got)
	for _, sc := range drained {
		putScratch(sc)
	}
}
