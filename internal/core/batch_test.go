package core

import (
	"math/rand"
	"testing"
)

// batchTestConfigs covers the layout features the batch paths special-case:
// plain basic layouts, permuted words, replicated hash functions, multiple
// segments and an exact top layer, plus a sub-64-bit domain.
func batchTestConfigs(t *testing.T) map[string]*Filter {
	t.Helper()
	fs := map[string]*Filter{
		"basic": NewBasic(20_000, 14),
	}
	tuned, _, err := NewTuned(TuneOptions{N: 20_000, BitsPerKey: 16, MaxRange: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	fs["tuned"] = tuned
	// Domain 42 puts the exact level (ΣDeltas = 25) at a 2^17-bit bitmap,
	// inside Validate's bound of twice the segments.
	manual, err := New(Config{
		Domain:       42,
		Deltas:       []int{7, 6, 7, 5},
		Replicas:     []int{2, 1, 1, 2},
		SegmentOf:    []int{0, 0, 1, 1},
		SegBits:      []uint64{1 << 17, 1 << 15},
		Exact:        true,
		PermuteWords: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs["permute-replicas-segments"] = manual
	narrow, err := New(Config{
		Domain:  32,
		Deltas:  []int{7, 7},
		SegBits: []uint64{1 << 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs["domain32"] = narrow
	return fs
}

// TestBatchEquivalence checks that the batch APIs return bit-identical
// answers to the single-key calls over random workloads.
func TestBatchEquivalence(t *testing.T) {
	for name, f := range batchTestConfigs(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			dmask := lowMask(f.domain)
			ins := make([]uint64, 10_000)
			for i := range ins {
				if i%3 == 0 {
					ins[i] = rng.Uint64() & dmask >> 20 // cluster low keys
				} else {
					ins[i] = rng.Uint64() & dmask
				}
			}
			// Insert half through the batch path, half singly; both
			// populations must be visible to both query paths.
			f.InsertBatch(ins[:len(ins)/2])
			for _, x := range ins[len(ins)/2:] {
				f.Insert(x)
			}

			queries := make([]uint64, 4_000)
			for i := range queries {
				if i%2 == 0 {
					queries[i] = ins[rng.Intn(len(ins))] // present
				} else {
					queries[i] = rng.Uint64() & dmask // mostly absent
				}
			}
			got := make([]bool, len(queries))
			f.MayContainBatch(queries, got)
			for j, x := range queries {
				if want := f.MayContain(x); got[j] != want {
					t.Fatalf("MayContainBatch[%d] key %#x = %v, single = %v", j, x, got[j], want)
				}
			}

			ranges := make([][2]uint64, 2_000)
			for i := range ranges {
				lo := rng.Uint64() & dmask
				width := uint64(1) << uint(rng.Intn(30))
				hi := lo + rng.Uint64()%width
				if i%5 == 0 {
					lo, hi = hi, lo // reversed bounds are accepted
				}
				ranges[i] = [2]uint64{lo, hi}
			}
			rgot := make([]bool, len(ranges))
			f.MayContainRangeBatch(ranges, rgot)
			for j, r := range ranges {
				if want := f.MayContainRange(r[0], r[1]); rgot[j] != want {
					t.Fatalf("MayContainRangeBatch[%d] [%#x,%#x] = %v, single = %v", j, r[0], r[1], rgot[j], want)
				}
			}
		})
	}
}

// TestBatchInsertEquivalence checks that a filter populated via InsertBatch
// probes identically to one populated via Insert.
func TestBatchInsertEquivalence(t *testing.T) {
	fb := NewBasic(20_000, 14)
	fs := NewBasic(20_000, 14)
	rng := rand.New(rand.NewSource(8))
	keys := make([]uint64, 20_000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	fb.InsertBatch(keys)
	for _, x := range keys {
		fs.Insert(x)
	}
	for s := 0; s < fb.NumSegments(); s++ {
		a, b := fb.SegmentSnapshot(s), fs.SegmentSnapshot(s)
		for w := range a {
			if a[w] != b[w] {
				t.Fatalf("segment %d word %d differs: batch %#x single %#x", s, w, a[w], b[w])
			}
		}
	}
}

// TestBatchEmptyAndMismatch pins the edge-case contract: empty inputs are
// no-ops, length mismatches panic.
func TestBatchEmptyAndMismatch(t *testing.T) {
	f := NewBasic(1_000, 14)
	f.InsertBatch(nil)
	f.MayContainBatch(nil, nil)
	f.MayContainRangeBatch(nil, nil)

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic on length mismatch", name)
			}
		}()
		fn()
	}
	mustPanic("MayContainBatch", func() {
		f.MayContainBatch(make([]uint64, 3), make([]bool, 2))
	})
	mustPanic("MayContainRangeBatch", func() {
		f.MayContainRangeBatch(make([][2]uint64, 2), make([]bool, 3))
	})
}

// TestBatchHashOverride checks that the batch paths honor the test-only
// hash override by falling back to the single-key implementation.
func TestBatchHashOverride(t *testing.T) {
	f := NewBasic(1_000, 14)
	f.hashOverride = func(layer, replica int, g uint64) uint64 { return 41*g + 13 }
	f.InsertBatch([]uint64{5, 9})
	out := make([]bool, 3)
	f.MayContainBatch([]uint64{5, 9, 77}, out)
	for j, x := range []uint64{5, 9, 77} {
		if want := f.MayContain(x); out[j] != want {
			t.Fatalf("override: batch[%d]=%v single=%v", j, out[j], want)
		}
	}
	if !out[0] || !out[1] {
		t.Fatal("override: inserted keys must be found")
	}
}

// TestModulus checks the 128-bit fastmod against hardware division for the
// divisor shapes the filter produces (word counts) plus adversarial values.
func TestModulus(t *testing.T) {
	divs := []uint64{1, 2, 3, 5, 63, 64, 1000, 1 << 20, (1 << 20) + 7, ^uint64(0), ^uint64(0) - 1}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 64; i++ {
		divs = append(divs, rng.Uint64()|1, rng.Uint64()>>uint(rng.Intn(40)))
	}
	hs := []uint64{0, 1, 2, 63, 64, ^uint64(0), ^uint64(0) - 1}
	for i := 0; i < 1000; i++ {
		hs = append(hs, rng.Uint64())
	}
	for _, d := range divs {
		if d == 0 {
			continue
		}
		m := newModulus(d)
		for _, h := range hs {
			if got, want := m.mod(h), h%d; got != want {
				t.Fatalf("fastmod(%d, %d) = %d, want %d", h, d, got, want)
			}
		}
	}
}
