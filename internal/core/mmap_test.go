package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// settledMappedBytes collects until the mapped-bytes counter stops moving,
// so that mappings dropped by earlier tests are released before a test
// measures its own.
func settledMappedBytes() int64 {
	prev := MappedBytes()
	for i := 0; i < 50; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		cur := MappedBytes()
		if i >= 2 && cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// TestMappedWordsReleased builds a filter above mapMinBytes and restores a
// copy, checks that each is carved from one mapping shared by its segments
// and exact bitmap, drops both, and collects until the mapped-bytes counter
// is back where it started: every mapping is released, and only by the
// collector.
func TestMappedWordsReleased(t *testing.T) {
	small := NewBasic(1<<10, 16)
	if small.segs[0].owner != nil {
		t.Fatalf("a %d-bit filter is mapped; only filters of %d bytes or more are", small.SizeBits(), mapMinBytes)
	}
	start := settledMappedBytes()

	f, _, err := NewTuned(TuneOptions{N: 1 << 20, BitsPerKey: 16, MaxRange: 1 << 20}) // 2 MiB
	if err != nil {
		t.Fatal(err)
	}
	if MappedBytes() == start {
		t.Skip("filter words are not mapped on this platform")
	}
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	f.InsertBatch(keys)
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnmarshalFilter(blob)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, h := range []*Filter{f, g} {
		owner := h.segs[0].owner
		for _, a := range append([]bitArray{h.exact}, h.segs...) {
			if owner == nil || a.owner != owner {
				t.Fatal("a filter's bit arrays do not all reference its one mapping")
			}
		}
		want += int64(len(owner.mem))
		for _, k := range keys {
			if !h.MayContain(k) || !h.MayContainRange(k, k+1000) {
				t.Fatalf("key %#x lost", k)
			}
		}
	}
	if got := MappedBytes() - start; got != want {
		t.Fatalf("mapped bytes grew by %d, want %d", got, want)
	}
	runtime.KeepAlive(f)
	runtime.KeepAlive(g)

	deadline := time.Now().Add(10 * time.Second)
	for MappedBytes() != start {
		if time.Now().After(deadline) {
			t.Fatalf("mapped bytes %d, want %d: dropped filters were never unmapped", MappedBytes(), start)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
