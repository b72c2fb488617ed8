package server

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
)

// TestRangePartitionerSpans pins the fixed-point span math: spans tile the
// whole uint64 keyspace contiguously, boundaries route to the right side,
// and rangeShards returns exactly the overlapped shard interval.
func TestRangePartitionerSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, n := range []uint64{1, 2, 3, 5, 8, 37, 256} {
		p := rangePartitioner{n: n}
		prevHi := ^uint64(0) // so shard 0 must start at prevHi+1 == 0
		for i := 0; i < int(n); i++ {
			lo, hi := p.spanOf(i)
			if lo != prevHi+1 {
				t.Fatalf("n=%d: shard %d span starts at %#x, want %#x (gap or overlap)", n, i, lo, prevHi+1)
			}
			if lo > hi {
				t.Fatalf("n=%d: shard %d span [%#x,%#x] is empty", n, i, lo, hi)
			}
			// Both ends of the span route home; the key just outside routes
			// to the neighbour.
			if got := p.shardOf(lo); got != uint64(i) {
				t.Fatalf("n=%d: shardOf(spanLo %#x) = %d, want %d", n, lo, got, i)
			}
			if got := p.shardOf(hi); got != uint64(i) {
				t.Fatalf("n=%d: shardOf(spanHi %#x) = %d, want %d", n, hi, got, i)
			}
			if i > 0 {
				if got := p.shardOf(lo - 1); got != uint64(i-1) {
					t.Fatalf("n=%d: shardOf(spanLo-1 %#x) = %d, want %d", n, lo-1, got, i-1)
				}
			}
			prevHi = hi
		}
		if prevHi != ^uint64(0) {
			t.Fatalf("n=%d: last span ends at %#x, keyspace not covered", n, prevHi)
		}
		// rangeShards agrees with shardOf at both ends, accepts either bound
		// order, and monotonicity holds on random keys.
		for i := 0; i < 1000; i++ {
			a, b := rng.Uint64(), rng.Uint64()
			first, last := p.rangeShards(a, b)
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			if first != int(p.shardOf(lo)) || last != int(p.shardOf(hi)) || first > last {
				t.Fatalf("n=%d: rangeShards(%#x,%#x) = [%d,%d]", n, a, b, first, last)
			}
			if lo <= hi && p.shardOf(lo) > p.shardOf(hi) {
				t.Fatalf("n=%d: shardOf not monotone at %#x,%#x", n, lo, hi)
			}
		}
	}
}

// TestRangeRoutingProbesOnlyOverlappingShards is the acceptance routing
// proof: a query-range on a range-partitioned filter probes only the shards
// whose span intersects the interval, for the single path and the grouped
// batch path, while hash partitioning probes the whole fleet. The filters
// stay empty so early-exit cannot hide skipped shards.
func TestRangeRoutingProbesOnlyOverlappingShards(t *testing.T) {
	const shards = 8
	p := rangePartitioner{n: shards}

	newFilter := func(mode Partitioning) *ShardedFilter {
		f, err := NewSharded(FilterOptions{ExpectedKeys: 10_000, Shards: shards, Partitioning: mode})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	probes := func(f *ShardedFilter) []uint64 { return f.Stats().ShardRangeProbes }

	// Single query inside shard 3's span: range mode probes shard 3 only.
	f := newFilter(PartitionRange)
	lo3, hi3 := p.spanOf(3)
	mid := lo3 + (hi3-lo3)/2
	f.MayContainRange(mid, mid+100)
	for sh, c := range probes(f) {
		want := uint64(0)
		if sh == 3 {
			want = 1
		}
		if c != want {
			t.Fatalf("narrow range query: shard %d probed %d times, want %d (probes %v)", sh, c, want, probes(f))
		}
	}

	// A query straddling spans 2..4 probes exactly shards 2, 3, 4.
	f = newFilter(PartitionRange)
	lo2, _ := p.spanOf(2)
	lo4, _ := p.spanOf(4)
	f.MayContainRange(lo2+1, lo4+1)
	for sh, c := range probes(f) {
		want := uint64(0)
		if sh >= 2 && sh <= 4 {
			want = 1
		}
		if c != want {
			t.Fatalf("straddling query: shard %d probed %d times, want %d", sh, c, want)
		}
	}

	// Batch path: all ranges inside shard 5's span advance only shard 5's
	// counter, by the batch size.
	f = newFilter(PartitionRange)
	lo5, _ := p.spanOf(5)
	ranges := make([][2]uint64, 64)
	for i := range ranges {
		base := lo5 + uint64(i)*1000
		ranges[i] = [2]uint64{base, base + 500}
	}
	out := make([]bool, len(ranges))
	f.MayContainRangeBatch(ranges, out)
	for sh, c := range probes(f) {
		want := uint64(0)
		if sh == 5 {
			want = uint64(len(ranges))
		}
		if c != want {
			t.Fatalf("batch: shard %d probed %d times, want %d", sh, c, want)
		}
	}

	// Hash mode control: the same narrow query probes every shard.
	f = newFilter(PartitionHash)
	f.MayContainRange(mid, mid+100)
	for sh, c := range probes(f) {
		if c != 1 {
			t.Fatalf("hash mode: shard %d probed %d times, want 1", sh, c)
		}
	}
}

// TestPartitioningConformance proves routing is semantically transparent:
// hash- and range-partitioned filters built from the same options answer
// the deterministic part of the pinned workload bit-identically — every
// inserted key, every point probe, and every covering range — and may
// differ on absent ranges only by false positives, where hash mode (which
// ORs all N shards) must produce at least as many as range mode. At
// shards=1 the two modes are bit-identical on the entire workload.
func TestPartitioningConformance(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := func(p Partitioning) FilterOptions {
				return FilterOptions{ExpectedKeys: 50_000, BitsPerKey: 16, Shards: shards, Partitioning: p}
			}
			fh, err := NewSharded(opts(PartitionHash))
			if err != nil {
				t.Fatal(err)
			}
			fr, err := NewSharded(opts(PartitionRange))
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(91))
			ins := make([]uint64, 20_000)
			for i := range ins {
				ins[i] = rng.Uint64()
			}
			fh.InsertBatch(ins)
			fr.InsertBatch(ins[:10_000])
			for _, x := range ins[10_000:] { // mixed single/batch insert paths
				fr.Insert(x)
			}

			// Point probes: all inserted keys plus random (almost surely
			// absent) keys, through batch and single paths.
			probes := append(append([]uint64{}, ins...), make([]uint64, 10_000)...)
			for i := len(ins); i < len(probes); i++ {
				probes[i] = rng.Uint64()
			}
			hout := make([]bool, len(probes))
			rout := make([]bool, len(probes))
			fh.MayContainBatch(probes, hout)
			fr.MayContainBatch(probes, rout)
			for i := range probes {
				if hout[i] != rout[i] {
					t.Fatalf("point %#x: hash %v, range %v", probes[i], hout[i], rout[i])
				}
				if i < len(ins) && !hout[i] {
					t.Fatalf("inserted key %#x answered false", probes[i])
				}
				if single := fr.MayContain(probes[i]); single != rout[i] {
					t.Fatalf("point %#x: range batch %v, single %v", probes[i], rout[i], single)
				}
			}

			// Range probes: intervals covering inserted keys (must be true
			// in both) and random narrow intervals (identical verdicts).
			ranges := make([][2]uint64, 4_000)
			for i := range ranges {
				if i%2 == 0 {
					x := ins[rng.Intn(len(ins))]
					lo := x - uint64(rng.Intn(1000))
					if lo > x {
						lo = 0
					}
					ranges[i] = [2]uint64{lo, x}
				} else {
					lo := rng.Uint64()
					ranges[i] = [2]uint64{lo, lo + uint64(rng.Intn(1<<14))}
				}
			}
			hr := make([]bool, len(ranges))
			rr := make([]bool, len(ranges))
			fh.MayContainRangeBatch(ranges, hr)
			fr.MayContainRangeBatch(ranges, rr)
			var hashFPs, rangeFPs, disagree int
			for i := range ranges {
				if i%2 == 0 {
					// Covering ranges are the deterministic part of the
					// contract: both modes must answer true.
					if !rr[i] || !hr[i] {
						t.Fatalf("covering range [%#x,%#x]: hash %v, range %v",
							ranges[i][0], ranges[i][1], hr[i], rr[i])
					}
				} else {
					// Absent ranges: a true here is a false positive, the
					// one place the modes may lawfully differ — hash mode
					// ORs all N shards, inflating its range FPR ≈ N-fold.
					if hr[i] {
						hashFPs++
					}
					if rr[i] {
						rangeFPs++
					}
					if hr[i] != rr[i] {
						disagree++
						if rr[i] && !hr[i] && shards > 1 {
							t.Logf("range-mode-only FP at [%#x,%#x]", ranges[i][0], ranges[i][1])
						}
					}
				}
				if single := fr.MayContainRange(ranges[i][0], ranges[i][1]); single != rr[i] {
					t.Fatalf("range [%#x,%#x]: batch %v, single %v", ranges[i][0], ranges[i][1], rr[i], single)
				}
				if single := fh.MayContainRange(ranges[i][0], ranges[i][1]); single != hr[i] {
					t.Fatalf("range [%#x,%#x]: hash batch %v, single %v", ranges[i][0], ranges[i][1], hr[i], single)
				}
			}
			if shards == 1 && disagree != 0 {
				// One shard: routing is irrelevant and the per-shard filters
				// are identical, so the whole workload is bit-identical.
				t.Fatalf("shards=1 disagreed on %d ranges", disagree)
			}
			if hashFPs < rangeFPs {
				t.Fatalf("range mode produced more range FPs (%d) than hash mode (%d)", rangeFPs, hashFPs)
			}
			if disagree > 20 {
				t.Fatalf("modes disagree on %d/%d absent ranges — beyond FP noise", disagree, len(ranges)/2)
			}
			t.Logf("absent-range FPs: hash=%d range=%d (the N-fold OR inflation range mode removes)", hashFPs, rangeFPs)
		})
	}
}

// TestPartitionBoundaryRestore is the span-edge property test: keys sitting
// exactly on partition boundaries route to the same shard and answer
// identically before and after a snapshot/restore round trip, and the
// restored filter keeps its recorded partitioning and per-shard key counts.
func TestPartitionBoundaryRestore(t *testing.T) {
	const shards = 5
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSharded(FilterOptions{ExpectedKeys: 10_000, Shards: shards, Partitioning: PartitionRange})
	if err != nil {
		t.Fatal(err)
	}
	p := rangePartitioner{n: shards}
	var keys []uint64
	for i := 0; i < shards; i++ {
		lo, hi := p.spanOf(i)
		keys = append(keys, lo, lo+1, hi, hi-1)
	}
	f.InsertBatch(keys)
	before := make(map[uint64]uint64, len(keys))
	for _, k := range keys {
		before[k] = f.shardOf(k)
	}

	if _, err := st.Snapshot("edges", f); err != nil {
		t.Fatal(err)
	}
	g, man, err := st.Restore("edges")
	if err != nil {
		t.Fatal(err)
	}
	if man.FormatVersion != manifestVersion || man.Options.Partitioning != PartitionRange {
		t.Fatalf("manifest = %+v", man)
	}
	if g.Partitioning() != PartitionRange {
		t.Fatalf("restored partitioning = %q", g.Partitioning())
	}
	for _, k := range keys {
		if got := g.shardOf(k); got != before[k] {
			t.Fatalf("boundary key %#x routed to shard %d after restore, %d before", k, got, before[k])
		}
		if !g.MayContain(k) {
			t.Fatalf("boundary key %#x lost in restore", k)
		}
		if !g.MayContainRange(k, k) {
			t.Fatalf("boundary key %#x lost for range probes", k)
		}
	}
	want := f.Stats()
	got := g.Stats()
	for i := range want.ShardKeys {
		if want.ShardKeys[i] != got.ShardKeys[i] {
			t.Fatalf("shard %d keys = %d after restore, want %d", i, got.ShardKeys[i], want.ShardKeys[i])
		}
	}
	assertIdenticalAnswers(t, f, g, keys, 92)
}

// TestPartitioningValidationAndHTTP pins option validation, the HTTP wire
// field, and the server-wide default: unknown modes are rejected (400 over
// HTTP), explicit "partitioning":"range" sticks, and a Config default
// applies when the create request omits the field.
func TestPartitioningValidationAndHTTP(t *testing.T) {
	if _, err := NewSharded(FilterOptions{ExpectedKeys: 1000, Partitioning: "zigzag"}); err == nil {
		t.Fatal("unknown partitioning accepted")
	}
	f, err := NewSharded(FilterOptions{ExpectedKeys: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if f.Partitioning() != PartitionHash {
		t.Fatalf("default partitioning = %q, want hash", f.Partitioning())
	}

	ts := httptest.NewServer(NewConfiguredAPI(NewRegistry(), nil, Config{DefaultPartitioning: PartitionRange}))
	defer ts.Close()
	c := ts.Client()

	if code, body := doJSON(t, c, "POST", ts.URL+"/v1/filters",
		`{"name":"bad","expected_keys":1000,"partitioning":"zigzag"}`); code != 400 {
		t.Fatalf("unknown partitioning over HTTP: %d %v", code, body)
	}
	if code, _ := doJSON(t, c, "POST", ts.URL+"/v1/filters",
		`{"name":"explicit","expected_keys":1000,"partitioning":"hash"}`); code != 201 {
		t.Fatal("explicit hash create failed")
	}
	if code, _ := doJSON(t, c, "POST", ts.URL+"/v1/filters",
		`{"name":"defaulted","expected_keys":1000}`); code != 201 {
		t.Fatal("defaulted create failed")
	}
	code, body := doJSON(t, c, "GET", ts.URL+"/v1/filters/explicit", "")
	if code != 200 || body["partitioning"] != "hash" {
		t.Fatalf("explicit stats: %d %v", code, body)
	}
	code, body = doJSON(t, c, "GET", ts.URL+"/v1/filters/defaulted", "")
	if code != 200 || body["partitioning"] != "range" {
		t.Fatalf("Config default not applied: %d %v", code, body)
	}
	if body["key_skew"] == nil || body["shard_keys"] == nil {
		t.Fatalf("stats missing skew fields: %v", body)
	}
}
