package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// Covering kinds of the reference traversal below.
const (
	refCovSingle = iota // contains both bounds (phase 1 of Fig. 7)
	refCovLeft          // contains the left bound; query extends to the DI's right edge
	refCovRight         // contains the right bound; query extends from the DI's left edge
)

// mayContainRangeRef is MayContainRange as it was before the lookup was
// split into a plan and its execution: Algorithm 1 as one traversal that
// tests as it walks. It is the reference the plan executions must match
// bit for bit.
func (f *Filter) mayContainRangeRef(lo, hi uint64) bool {
	if lo > hi {
		lo, hi = hi, lo
	}
	if f.domain < 64 {
		max := lowMask(f.domain)
		if lo > max {
			return false
		}
		if hi > max {
			hi = max
		}
	}

	top := f.k - 1
	if f.hasExact {
		top = f.k // virtual exact layer above the probabilistic ones
	}
	var covs [2]int
	ncov := 0

	// Initial split at the top level. Levels above it are saturated (or
	// exact) by construction and need no probabilistic test.
	L := f.levelAtRef(top)
	pl, pr := rsh(lo, L), rsh(hi, L)
	switch {
	case pl == pr && alignedLeft(lo, L) && alignedRight(hi, L):
		// The query is exactly one dyadic interval: a single test decides.
		return f.testRangeLayer(top, pl, pl)
	case pl == pr:
		if !f.testCovering(top, pl) {
			return false
		}
		covs[0] = refCovSingle
		ncov = 1
	default:
		la, lb := pl, pr
		if !alignedLeft(lo, L) {
			la = pl + 1
			if f.testCovering(top, pl) {
				covs[ncov] = refCovLeft
				ncov++
			}
		}
		if !alignedRight(hi, L) {
			lb = pr - 1
			if f.testCovering(top, pr) {
				covs[ncov] = refCovRight
				ncov++
			}
		}
		if la <= lb && f.testRangeLayer(top, la, lb) {
			return true
		}
		if ncov == 0 {
			return false
		}
	}

	// Expand surviving coverings layer by layer. Each expansion tests the
	// fully-contained child intervals (decomposition) immediately and keeps
	// at most one boundary child per path as the next covering.
	for i := top; i >= 1; i-- {
		childLevel := f.levels[i-1]
		parentLevel := f.levelAtRef(i)
		delta := parentLevel - childLevel
		var next [2]int
		n2 := 0
		for j := 0; j < ncov; j++ {
			switch covs[j] {
			case refCovSingle:
				cpl, cpr := rsh(lo, childLevel), rsh(hi, childLevel)
				if cpl == cpr {
					if alignedLeft(lo, childLevel) && alignedRight(hi, childLevel) {
						return f.testRangeLayer(i-1, cpl, cpl)
					}
					// A single covering is the only active path, so a
					// cleared bit is an early negative (Algorithm 1, L.8).
					if !f.testCovering(i-1, cpl) {
						return false
					}
					next[n2] = refCovSingle
					n2++
					continue
				}
				la, lb := cpl, cpr
				if !alignedLeft(lo, childLevel) {
					la = cpl + 1
					if f.testCovering(i-1, cpl) {
						next[n2] = refCovLeft
						n2++
					}
				}
				if !alignedRight(hi, childLevel) {
					lb = cpr - 1
					if f.testCovering(i-1, cpr) {
						next[n2] = refCovRight
						n2++
					}
				}
				if la <= lb && f.testRangeLayer(i-1, la, lb) {
					return true
				}
			case refCovLeft:
				cpl := rsh(lo, childLevel)
				parentEnd := rsh(lo, parentLevel)<<delta | (uint64(1)<<delta - 1)
				la := cpl
				if !alignedLeft(lo, childLevel) {
					la = cpl + 1
					if f.testCovering(i-1, cpl) {
						next[n2] = refCovLeft
						n2++
					}
				}
				if la <= parentEnd && f.testRangeLayer(i-1, la, parentEnd) {
					return true
				}
			case refCovRight:
				cpr := rsh(hi, childLevel)
				parentStart := rsh(hi, parentLevel) << delta
				lb := cpr
				if !alignedRight(hi, childLevel) {
					lb = cpr - 1
					if f.testCovering(i-1, cpr) {
						next[n2] = refCovRight
						n2++
					}
				}
				if parentStart <= lb && f.testRangeLayer(i-1, parentStart, lb) {
					return true
				}
			}
		}
		if n2 == 0 {
			return false
		}
		covs, ncov = next, n2
	}
	// At level 0 every boundary child is itself inside the query interval,
	// so no covering survives the last expansion; reaching here means every
	// decomposition test was negative.
	return false
}

// levelAtRef returns the dyadic level of layer i, where i = k denotes the
// virtual exact layer.
func (f *Filter) levelAtRef(i int) uint {
	if i == f.k {
		return f.exactLevel
	}
	return f.levels[i]
}

// planFamily is a set of filters that share one layout but differ in
// segment sizes and contents, plus one filter of another layout. same[0]
// and same[2] have one geometry, same[1] doubles its segment sizes, and
// in the multi-segment family same[3] keeps the segment sizes but moves
// the layers to other segments.
type planFamily struct {
	same    []*Filter
	foreign *Filter
	keys    []uint64  // some of the keys in same[0], for positive point probes
	sets    []famSets // built once by planFamilies
}

// famSets holds the two sets checkPlan and checkPoint probe over one list
// of a family's filters: NewFilterSet(fs) and the frozen set of fs. The
// frozen set is built with a raised lane budget, so that it carries lanes
// whenever fs[0] has an exact layer.
type famSets struct {
	fs           []*Filter
	live, frozen FilterSet
}

// setLists returns the filter lists a family is probed as one FilterSet
// over: same; same with the foreign filter first, in the middle and last;
// and 2, 16, 32, 33 and 64 filters that cycle through all of them, so that
// both lane widths come up and the foreign one sits at bit 63.
func (fam planFamily) setLists() [][]*Filter {
	lists := [][]*Filter{fam.same}
	for at := 0; at <= len(fam.same); at += 2 {
		lists = append(lists, append(append(append([]*Filter(nil), fam.same[:at]...), fam.foreign), fam.same[at:]...))
	}
	all := append(append([]*Filter(nil), fam.same...), fam.foreign)
	for _, n := range []int{2, 16, 32, 33, maxSet} {
		cycle := make([]*Filter, n)
		for j := range cycle {
			cycle[j] = all[(j+1)%len(all)]
		}
		lists = append(lists, cycle)
	}
	return lists
}

// buildSets builds the famSets of every list of fam.setLists.
func (fam *planFamily) buildSets() {
	fam.sets = nil
	for _, fs := range fam.setLists() {
		fam.sets = append(fam.sets, famSets{fs: fs, live: NewFilterSet(fs), frozen: newFrozenFilterSet(fs, 1<<20)})
	}
}

// checkSet compares each set of fam.sets with its filters' own answers,
// as probe returns them for one filter and as mask returns them for the
// set.
func checkSet(t *testing.T, fam planFamily, what string, probe func(*Filter) bool, mask func(*FilterSet) uint64) {
	t.Helper()
	want := map[*Filter]bool{fam.foreign: probe(fam.foreign)}
	for _, f := range fam.same {
		want[f] = probe(f)
	}
	for n, fss := range fam.sets {
		var wantMask uint64
		for j, f := range fss.fs {
			if want[f] {
				wantMask |= 1 << j
			}
		}
		for _, c := range []struct {
			kind string
			set  *FilterSet
		}{{"live", &fss.live}, {"frozen", &fss.frozen}} {
			if got := mask(c.set); got != wantMask {
				t.Fatalf("%s set %d of %d filters (lanes: %v): %s = %#x, the filters' own answers %#x",
					c.kind, n, len(fss.fs), c.set.hasLanes(), what, got, wantMask)
			}
		}
	}
}

// checkPoint compares FilterSet.MayContain with each filter's MayContain.
func checkPoint(t *testing.T, fam planFamily, x uint64) {
	t.Helper()
	x &= lowMask(min(fam.same[0].domain, fam.foreign.domain))
	checkSet(t, fam, fmt.Sprintf("MayContain(%d)", x),
		func(f *Filter) bool { return f.MayContain(x) },
		func(s *FilterSet) uint64 { return s.MayContain(x) })
}

// planFamilies builds the layouts TestNoFalseNegativesRangeAllConfigs
// covers — basic, multi-segment with replicas, exact layer, permuted
// words, tiny words — and a MaxScanGroups cap, two tuned layouts one delta
// apart, a full 64-bit domain and a layout too large to share plans.
// The multi-segment family also holds a filter with the same plan key and
// segment sizes whose layers sit in other segments: it shares the plan
// but not the word indexes.
func planFamilies(tb testing.TB) []planFamily {
	tb.Helper()
	configs := []Config{
		basicConfigDomain(24, 200, 12),
		{Domain: 24, Deltas: []int{7, 7, 4, 2}, SegBits: []uint64{2048, 1024}, SegmentOf: []int{0, 0, 1, 1}, Replicas: []int{1, 1, 1, 2}},
		{Domain: 24, Deltas: []int{7, 7}, SegBits: []uint64{2048}, Exact: true},
		{Domain: 24, Deltas: []int{7, 7, 7}, SegBits: []uint64{2048}, PermuteWords: true},
		{Domain: 24, Deltas: []int{1, 2, 3, 4, 5, 6}, SegBits: []uint64{4096}},
		{Domain: 24, Deltas: []int{4, 4, 4}, SegBits: []uint64{1024}, MaxScanGroups: 2},
		// The advisor's layouts for ~3.5k and ~13k keys at 16 bits/key
		// (exact levels 50 and 48): each is the other's foreign layout
		// and differs from it only in layer 6's delta.
		{Domain: 64, Deltas: []int{7, 7, 7, 7, 7, 7, 4, 2, 2}, SegBits: []uint64{1 << 16}, Replicas: []int{1, 1, 1, 1, 1, 1, 1, 1, 2}, Exact: true},
		{Domain: 64, Deltas: []int{7, 7, 7, 7, 7, 7, 2, 2, 2}, SegBits: []uint64{1 << 16}, Replicas: []int{1, 1, 1, 1, 1, 1, 1, 1, 2}, Exact: true},
		BasicConfig(200, 12),
		// Too many layers for a plan key: the filters share no plan.
		{Domain: 24, Deltas: []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2}, SegBits: []uint64{4096}},
	}
	rng := rand.New(rand.NewSource(12))
	var inserted []uint64 // the keys of the filter build made last
	build := func(cfg Config, n int) *Filter {
		f, err := New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		inserted = inserted[:0]
		for i := 0; i < n; i++ {
			x := rng.Uint64() & lowMask(uint(cfg.Domain))
			f.Insert(x)
			inserted = append(inserted, x)
		}
		return f
	}
	regrouped := configs[1]
	regrouped.SegmentOf = []int{1, 0, 1, 0}
	var fams []planFamily
	for i, cfg := range configs {
		bigger := cfg
		bigger.SegBits = make([]uint64, len(cfg.SegBits))
		for s, b := range cfg.SegBits {
			bigger.SegBits[s] = 2 * b
		}
		same0 := build(cfg, 200)
		keys := append([]uint64(nil), inserted[:64]...)
		fam := planFamily{
			same:    []*Filter{same0, build(bigger, 300), build(cfg, 50)},
			foreign: build(configs[(i+1)%len(configs)], 200),
			keys:    keys,
		}
		if i == 1 {
			fam.same = append(fam.same, build(regrouped, 200))
		}
		fam.buildSets()
		fams = append(fams, fam)
	}
	return fams
}

// checkPlan compares every way of running a range probe with the
// reference: MayContainRange, a plan made for one filter executed against
// each filter of its layout, and FilterSet.MayContainRange over every set
// of fam.sets, with lanes and without.
func checkPlan(t *testing.T, fam planFamily, lo, hi uint64) {
	t.Helper()
	for j, f := range append([]*Filter{fam.foreign}, fam.same...) {
		if got, want := f.MayContainRange(lo, hi), f.mayContainRangeRef(lo, hi); got != want {
			t.Fatalf("filter %d: MayContainRange(%d, %d) = %v, reference %v", j-1, lo, hi, got, want)
		}
	}
	plo, phi, ok := fam.same[1].clampRange(lo, hi)
	p := newRangePlan(plo, phi, fam.same[1].planLevels)
	for j, f := range fam.same {
		if got, want := ok && f.execPlan(p), f.mayContainRangeRef(lo, hi); got != want {
			t.Fatalf("filter %d: shared plan of [%d, %d] = %v, reference %v", j, lo, hi, got, want)
		}
	}
	checkSet(t, fam, fmt.Sprintf("MayContainRange(%d, %d)", lo, hi),
		func(f *Filter) bool { return f.MayContainRange(lo, hi) },
		func(s *FilterSet) uint64 { return s.MayContainRange(lo, hi) })
}

// FuzzRangePlan holds every execution of a range plan to the reference
// traversal, bit for bit, for arbitrary bounds in either order. Each input
// is checked as given and as a narrow range starting at lo, so that
// ranges near stored keys and wide ranges both come up, and every set's
// point probe is checked at lo and at a stored key.
func FuzzRangePlan(f *testing.F) {
	fams := planFamilies(f)
	for _, s := range [][3]uint64{
		{0, 45, 60}, {0, 60, 45}, {1, 0, ^uint64(0)}, {2, 1 << 14, 1<<15 - 1},
		{3, 12345, 54321}, {4, 7, 7}, {5, 0, 1 << 23}, {6, 1 << 40, 1<<40 + 1<<20},
		{2, 9 << 14, 10<<14 - 1}, {0, 1 << 30, 1 << 31}, {5, 100, 5000},
		// Family 1's regrouped filter answers false here when it reads
		// filter 0's word indexes instead of its own.
		{1, 5326028, 6749190},
	} {
		f.Add(uint8(s[0]), s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, fam uint8, lo, hi uint64) {
		ff := fams[int(fam)%len(fams)]
		checkPlan(t, ff, lo, hi)
		checkPlan(t, ff, lo, lo+min(hi%4096, ^uint64(0)-lo))
		checkPoint(t, ff, lo)
		checkPoint(t, ff, ff.keys[hi%uint64(len(ff.keys))])
	})
}

// TestRangePlanMatchesReference runs checkPlan over random queries around
// stored keys and across the domain in every family, and checkPoint at
// random and at stored keys.
func TestRangePlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fams := planFamilies(t)
	for i, fam := range fams {
		// Every family but the last shares one plan across its layout.
		if shared := fam.same[1].sharesPlan(fam.same[0]); shared != (i < len(fams)-1) {
			t.Fatalf("family %d: sharesPlan = %v", i, shared)
		}
		if fam.foreign.sharesPlan(fam.same[0]) {
			t.Fatalf("family %d: the foreign layout shares the plan", i)
		}
		for j, g := range fam.same[1:] {
			if sameGeo := g.geo == fam.same[0].geo; i < len(fams)-1 && sameGeo != (j == 1) {
				t.Fatalf("family %d: filter %d shares filter 0's geometry: %v", i, j+1, sameGeo)
			}
		}
		for n, fss := range fam.sets {
			// Built with the lane budget raised: lanes wherever there is
			// an exact layer.
			checkLanes(t, fmt.Sprintf("family %d, set %d", i, n), fss, fss.fs[0].hasExact)
		}
		d := uint(fam.same[0].domain)
		for trial := 0; trial < 3000; trial++ {
			lo := rng.Uint64() & lowMask(d)
			span := rng.Uint64() % (1 << uint(rng.Intn(min(int(d), 40))))
			hi := lo + min(span, ^uint64(0)-lo)
			if trial%2 == 1 {
				lo, hi = hi, lo
			}
			checkPlan(t, fam, lo, hi)
			checkPoint(t, fam, lo)
			checkPoint(t, fam, fam.keys[trial%len(fam.keys)])
		}
	}
}

// checkLanes checks the lanes of one famSets: the live set has none, and
// the frozen set has them exactly when want says, 32 bits wide for up to
// 32 filters and 64 above.
func checkLanes(t *testing.T, what string, fss famSets, want bool) {
	t.Helper()
	if fss.live.hasLanes() {
		t.Fatalf("%s: a live set has lanes", what)
	}
	fr := &fss.frozen
	if fr.hasLanes() != want {
		t.Fatalf("%s: frozen set has lanes %v, want %v", what, fr.hasLanes(), want)
	}
	if fr.hasLanes() && (fr.lanes32 != nil) != (len(fss.fs) <= 32) {
		t.Fatalf("%s: %d filters in 32-bit lanes: %v", what, len(fss.fs), fr.lanes32 != nil)
	}
}

// TestFrozenSetLaneBudget builds frozen sets of 1 to 40 tuned filters
// sized as LSM tables are, as an LSM store does after each flush: a set
// keeps lanes from the size where they take no more memory than its
// filters, it answers as the live set does, and a live set never has
// lanes.
func TestFrozenSetLaneBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var fs []*Filter
	var stored []uint64 // some keys of every filter, for positive probes
	first := 0          // the size of the first set with lanes
	for n := 1; n <= 40; n++ {
		f, _, err := NewTuned(TuneOptions{N: 20_000, BitsPerKey: 16, MaxRange: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20_000; i++ {
			x := rng.Uint64()
			f.Insert(x)
			if i%1000 == 0 {
				stored = append(stored, x)
			}
		}
		if !f.hasExact {
			t.Fatal("the tuned layout has no exact layer")
		}
		fs = append(fs, f)
		frozen := NewFrozenFilterSet(fs)
		live := NewFilterSet(fs)
		if live.hasLanes() {
			t.Fatalf("%d filters: a live set has lanes", n)
		}
		width := uint64(32)
		if n > 32 {
			width = 64
		}
		var filterBits uint64
		for _, g := range fs {
			filterBits += g.SizeBits()
		}
		want := f.exact.size()*width <= laneBudget*filterBits
		if want && first == 0 {
			first = n
		}
		checkLanes(t, fmt.Sprintf("%d filters", n), famSets{fs: fs, live: live, frozen: frozen}, want)
		for q := 0; q < 200; q++ {
			x := rng.Uint64()
			if q%2 == 1 {
				x = stored[q%len(stored)]
			}
			if got, want := frozen.MayContain(x), live.MayContain(x); got != want {
				t.Fatalf("%d filters: MayContain(%#x) = %#x, live set %#x", n, x, got, want)
			}
			if got, want := frozen.MayContainRange(x, x+1<<10), live.MayContainRange(x, x+1<<10); got != want {
				t.Fatalf("%d filters: MayContainRange(%#x, +2^10) = %#x, live set %#x", n, x, got, want)
			}
		}
	}
	t.Logf("lanes from %d filters on, %d exact prefixes", first, fs[0].exact.size())
	if first <= 1 || first > 32 {
		t.Fatalf("lanes first kept at %d filters, want between 2 and 32", first)
	}
}

// TestPlanKeySeparatesLayouts changes one field of a 14-layer layout at a
// time — the domain, the layer count, either flag, or any layer's word
// shift or replica count — and checks that every change yields another
// plan key.
func TestPlanKeySeparatesLayouts(t *testing.T) {
	const k = 14
	base := func() *Filter {
		f := &Filter{k: k, domain: 64, wshift: make([]uint, k), replicas: make([]int, k)}
		for i := range f.wshift {
			f.wshift[i] = 6
			f.replicas[i] = 1
		}
		return f
	}
	want, ok := planKeyOf(base())
	if !ok {
		t.Fatal("a 14-layer layout has no plan key")
	}
	check := func(what string, f *Filter) {
		t.Helper()
		key, ok := planKeyOf(f)
		if !ok {
			t.Fatalf("%s: no plan key", what)
		}
		if key == want {
			t.Fatalf("%s: same plan key as the base layout", what)
		}
	}
	for d := uint(1); d < 64; d++ {
		f := base()
		f.domain = d
		check(fmt.Sprintf("domain %d", d), f)
	}
	f := base()
	f.k = k - 1
	check("one layer fewer", f)
	f = base()
	f.hasExact = true
	check("exact layer", f)
	f = base()
	f.permute = true
	check("permuted words", f)
	for i := 0; i < k; i++ {
		for ws := uint(0); ws < 64; ws++ {
			if ws == 6 {
				continue
			}
			f := base()
			f.wshift[i] = ws
			check(fmt.Sprintf("layer %d word shift %d", i, ws), f)
		}
		for r := 2; r <= 4; r++ {
			f := base()
			f.replicas[i] = r
			check(fmt.Sprintf("layer %d with %d replicas", i, r), f)
		}
	}
}

// BenchmarkMayContainRange compares the plan-and-execute lookup with the
// reference traversal on narrow empty-ish ranges over a tuned filter.
func BenchmarkMayContainRange(b *testing.B) {
	f, _, err := NewTuned(TuneOptions{N: 1 << 16, BitsPerKey: 16, MaxRange: 1 << 10})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 1<<16; i++ {
		f.Insert(rng.Uint64())
	}
	qs := make([]uint64, 4096)
	for i := range qs {
		qs[i] = rng.Uint64()
	}
	var sink int
	b.Run("plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo := qs[i&(len(qs)-1)]
			if f.MayContainRange(lo, lo+1023) {
				sink++
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo := qs[i&(len(qs)-1)]
			if f.mayContainRangeRef(lo, lo+1023) {
				sink++
			}
		}
	})
	_ = sink
}
