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
// split into a plan and its execution: Algorithm 1 as one filter's own
// traversal that tests as it walks, with coveringRef and runRef as its
// leaf tests. It is the reference the range probes of filters and sets
// must match bit for bit.
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
		return f.runRef(top, pl, pl)
	case pl == pr:
		if !f.coveringRef(top, pl) {
			return false
		}
		covs[0] = refCovSingle
		ncov = 1
	default:
		la, lb := pl, pr
		if !alignedLeft(lo, L) {
			la = pl + 1
			if f.coveringRef(top, pl) {
				covs[ncov] = refCovLeft
				ncov++
			}
		}
		if !alignedRight(hi, L) {
			lb = pr - 1
			if f.coveringRef(top, pr) {
				covs[ncov] = refCovRight
				ncov++
			}
		}
		if la <= lb && f.runRef(top, la, lb) {
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
						return f.runRef(i-1, cpl, cpl)
					}
					// A single covering is the only active path, so a
					// cleared bit is an early negative (Algorithm 1, L.8).
					if !f.coveringRef(i-1, cpl) {
						return false
					}
					next[n2] = refCovSingle
					n2++
					continue
				}
				la, lb := cpl, cpr
				if !alignedLeft(lo, childLevel) {
					la = cpl + 1
					if f.coveringRef(i-1, cpl) {
						next[n2] = refCovLeft
						n2++
					}
				}
				if !alignedRight(hi, childLevel) {
					lb = cpr - 1
					if f.coveringRef(i-1, cpr) {
						next[n2] = refCovRight
						n2++
					}
				}
				if la <= lb && f.runRef(i-1, la, lb) {
					return true
				}
			case refCovLeft:
				cpl := rsh(lo, childLevel)
				parentEnd := rsh(lo, parentLevel)<<delta | (uint64(1)<<delta - 1)
				la := cpl
				if !alignedLeft(lo, childLevel) {
					la = cpl + 1
					if f.coveringRef(i-1, cpl) {
						next[n2] = refCovLeft
						n2++
					}
				}
				if la <= parentEnd && f.runRef(i-1, la, parentEnd) {
					return true
				}
			case refCovRight:
				cpr := rsh(hi, childLevel)
				parentStart := rsh(hi, parentLevel) << delta
				lb := cpr
				if !alignedRight(hi, childLevel) {
					lb = cpr - 1
					if f.coveringRef(i-1, cpr) {
						next[n2] = refCovRight
						n2++
					}
				}
				if parentStart <= lb && f.runRef(i-1, parentStart, lb) {
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

// coveringRef tests the single bit of the dyadic interval identified by
// prefix on layer i (i = k: exact bitmap). With replicated hash functions
// the bit must be set in every replica.
func (f *Filter) coveringRef(i int, prefix uint64) bool {
	if i == f.k {
		return f.exact.getBit(prefix)
	}
	ws := f.wshift[i]
	g := prefix >> ws
	off := prefix & lowMask(ws)
	if f.reversedPrefix(i, prefix) {
		off = lowMask(ws) - off
	}
	for r := 0; r < f.replicas[i]; r++ {
		seg, base := f.wordPos(i, r, g)
		if !seg.getBit(base + off) {
			return false
		}
	}
	return true
}

// runRef tests whether any dyadic interval with prefix in [pa, pb] (at
// layer i's level) has its bit set. On the exact layer the answer is
// authoritative. On probabilistic layers the run is scanned word-group by
// word-group; each group costs one masked word access per replica, and runs
// beyond maxScan groups conservatively return true (never a false
// negative).
func (f *Filter) runRef(i int, pa, pb uint64) bool {
	if i == f.k {
		return f.exact.anySet(pa, pb)
	}
	ws := f.wshift[i]
	wbits := uint64(1) << ws
	ga, gb := pa>>ws, pb>>ws
	if gb-ga >= f.maxScan {
		return true
	}
	for g := ga; g <= gb; g++ {
		mask := runMask(pa, pb, g, ga, gb, wbits, f.permute)
		w := ^uint64(0)
		for r := 0; r < f.replicas[i]; r++ {
			seg, base := f.wordPos(i, r, g)
			w &= seg.loadSub(base, uint(wbits))
		}
		if w&mask != 0 {
			return true
		}
	}
	return false
}

// mayContainRef is the point probe as one filter's own traversal: the
// exact bit, then every replica's bit on each layer, top-down. It is the
// reference the point probes of filters and sets must match.

// mayContainRef is the point probe as one filter's own traversal: the
// exact bit, then each replica's bit on each layer, top-down. It is the
// reference the point probes of filters and sets must match.
func (f *Filter) mayContainRef(x uint64) bool {
	if f.hasExact && !f.exact.getBit(rsh(x, f.exactLevel)) {
		return false
	}
	for i := f.k - 1; i >= 0; i-- {
		for r := 0; r < f.replicas[i]; r++ {
			seg, pos := f.layerBit(i, r, x)
			if !seg.getBit(pos) {
				return false
			}
		}
	}
	return true
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
// on every layer of fs[0]'s plan.
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

// checkSet compares each filter's own probe, as probe returns it, and
// each set of fam.sets, as mask returns it, with the reference answers
// that ref returns for one filter.
func checkSet(t *testing.T, fam planFamily, what string, ref, probe func(*Filter) bool, mask func(*FilterSet) uint64) {
	t.Helper()
	want := map[*Filter]bool{}
	for j, f := range append([]*Filter{fam.foreign}, fam.same...) {
		want[f] = ref(f)
		if got := probe(f); got != want[f] {
			t.Fatalf("filter %d: %s = %v, reference %v", j-1, what, got, want[f])
		}
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
				t.Fatalf("%s set %d of %d filters (lanes: %v): %s = %#x, the reference %#x",
					c.kind, n, len(fss.fs), c.set.hasLanes(), what, got, wantMask)
			}
		}
	}
}

// checkPoint compares MayContain, of each filter and of each set, with
// mayContainRef.
func checkPoint(t *testing.T, fam planFamily, x uint64) {
	t.Helper()
	x &= lowMask(min(fam.same[0].domain, fam.foreign.domain))
	checkSet(t, fam, fmt.Sprintf("MayContain(%d)", x),
		func(f *Filter) bool { return f.mayContainRef(x) },
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

// checkPlan compares MayContainRange, of each filter and of each set of
// fam.sets, with lanes and without, with mayContainRangeRef.
func checkPlan(t *testing.T, fam planFamily, lo, hi uint64) {
	t.Helper()
	checkSet(t, fam, fmt.Sprintf("MayContainRange(%d, %d)", lo, hi),
		func(f *Filter) bool { return f.mayContainRangeRef(lo, hi) },
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
		// Here a laned layer of family 1 answers wrongly when its
		// second replica reads the lane at the first replica's position.
		{1, 9045545, 9148306},
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

// hasLanes reports whether s keeps lanes on any layer.
func (s *FilterSet) hasLanes() bool { return s.lanes != nil }

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
			// Built with the lane budget raised: lanes on every layer.
			want := make([]bool, fss.fs[0].k+1)
			for l := range fss.fs[0].planLevels {
				want[l] = true
			}
			checkLanes(t, fmt.Sprintf("family %d, set %d", i, n), fss, want)
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

// TestHashOverrideInSets probes a filter whose hash a test overrides, as
// the worked examples' tests do, alone and in live and frozen sets with
// another group's lanes on every layer. It shares no plan, so it is
// probed as a group of one through the mask tests, which must not read
// the other group's lanes: its segment is twice as large, so its
// positions would run past them.
func TestHashOverrideInSets(t *testing.T) {
	cfg := Config{Domain: 24, Deltas: []int{7, 7}, SegBits: []uint64{2048}, Exact: true}
	rng := rand.New(rand.NewSource(16))
	var fs []*Filter
	for j := 0; j < 3; j++ {
		c := cfg
		if j == 1 {
			c.SegBits = []uint64{4096}
		}
		f, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		if j == 1 {
			f.hashOverride = func(layer, replica int, g uint64) uint64 { return g*2654435761 + uint64(layer) }
		}
		for n := 0; n < 200; n++ {
			f.Insert(rng.Uint64() & lowMask(24))
		}
		fs = append(fs, f)
	}
	live, frozen := NewFilterSet(fs), newFrozenFilterSet(fs, 1<<20)
	if frozen.others != 1<<1 {
		t.Fatalf("frozen set: others %#x; want filter 1 alone", frozen.others)
	}
	checkLanes(t, "frozen set", famSets{fs: fs, live: live, frozen: frozen}, []bool{true, true, true})
	for q := 0; q < 5000; q++ {
		lo := rng.Uint64() & lowMask(24)
		hi := lo + rng.Uint64()%(1<<uint(rng.Intn(16)))
		var wantPoint, wantRange uint64
		for j, f := range fs {
			if got, want := f.MayContain(lo), f.mayContainRef(lo); got != want {
				t.Fatalf("filter %d: MayContain(%d) = %v, reference %v", j, lo, got, want)
			} else if want {
				wantPoint |= 1 << j
			}
			if got, want := f.MayContainRange(lo, hi), f.mayContainRangeRef(lo, hi); got != want {
				t.Fatalf("filter %d: MayContainRange(%d, %d) = %v, reference %v", j, lo, hi, got, want)
			} else if want {
				wantRange |= 1 << j
			}
		}
		for _, s := range []*FilterSet{&live, &frozen} {
			if got := s.MayContain(lo); got != wantPoint {
				t.Fatalf("set (lanes: %v): MayContain(%d) = %#x, reference %#x", s.hasLanes(), lo, got, wantPoint)
			}
			if got := s.MayContainRange(lo, hi); got != wantRange {
				t.Fatalf("set (lanes: %v): MayContainRange(%d, %d) = %#x, reference %#x", s.hasLanes(), lo, hi, got, wantRange)
			}
		}
	}
}

// TestProbesZeroAlloc checks that warm point and range probes allocate
// nothing: of single filters, whose probes run through their set of one,
// and of live and frozen sets, with and without lanes, on the basic,
// replicated, permuted and tuned (exact-layer) layouts.
func TestProbesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on the measured path")
	}
	fams := planFamilies(t)
	for _, i := range []int{0, 1, 3, 6} {
		fam := fams[i]
		filters := []*Filter{fam.same[0], fam.foreign}
		var sets []*FilterSet
		for k := range fam.sets {
			sets = append(sets, &fam.sets[k].live, &fam.sets[k].frozen)
		}
		n := 0
		allocs := testing.AllocsPerRun(100, func() {
			x := fam.keys[n%len(fam.keys)] + uint64(n%2) // stored, or next to it
			n++
			for _, f := range filters {
				f.MayContain(x)
				f.MayContainRange(x, x+1000)
			}
			for _, s := range sets {
				s.MayContain(x)
				s.MayContainRange(x, x+1000)
			}
		})
		if allocs != 0 {
			t.Errorf("family %d: %v allocations per round of probes, want 0", i, allocs)
		}
	}
	// An LSM-shaped frozen set, with lanes on its exact layer and top
	// segment at the default budget.
	fs, _ := lsmShapedFilters(t)
	s := NewFrozenFilterSet(fs)
	if s.lanesOf(fs[0], fs[0].k-1) == nil {
		t.Fatal("the LSM-shaped set has no segment lanes")
	}
	rng := rand.New(rand.NewSource(17))
	allocs := testing.AllocsPerRun(100, func() {
		x := rng.Uint64()
		s.MayContain(x)
		s.MayContainRange(x, x+lsmShapeRange-1)
	})
	if allocs != 0 {
		t.Errorf("LSM-shaped set: %v allocations per round of probes, want 0", allocs)
	}
}

// checkLanes checks the lanes of one famSets: the live set has none, and
// the frozen set has them on layer i of fs[0]'s plan (i = k: the exact
// layer) exactly when want[i] says, 32 bits wide for up to 32 filters and
// 64 above. The exact layer's lanes hold every filter that shares the
// plan, a segment's only those of fs[0]'s geometry, and the layers of one
// segment share its lanes.
func checkLanes(t *testing.T, what string, fss famSets, want []bool) {
	t.Helper()
	if fss.live.hasLanes() {
		t.Fatalf("%s: a live set has lanes", what)
	}
	fr, f := &fss.frozen, fss.fs[0]
	for i, w := range want {
		ln := fr.lanesOf(f, i)
		if (ln != nil) != w {
			t.Fatalf("%s: layer %d of %d has lanes %v, want %v", what, i, f.k, ln != nil, w)
		}
		if ln == nil {
			continue
		}
		if (ln.w32 != nil) != (len(fss.fs) <= 32) || (ln.w32 == nil) == (ln.w64 == nil) {
			t.Fatalf("%s: layer %d: %d filters in 32-bit lanes: %v", what, i, len(fss.fs), ln.w32 != nil)
		}
		covers, bitmap := fr.shared, &f.exact
		if i < f.k {
			covers, bitmap = fr.sameGeo, &f.segs[f.segID[i]]
		}
		if ln.covers != covers {
			t.Fatalf("%s: layer %d's lanes cover %#x, want %#x", what, i, ln.covers, covers)
		}
		if n := uint64(max(len(ln.w32), len(ln.w64))); n != bitmap.size() {
			t.Fatalf("%s: layer %d has %d lanes for %d bits", what, i, n, bitmap.size())
		}
		for up := i + 1; up < f.k; up++ {
			if f.segID[up] == f.segID[i] && fr.lanesOf(f, up) != ln {
				t.Fatalf("%s: layers %d and %d of one segment keep separate lanes", what, i, up)
			}
		}
	}
}

// wantLaned returns which layers of fs[0]'s plan a frozen set of fs lanes
// at budget: the exact layer, then the segments of layers k−1, k−2, … as
// they first come up, until one would take the lanes past budget times
// the bits of the filters that share the plan.
func wantLaned(fs []*Filter, budget uint64) []bool {
	f := fs[0]
	var shared uint64
	for _, g := range fs {
		if g.sharesPlan(f) {
			shared += g.SizeBits()
		}
	}
	width := uint64(32)
	if len(fs) > 32 {
		width = 64
	}
	want := make([]bool, f.k+1)
	var used uint64
	if f.hasExact {
		if used = f.exact.size() * width; used > budget*shared {
			return want
		}
		want[f.k] = true
	}
	laned := map[int]bool{}
	for i := f.k - 1; i >= 0; i-- {
		seg := f.segID[i]
		if !laned[seg] {
			if used += f.segs[seg].size() * width; used > budget*shared {
				break
			}
			laned[seg] = true
		}
		want[i] = true
	}
	return want
}

// laneBytes returns the bytes of the lanes of a frozen set, each segment's
// counted once.
func laneBytes(s *FilterSet) int {
	seen := map[*laneArray]bool{}
	n := 0
	for _, ln := range s.lanes {
		if ln != nil && !seen[ln] {
			seen[ln] = true
			n += 4*len(ln.w32) + 8*len(ln.w64)
		}
	}
	return n
}

// TestFrozenSetLaneBudget builds frozen sets of 1 to 40 tuned filters
// sized as LSM tables are, as an LSM store does after each flush: a set
// keeps lanes on its exact layer from the size where they take no more
// memory than its filters, and on its top segment from the size where
// both do (wantLaned); it answers as the live set does, and a live set
// never has lanes. A last row holds the LSM benchmark's shape.
func TestFrozenSetLaneBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var fs []*Filter
	var stored []uint64 // some keys of every filter, for positive probes
	var first [3]int    // the size of the first set with lanes on the exact layer, layer k−1, layer 0
	check := func(what string, fs []*Filter, frozen FilterSet, want []bool) {
		t.Helper()
		live := NewFilterSet(fs)
		checkLanes(t, what, famSets{fs: fs, live: live, frozen: frozen}, want)
		for q := 0; q < 200; q++ {
			x := rng.Uint64()
			if q%2 == 1 {
				x = stored[q%len(stored)]
			}
			if got, want := frozen.MayContain(x), live.MayContain(x); got != want {
				t.Fatalf("%s: MayContain(%#x) = %#x, live set %#x", what, x, got, want)
			}
			if got, want := frozen.MayContainRange(x, x+1<<10), live.MayContainRange(x, x+1<<10); got != want {
				t.Fatalf("%s: MayContainRange(%#x, +2^10) = %#x, live set %#x", what, x, got, want)
			}
		}
	}
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
		want := wantLaned(fs, laneBudget)
		for l, i := range []int{f.k, f.k - 1, 0} {
			if want[i] && first[l] == 0 {
				first[l] = n
			}
		}
		check(fmt.Sprintf("%d filters", n), fs, NewFrozenFilterSet(fs), want)
	}
	t.Logf("lanes on the exact layer from %d filters on, on layer k−1 from %d, on layer 0 from %d (0: never)", first[0], first[1], first[2])
	if first[0] <= 1 || first[0] > 32 || first[1] <= first[0] || first[1] > 32 {
		t.Fatalf("lanes first kept at %d filters on the exact layer and %d on layer k−1, want 1 < exact < k−1 ≤ 32", first[0], first[1])
	}

	// The LSM benchmark's shape: the exact layer and segment 0 (layers
	// 6–8) are laned, segment 1 (layers 0–5) is not.
	lsm, lsmKeys := lsmShapedFilters(t)
	frozen := NewFrozenFilterSet(lsm)
	f := lsm[0]
	want := make([]bool, f.k+1)
	for i := range want {
		want[i] = i == f.k || f.segID[i] == f.segID[f.k-1]
	}
	if f.k != 9 || f.segID[5] == f.segID[6] || f.segID[6] != f.segID[8] {
		t.Fatalf("the LSM shape's layout changed: %d layers in segments %v", f.k, f.segID)
	}
	stored = lsmKeys
	check("LSM shape", lsm, frozen, want)
	var filterBytes uint64
	for _, g := range lsm {
		filterBytes += g.SizeBits() / 8
	}
	t.Logf("LSM shape: %d filters of %d bytes together, lanes %d bytes (exact layer %d)",
		len(lsm), filterBytes, laneBytes(&frozen), 4*f.exact.size())
}

// The LSM benchmark's shape (bench/lsm.go): 25 tables with bloomRF
// filters tuned for 16 bits per key and ranges of 2^10, the first 24 of
// 20,972 keys and the last of 20,960, which puts it in another geometry.
const (
	lsmShapeTables = 25
	lsmShapeRange  = 1 << 10
)

// lsmShapedFilters builds the filters of the LSM benchmark's shape over
// random keys, and returns them with a few of each one's keys.
func lsmShapedFilters(tb testing.TB) (fs []*Filter, stored []uint64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(18))
	for j := 0; j < lsmShapeTables; j++ {
		n := 20_972
		if j == lsmShapeTables-1 {
			n = 20_960
		}
		f, _, err := NewTuned(TuneOptions{N: uint64(n), BitsPerKey: 16, MaxRange: lsmShapeRange})
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < n; i++ {
			x := rng.Uint64()
			f.Insert(x)
			if i%4096 == 0 {
				stored = append(stored, x)
			}
		}
		fs = append(fs, f)
	}
	return fs, stored
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

// BenchmarkLSMFrozenSet probes the frozen set of the LSM benchmark's
// shape with empty scans of width 2^10 and with points it misses, once
// without lanes (budget 0) and once at the default budget (the exact
// layer and the top segment laned). Almost every random query misses
// every filter.
func BenchmarkLSMFrozenSet(b *testing.B) {
	fs, _ := lsmShapedFilters(b)
	rng := rand.New(rand.NewSource(19))
	qs := make([]uint64, 4096)
	for i := range qs {
		qs[i] = rng.Uint64()
	}
	sets := []struct {
		name string
		s    FilterSet
	}{{"no-lanes", newFrozenFilterSet(fs, 0)}, {"lanes", NewFrozenFilterSet(fs)}}
	var sink uint64
	for _, c := range sets {
		b.Run("empty-scan/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo := qs[i&(len(qs)-1)]
				sink |= c.s.MayContainRange(lo, lo+lsmShapeRange-1)
			}
		})
	}
	for _, c := range sets {
		b.Run("missed-point/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink |= c.s.MayContain(qs[i&(len(qs)-1)])
			}
		})
	}
	_ = sink
}
