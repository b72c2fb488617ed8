package core

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/hashutil"
)

// Paths of the two-path range lookup. Algorithm 1 follows one prefix path
// while a single dyadic interval holds both query bounds (pathS), then
// splits it into the left and right bound's paths. A check runs only while
// its path is alive, and a covering that tests positive keeps its path
// alive on the layer below (paper §4).
const (
	pathS uint8 = 1 << iota // one covering contains both bounds (phase 1 of Fig. 7)
	pathL                   // a covering contains the left bound; the query extends to its right edge
	pathR                   // a covering contains the right bound; the query extends from its left edge
)

// rangePlan is the query half of a range probe: [lo, hi] ordered and
// clamped to the layout's domain, and the layout's levels. The checks on
// each layer depend only on these, so one plan serves every filter that
// shares the layout (sharesPlan), and a layer's checks are worked out only
// when an execution reaches that layer.
//
// A probe runs in two phases (Fig. 7). While one dyadic interval holds
// both bounds, it is the only path (pathS): each layer tests that covering,
// or, at the level where the query is exactly that interval, that one
// interval decides. Below the level where the bounds' prefixes differ, the
// path splits, and layer lists each layer's checks.
type rangePlan struct {
	lo, hi uint64
	levels []uint // ℓ_0..ℓ_top; the top entry is the exact level when present
	split  int    // bits.Len64(lo ^ hi): the bounds share their prefix at levels ≥ split
}

// newRangePlan plans [lo, hi], ordered, over the given levels.
func newRangePlan(lo, hi uint64, levels []uint) rangePlan {
	return rangePlan{lo: lo, hi: hi, levels: levels, split: bits.Len64(lo ^ hi)}
}

// planCheck is one test of a plan: a covering (one dyadic interval that
// contains a query bound, tested with one bit) or a decomposition run
// (intervals lo..hi inside the query, tested with masked word loads).
type planCheck struct {
	lo, hi uint64 // prefixes at the layer's level; lo == hi for a covering
	need   uint8  // the path that must be alive for the check to run
	give   uint8  // a covering: the path a set bit keeps alive; 0 for a run
}

// planLayer lists the checks of one layer below the split in the order
// Algorithm 1 makes them: at most two coverings and two runs.
type planLayer struct {
	checks [4]planCheck
	n      int
}

func (l *planLayer) add(lo, hi uint64, need, give uint8) {
	// n < 4 always; the mask spares the bounds check.
	l.checks[l.n&3] = planCheck{lo: lo, hi: hi, need: need, give: give}
	l.n++
}

// clampRange orders [lo, hi] and clamps it to f's domain. It reports
// false when the query lies outside the domain, where every answer is
// false.
func (f *Filter) clampRange(lo, hi uint64) (uint64, uint64, bool) {
	if lo > hi {
		lo, hi = hi, lo
	}
	if f.domain < 64 {
		max := lowMask(f.domain)
		if lo > max {
			return 0, 0, false
		}
		hi = min(hi, max)
	}
	return lo, hi, true
}

// top returns the index of the plan's top layer, the first one tested.
// Levels above it are saturated (or exact) by construction and need no
// probabilistic test.
func (p *rangePlan) top() int { return len(p.levels) - 1 }

// single reports whether layer i is in the first phase: one dyadic
// interval, with prefix lo>>ℓ_i, holds both bounds.
func (p *rangePlan) single(i int) bool { return int(p.levels[i]) >= p.split }

// dyadic reports whether, on a layer in the first phase, the query is
// exactly the interval that holds it, so one test decides.
func (p *rangePlan) dyadic(i int) bool {
	return alignedLeft(p.lo, p.levels[i]) && alignedRight(p.hi, p.levels[i])
}

// layer sets l to the checks on layer i, below the first phase, for the
// paths alive in live: pathS on the layer where the path splits, then
// pathL and pathR. Each expansion tests the fully-contained child
// intervals (decomposition) and keeps at most one boundary child per path
// as the next covering.
func (p *rangePlan) layer(i int, live uint8, l *planLayer) {
	l.n = 0
	lo, hi, c := p.lo, p.hi, p.levels[i]
	if live&pathS != 0 {
		cpl, cpr := rsh(lo, c), rsh(hi, c)
		la, lb := cpl, cpr
		if !alignedLeft(lo, c) {
			la = cpl + 1
			l.add(cpl, cpl, pathS, pathL)
		}
		if !alignedRight(hi, c) {
			lb = cpr - 1
			l.add(cpr, cpr, pathS, pathR)
		}
		if la <= lb {
			l.add(la, lb, pathS, 0)
		}
		return
	}
	parent := p.levels[i+1]
	delta := parent - c
	if live&pathL != 0 {
		cpl := rsh(lo, c)
		parentEnd := rsh(lo, parent)<<delta | (uint64(1)<<delta - 1)
		la := cpl
		if !alignedLeft(lo, c) {
			la = cpl + 1
			l.add(cpl, cpl, pathL, pathL)
		}
		if la <= parentEnd {
			l.add(la, parentEnd, pathL, 0)
		}
	}
	if live&pathR != 0 {
		cpr := rsh(hi, c)
		parentStart := rsh(hi, parent) << delta
		lb := cpr
		if !alignedRight(hi, c) {
			lb = cpr - 1
			l.add(cpr, cpr, pathR, pathR)
		}
		if parentStart <= lb {
			l.add(parentStart, lb, pathR, 0)
		}
	}
	// At level 0 every boundary child is itself inside the query interval,
	// so no covering survives the last expansion.
}

// MayContainRange reports whether any key in [lo, hi] (inclusive) may have
// been inserted. False means the range is definitely empty; true means it
// is non-empty with probability 1 − FPR. Both orders of the bounds are
// accepted. Safe for concurrent use with Insert.
//
// The implementation follows Algorithm 1: it walks the left and right
// prefix paths top-down, testing one covering bit per path per layer and
// the contiguous runs of decomposition intervals with at most two masked
// word accesses per path per layer, giving O(k) time independent of the
// range size.
func (f *Filter) MayContainRange(lo, hi uint64) bool {
	ok := f.rangeEach(lo, hi, &f.self, 1) != 0
	runtime.KeepAlive(f) // the words' owner (bitArray)
	return ok
}

// maxSet is the most filters a FilterSet holds, so that a subset of them
// is a bit mask.
const maxSet = 64

// FilterSet probes up to 64 filters at once: its MayContain and
// MayContainRange return a mask whose bit j is fs[j]'s own answer. It is
// the core's one probe engine: a Filter probes the set of itself alone.
//
// The filters that share fs[0]'s layout — the same domain, level deltas,
// replicas, exact layer, word permutation and scan bound, with any segment
// sizes — are probed from one plan, layer-major: each layer's checks are
// worked out once for all of them, each covering and each run's word group
// is hashed once per replica, and their word loads issue back to back.
// Those that also have fs[0]'s geometry (each layer's segment, and the
// segment sizes) share the hash's reduction to a word index too, so that
// each costs one word load per check. The others are probed in the same
// way, each alone from its own plan; a filter alone is tested with no
// masks.
//
// A set of filters that never change again (NewFrozenFilterSet) may also
// keep lanes, as a bit-sliced signature file does: one lane word per bit
// position of a layer's bitmap, whose bit j is fs[j]'s bit there. The
// exact layer's lanes hold every filter that shares the plan, a
// probabilistic segment's lanes only those of fs[0]'s geometry, the ones
// that put a hash at the same position. A laned covering is then one load
// per replica for all of them, at an address that depends on the query
// alone; the others that share the plan load their own words beside it.
// Lanes go on the exact layer, then on the segments of layers k−1, k−2, …
// in turn, and stop at the first layer whose segment's lanes would take
// all of them past laneBudget times the memory of the filters that share
// the plan.
//
// Build a set once for a fixed list of filters and probe it many times:
// NewFilterSet decides which filters share what, and a probe allocates
// nothing. Probes are safe for concurrent use with each other, and, in a
// set made by NewFilterSet, with Insert.
type FilterSet struct {
	fs []*Filter
	// shared has bit j for each fs[j] that shares fs[0]'s plans, and
	// sameGeo for each of those that also shares its word indexes; others
	// is the rest.
	shared, sameGeo, others uint64
	// lanes[i] holds the lanes of fs[0]'s layer i (i = k: the exact
	// layer), or nil; layers of one segment share its lanes. It is nil in
	// a live set and in a frozen set without lanes.
	lanes []*laneArray
}

// NewFilterSet returns the set of fs, which it keeps; it panics for more
// than 64 filters. The filters may take inserts while the set probes them.
func NewFilterSet(fs []*Filter) FilterSet {
	if len(fs) > maxSet {
		panic("core: a FilterSet holds at most 64 filters")
	}
	s := FilterSet{fs: fs}
	for j, g := range fs {
		switch {
		case !g.sharesPlan(fs[0]):
			s.others |= 1 << j
		case g.geo == fs[0].geo:
			s.shared |= 1 << j
			s.sameGeo |= 1 << j
		default:
			s.shared |= 1 << j
		}
	}
	return s
}

// NewFrozenFilterSet returns the set of fs, as NewFilterSet does, for
// filters that never change again: every Insert into them must have
// returned before the call, and none may follow while the set is in use.
// The set copies the bits of its top layers into lanes, as far as
// laneBudget allows, so a later insert would be missed: a probe could
// answer false for a key it added. The filters of a committed LSM table
// qualify; a server shard does not.
func NewFrozenFilterSet(fs []*Filter) FilterSet {
	return newFrozenFilterSet(fs, laneBudget)
}

// laneBudget is how many times the memory of its shared filters a frozen
// set's lanes may take.
const laneBudget = 1

// newFrozenFilterSet is NewFrozenFilterSet with lanes allowed up to budget
// times the memory of the shared filters; tests raise it so that small
// sets carry lanes on every layer, and lower it to 0 for none.
func newFrozenFilterSet(fs []*Filter, budget uint64) FilterSet {
	s := NewFilterSet(fs)
	f := fs[0]
	var spare uint64 // lane bits left in the budget
	for m := s.shared; m != 0; m &= m - 1 {
		spare += fs[bits.TrailingZeros64(m)].SizeBits()
	}
	spare *= budget
	width := uint64(32)
	if len(fs) > 32 {
		width = 64
	}
	// lane returns the lanes of the bitmaps that at returns, for the filters
	// in covers, or nil when they do not fit what is left of the budget.
	lane := func(covers uint64, at func(g *Filter) *bitArray) *laneArray {
		if n := at(f).size() * width; n <= spare {
			spare -= n
			return newLaneArray(fs, covers, width, at)
		}
		return nil
	}
	lanes := make([]*laneArray, f.k+1)
	if f.hasExact {
		if lanes[f.k] = lane(s.shared, func(g *Filter) *bitArray { return &g.exact }); lanes[f.k] == nil {
			return s
		}
	}
	bySeg := make([]*laneArray, len(f.segs))
	for i := f.k - 1; i >= 0; i-- {
		seg := f.segID[i]
		if bySeg[seg] == nil {
			if bySeg[seg] = lane(s.sameGeo, func(g *Filter) *bitArray { return &g.segs[seg] }); bySeg[seg] == nil {
				break
			}
		}
		lanes[i] = bySeg[seg]
	}
	if lanes[len(f.planLevels)-1] != nil { // the plan's top layer
		s.lanes = lanes
	}
	return s
}

// laneArray holds the lanes of one bitmap of the filters in covers, which
// keep it at the same positions: bit j of lane p is fs[j]'s bit p. Lanes
// are 32 bits wide, in w32, for sets of up to 32 filters, and 64 bits
// wide, in w64, above.
type laneArray struct {
	w32    []uint32
	w64    []uint64
	covers uint64
}

// newLaneArray returns the lanes of the bitmaps that at returns for the
// filters of fs in covers, width bits wide.
func newLaneArray(fs []*Filter, covers, width uint64, at func(g *Filter) *bitArray) *laneArray {
	l := &laneArray{covers: covers}
	n := at(fs[0]).size()
	if width == 32 {
		l.w32 = make([]uint32, n)
	} else {
		l.w64 = make([]uint64, n)
	}
	for m := covers; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		if l.w32 != nil {
			orBits(l.w32, at(fs[j]).words, 1<<j)
		} else {
			orBits(l.w64, at(fs[j]).words, 1<<j)
		}
		runtime.KeepAlive(fs[j])
	}
	return l
}

// orBits ORs bit into lanes[p] for each bit p set in words.
func orBits[T uint32 | uint64](lanes []T, words []uint64, bit T) {
	for i := range words {
		lw := lanes[i<<6:][:64]
		for w := atomic.LoadUint64(&words[i]); w != 0; w &= w - 1 {
			lw[bits.TrailingZeros64(w)&63] |= bit
		}
	}
}

// at returns lane p: bit j is fs[j]'s bit p for each filter in l.covers.
func (l *laneArray) at(p uint64) uint64 {
	if l.w32 != nil {
		return uint64(l.w32[p])
	}
	return l.w64[p]
}

// test clears from cand the filters l covers whose bit p is clear, and
// returns what is left of cand and those of it that l does not cover,
// which the caller tests in their own words.
func (l *laneArray) test(p, cand uint64) (left, rest uint64) {
	cand &= l.at(p) | ^l.covers
	return cand, cand &^ l.covers
}

// lanesOf returns the lanes of layer i for the group f leads, or nil.
// Only fs[0]'s group has lanes: they hold its bits at its positions.
func (s *FilterSet) lanesOf(f *Filter, i int) *laneArray {
	if s.lanes == nil || f != s.fs[0] {
		return nil
	}
	return s.lanes[i]
}

// laneRunMax is the longest run of exact prefixes that runEach tests in
// the lanes, one load per prefix for all filters. A longer run is tested
// in each filter's bitmap, which holds 64 prefixes per word.
const laneRunMax = 64

// MayContain returns the mask of the filters in s that may hold x: bit j
// is fs[j].MayContain(x).
func (s *FilterSet) MayContain(x uint64) uint64 {
	var out uint64
	if s.shared != 0 {
		out = s.fs[0].pointEach(x, s, s.shared)
	}
	for m := s.others; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		out |= s.fs[j].pointEach(x, s, 1<<j)
	}
	runtime.KeepAlive(s.fs) // every filter, and with it its words' owner
	return out
}

// MayContainRange returns the mask of the filters in s that may hold a key
// in [lo, hi]: bit j is fs[j].MayContainRange(lo, hi).
func (s *FilterSet) MayContainRange(lo, hi uint64) uint64 {
	var out uint64
	if s.shared != 0 {
		out = s.fs[0].rangeEach(lo, hi, s, s.shared)
	}
	for m := s.others; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		out |= s.fs[j].rangeEach(lo, hi, s, 1<<j)
	}
	runtime.KeepAlive(s.fs)
	return out
}

// pointEach tests x on the filters of s in cand, which share f's plan, and
// returns the mask of those that may hold it. They test the exact layer,
// then the probabilistic layers top-down, and drop out at their first
// cleared bit: upper layers are sparser early in a filter's life, which
// makes negative probes cheap (error-correction order, §3.2).
//
// A group of one filter is its own lead, so when cand holds one filter,
// it is f; pointEach and rangeEach then test f alone, with no masks.
func (f *Filter) pointEach(x uint64, s *FilterSet, cand uint64) uint64 {
	alone := f.alone(cand)
	lv := f.planLevels
	for i := len(lv) - 1; i >= 0; i-- {
		if cand = f.covering(alone, i, rsh(x, lv[i]), s, cand); cand == 0 {
			return 0
		}
	}
	return cand
}

// rangeEach probes [lo, hi] on the filters of s in cand, which share f's
// plan, and returns the mask of those that may hold a key in it: it runs
// the plan of [lo, hi] for f's layout.
func (f *Filter) rangeEach(lo, hi uint64, s *FilterSet, cand uint64) uint64 {
	lo, hi, ok := f.clampRange(lo, hi)
	if !ok {
		return 0
	}
	// Set field by field, not copied from newRangePlan's result: loading a
	// copy of a plan just stored stalls on its stores.
	var p rangePlan
	p.lo, p.hi, p.levels, p.split = lo, hi, f.planLevels, bits.Len64(lo^hi)
	alone := f.alone(cand)
	i := p.top()
	for ; i >= 0 && p.single(i); i-- {
		pre := rsh(p.lo, p.levels[i])
		if p.dyadic(i) {
			return f.run(alone, i, pre, pre, s, cand)
		}
		// The only path: a cleared bit is an early negative (Algorithm 1,
		// L.8).
		if cand = f.covering(alone, i, pre, s, cand); cand == 0 {
			return 0
		}
	}
	// live[x>>1] is the set of filters on which path x is alive. A filter
	// that has tested positive (out) drops out of them all.
	var live, next [4]uint64
	live[pathS>>1] = cand
	var l planLayer
	var out uint64
	for alive := pathS; i >= 0 && alive != 0; i-- {
		p.layer(i, alive, &l)
		for k := 0; k < l.n; k++ {
			c := &l.checks[k]
			cand := live[c.need>>1&3] &^ out
			switch {
			case cand == 0:
			case c.give == 0:
				out |= f.run(alone, i, c.lo, c.hi, s, cand)
			default:
				next[c.give>>1&3] |= f.covering(alone, i, c.lo, s, cand)
			}
		}
		alive = 0
		if live[pathL>>1] = next[pathL>>1] &^ out; live[pathL>>1] != 0 {
			alive |= pathL
		}
		if live[pathR>>1] = next[pathR>>1] &^ out; live[pathR>>1] != 0 {
			alive |= pathR
		}
		next[pathL>>1], next[pathR>>1] = 0, 0
	}
	return out
}

// alone reports whether cand holds f alone, to be tested by covering and
// run inline. A filter whose hash a test overrides takes coveringEach and
// runEach, which call that hash, even alone.
func (f *Filter) alone(cand uint64) bool {
	return cand&(cand-1) == 0 && f.hashOverride == nil
}

// covering tests the covering bit of prefix on layer i (i = k: the exact
// bitmap) in the filters of s in cand and returns the mask of those whose
// bit is set: with replicated hash functions, set in every replica. It
// tests f alone, when alone, with the hash and its reduction inline, and
// the filters of a larger group through coveringEach.
func (f *Filter) covering(alone bool, i int, prefix uint64, s *FilterSet, cand uint64) uint64 {
	if !alone {
		return f.coveringEach(i, prefix, s, cand)
	}
	if i == f.k {
		if f.exact.getBit(prefix) {
			return cand
		}
		return 0
	}
	ws := f.wshift[i]
	g := prefix >> ws
	off := prefix & lowMask(ws)
	if f.reversedPrefix(i, prefix) {
		off = lowMask(ws) - off
	}
	seg, m := &f.segs[f.segID[i]], &f.mods[i]
	for _, seed := range f.seeds[i] {
		if !seg.getBit(m.mod(hashutil.Hash64(g, seed))<<ws + off) {
			return 0
		}
	}
	return cand
}

// run tests whether any dyadic interval with prefix in [pa, pb] (at layer
// i's level) has its bit set, in the filters of s in cand, and returns the
// mask of those where one has. On the exact layer the answer is
// authoritative. On probabilistic layers the run is scanned word group by
// word group; each group costs one masked word access per replica, and
// runs beyond maxScan groups conservatively test positive (never a false
// negative). It tests f alone, when alone, as covering does, and the
// filters of a larger group through runEach.
func (f *Filter) run(alone bool, i int, pa, pb uint64, s *FilterSet, cand uint64) uint64 {
	if !alone {
		return f.runEach(i, pa, pb, s, cand)
	}
	if i == f.k {
		if f.exact.anySet(pa, pb) {
			return cand
		}
		return 0
	}
	ws := f.wshift[i]
	wbits := uint64(1) << ws
	ga, gb := pa>>ws, pb>>ws
	if gb-ga >= f.maxScan {
		return cand
	}
	seg, m := &f.segs[f.segID[i]], &f.mods[i]
	for g := ga; g <= gb; g++ {
		w := ^uint64(0)
		for _, seed := range f.seeds[i] {
			w &= seg.loadSub(m.mod(hashutil.Hash64(g, seed))<<ws, uint(wbits))
		}
		if w&runMask(pa, pb, g, ga, gb, wbits, f.permute) != 0 {
			return cand
		}
	}
	return 0
}

// coveringEach is covering on layer i for every filter in s whose bit
// is set in cand, several of which share f's plan; it returns the mask of
// those whose covering bit is set. The word group is hashed once per
// replica for all of them, and the hash reduced once for those of f's
// geometry. On a laned layer those take one lane load per replica
// together; the others load their own words. The test is branch-free, so
// that the filters' word loads overlap.
func (f *Filter) coveringEach(i int, prefix uint64, s *FilterSet, cand uint64) uint64 {
	fs := s.fs
	ln := s.lanesOf(f, i)
	if i == f.k {
		m := cand
		if ln != nil {
			cand, m = ln.test(prefix, cand)
		}
		for ; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			w := fs[j].exact.loadWord(prefix)
			cand &^= (^w >> (prefix & 63) & 1) << j
		}
		return cand
	}
	ws := f.wshift[i]
	g := prefix >> ws
	off := prefix & lowMask(ws)
	if f.reversedPrefix(i, prefix) {
		off = lowMask(ws) - off
	}
	for r := 0; r < f.replicas[i] && cand != 0; r++ {
		h := f.hash(i, r, g)
		s0, base0 := f.wordAt(i, h)
		m := cand
		if ln != nil {
			cand, m = ln.test(base0+off, cand)
		}
		for ; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			seg, base := s0, base0
			if s.sameGeo&(1<<j) == 0 {
				seg, base = fs[j].wordAt(i, h)
			}
			pos := base + off
			cand &^= (^fs[j].segs[seg].loadWord(pos) >> (pos & 63) & 1) << j
		}
	}
	return cand
}

// runEach is run on layer i for every filter in s whose bit is set in
// cand, several of which share f's plan; it returns the mask of those with
// a set bit in the run. Each word group is hashed once per replica for all
// of them, and the hash reduced once for those of f's geometry. A short
// run on the exact layer is tested in its lanes, one load per prefix; on
// a probabilistic layer a group is one word of each filter, where lanes
// would take one load per bit of the group, so runs there load the
// filters' own words.
func (f *Filter) runEach(i int, pa, pb uint64, s *FilterSet, cand uint64) uint64 {
	fs := s.fs
	if i == f.k {
		m := cand
		if ln := s.lanesOf(f, i); ln != nil && pb-pa < laneRunMax {
			var any uint64
			for p := pa; p <= pb; p++ {
				any |= ln.at(p)
			}
			cand &= any | ^ln.covers
			m = cand &^ ln.covers
		}
		for ; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			if !fs[j].exact.anySet(pa, pb) {
				cand &^= 1 << j
			}
		}
		return cand
	}
	ws := f.wshift[i]
	wbits := uint64(1) << ws
	ga, gb := pa>>ws, pb>>ws
	if gb-ga >= f.maxScan {
		return cand
	}
	var acc [maxSet]uint64
	var hit uint64
	for g := ga; g <= gb && cand != 0; g++ {
		mask := runMask(pa, pb, g, ga, gb, wbits, f.permute)
		for m := cand; m != 0; m &= m - 1 {
			acc[bits.TrailingZeros64(m)] = ^uint64(0)
		}
		for r := 0; r < f.replicas[i]; r++ {
			h := f.hash(i, r, g)
			s0, base0 := f.wordAt(i, h)
			for m := cand; m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m)
				seg, base := s0, base0
				if s.sameGeo&(1<<j) == 0 {
					seg, base = fs[j].wordAt(i, h)
				}
				acc[j] &= fs[j].segs[seg].loadSub(base, uint(wbits))
			}
		}
		for m := cand; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			if acc[j]&mask != 0 {
				hit |= 1 << j
				cand &^= 1 << j
			}
		}
	}
	return hit
}

// sharesPlan reports whether g answers range probes from plans made for
// f's layout.
func (g *Filter) sharesPlan(f *Filter) bool {
	return g == f || g.planKeyOK && f.planKeyOK && g.planKey == f.planKey && g.maxScan == f.maxScan &&
		g.hashOverride == nil && f.hashOverride == nil
}

// runMask selects, in word group g of a run of prefixes pa..pb spanning
// groups ga..gb, the bits of the prefixes inside the run.
func runMask(pa, pb, g, ga, gb, wbits uint64, permute bool) uint64 {
	oLo := uint64(0)
	if g == ga {
		oLo = pa & (wbits - 1)
	}
	oHi := wbits - 1
	if g == gb {
		oHi = pb & (wbits - 1)
	}
	mask := lowMask(uint(oHi-oLo+1)) << oLo
	if permute {
		// Prefixes in the run may be stored in either orientation: test
		// both in the same word access (superset probe — the small FPR
		// cost of the degenerate-distribution defense).
		mask |= reverseWord(mask, uint(wbits))
	}
	return mask
}

// reverseWord reverses the low wbits bits of w.
func reverseWord(w uint64, wbits uint) uint64 {
	return bits.Reverse64(w) >> (64 - wbits)
}

func alignedLeft(lo uint64, level uint) bool {
	return lo&lowMask(level) == 0
}

func alignedRight(hi uint64, level uint) bool {
	m := lowMask(level)
	return hi&m == m
}
