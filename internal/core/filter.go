package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"unique"

	"repro/internal/hashutil"
)

// hashFunc maps a layer's hash input (the key prefix above the word offset
// bits) to a raw 64-bit hash; the filter reduces it modulo the layer's word
// count. It is overridable so tests can pin the paper's worked examples
// (Fig. 3/4 use h_i(x) = a_i + b_i·x).
type hashFunc func(layer, replica int, g uint64) uint64

// Filter is a bloomRF point-range filter. It supports concurrent Insert and
// MayContain* calls without external locking. Create one with New and keep
// using it while data streams in — unlike trie-based point-range filters,
// bloomRF does not need the key set in advance (paper Problem 2).
type Filter struct {
	cfg    Config
	k      int
	domain uint

	// Per-layer derived layout (index = layer, bottom-up).
	levels   []uint    // ℓ_i
	wshift   []uint    // Δ_i − 1: log2 of word size in bits
	segID    []int     // probabilistic segment index
	nwords   []uint64  // number of W_i-bit words in the layer's segment
	mods     []modulus // precomputed h mod nwords reducers (batch paths)
	replicas []int
	seeds    [][]uint64 // seeds[layer][replica]

	segs  []bitArray // probabilistic segments
	exact bitArray   // exact bitmap (empty unless cfg.Exact)

	exactLevel uint // ℓ_k when cfg.Exact
	hasExact   bool
	permute    bool
	maxScan    uint64

	hashOverride hashFunc // nil in production; tests only

	// planLevels holds the levels a range plan walks: ℓ_0..ℓ_{k−1}, then
	// ℓ_k when the exact layer is present. planKey and maxScan hold
	// everything of the layout a plan depends on, so filters with equal
	// ones share plans; a layout too large for the key has planKeyOK false
	// and shares with none. Of the filters that share plans, those with
	// equal geo share word indexes too (geometryOf).
	planLevels []uint
	planKey    [16]byte
	planKeyOK  bool
	geo        unique.Handle[geometry]

	// self is the set of f alone: f's own probes are its probes.
	self FilterSet
}

// New creates a filter from a validated Config.
func New(cfg Config) (*Filter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := cfg.K()
	f := &Filter{
		cfg:      cfg,
		k:        k,
		domain:   uint(cfg.Domain),
		levels:   make([]uint, k),
		wshift:   make([]uint, k),
		segID:    make([]int, k),
		nwords:   make([]uint64, k),
		mods:     make([]modulus, k),
		replicas: make([]int, k),
		seeds:    make([][]uint64, k),
		permute:  cfg.PermuteWords,
		maxScan:  DefaultMaxScanGroups,
	}
	if cfg.MaxScanGroups > 0 {
		f.maxScan = uint64(cfg.MaxScanGroups)
	}
	// The segments and, last, the exact bitmap (empty unless cfg.Exact)
	// are sized together, so that a large filter maps them as one.
	nsegs := len(cfg.SegBits)
	arrs := newBitArrays(append(cfg.SegBits[:nsegs:nsegs], cfg.ExactBits()))
	f.segs, f.exact = arrs[:nsegs], arrs[nsegs]
	lvl := uint(0)
	for i := 0; i < k; i++ {
		f.levels[i] = lvl
		lvl += uint(cfg.Deltas[i])
		f.wshift[i] = uint(cfg.Deltas[i] - 1)
		if cfg.SegmentOf != nil {
			f.segID[i] = cfg.SegmentOf[i]
		}
		f.nwords[i] = cfg.SegBits[f.segID[i]] >> f.wshift[i]
		f.mods[i] = newModulus(f.nwords[i])
		f.replicas[i] = 1
		if cfg.Replicas != nil {
			f.replicas[i] = cfg.Replicas[i]
		}
		f.seeds[i] = make([]uint64, f.replicas[i])
		for r := range f.seeds[i] {
			f.seeds[i][r] = hashutil.Mix64(uint64(i)<<32 | uint64(r) | 0xb10f<<48)
		}
	}
	f.planLevels = f.levels
	if cfg.Exact {
		f.hasExact = true
		f.exactLevel = lvl
		f.planLevels = append(f.levels[:k:k], lvl)
	}
	f.planKey, f.planKeyOK = planKeyOf(f)
	if f.planKeyOK {
		f.geo = unique.Make(geometryOf(f))
	}
	f.self = NewFilterSet([]*Filter{f})
	return f, nil
}

// planKeyLayers is the most layers a plan key holds.
const planKeyLayers = 14

// planKeyOf packs the layout a range plan depends on, apart from the scan
// bound, one byte per field: the domain; the layer count with the exact
// layer and word permutation flags; then each layer's word shift (Δ_i − 1,
// 0..63) and replica count less one (0..3). The hash seeds follow from the
// layer and replica indices. It reports false for a layout that does not
// fit: more than 14 layers, or more than 4 replicas on a layer.
func planKeyOf(f *Filter) (key [16]byte, ok bool) {
	const head = len(key) - planKeyLayers
	if f.k > planKeyLayers {
		return key, false
	}
	key[0] = byte(f.domain)
	key[1] = byte(f.k) // k ≤ 14 fits the low 4 bits
	if f.hasExact {
		key[1] |= 1 << 4
	}
	if f.permute {
		key[1] |= 1 << 5
	}
	for i := 0; i < f.k; i++ {
		if f.replicas[i] > 4 {
			return key, false
		}
		key[head+i] = byte(f.wshift[i]) | byte(f.replicas[i]-1)<<6
	}
	return key, true
}

// geometry is where a filter's layers keep their words: each layer's
// segment and word count. Two filters that share plans and have equal
// geometries map every raw hash to the same word index (wordAt), so one
// reduction serves both; equal SegmentOf and SegBits give equal
// geometries.
type geometry struct {
	seg    [planKeyLayers]uint8
	nwords [planKeyLayers]uint64
}

// geometryOf returns f's geometry; f has a plan key, so k ≤ planKeyLayers.
func geometryOf(f *Filter) geometry {
	var g geometry
	for i := 0; i < f.k; i++ {
		g.seg[i], g.nwords[i] = uint8(f.segID[i]), f.nwords[i]
	}
	return g
}

// NewBasic creates the tuning-free basic bloomRF of §3–5 sized for n keys
// at the given space budget.
func NewBasic(n uint64, bitsPerKey float64) *Filter {
	f, err := New(BasicConfig(n, bitsPerKey))
	if err != nil {
		// BasicConfig always produces a valid config; reaching this is a bug.
		panic(fmt.Sprintf("core: invalid basic config: %v", err))
	}
	return f
}

// hash returns the raw hash of word-group g for (layer, replica).
func (f *Filter) hash(layer, replica int, g uint64) uint64 {
	if f.hashOverride != nil {
		return f.hashOverride(layer, replica, g)
	}
	return hashutil.Hash64(g, f.seeds[layer][replica])
}

// wordAt locates the filter word a layer's raw hash h selects: the index
// of the containing segment and the bit position of the word's first bit.
func (f *Filter) wordAt(layer int, h uint64) (seg int, bitPos uint64) {
	return f.segID[layer], f.mods[layer].mod(h) << f.wshift[layer]
}

// wordPos locates the filter word holding word-group g of a layer/replica:
// the containing segment and the bit position of the word's first bit. The
// h mod nwords reduction uses the layer's precomputed Lemire reciprocal
// (batch.go) — bit-identical to the hardware division it replaces, so
// single-key and batch paths always agree on probe positions.
func (f *Filter) wordPos(layer, replica int, g uint64) (seg *bitArray, bitPos uint64) {
	s, pos := f.wordAt(layer, f.hash(layer, replica, g))
	return &f.segs[s], pos
}

// reversedPrefix implements the §3.2 degenerate-distribution mitigation:
// when PermuteWords is on, half of the prefixes (chosen by a hash of the
// prefix itself) write their word in reverse bit order, breaking key
// patterns that would otherwise pile every layer onto the same in-word
// offset. Insert, point and covering probes know the prefix and use the
// exact orientation; decomposition runs test both orientations in the same
// single word access (see runMask).
func (f *Filter) reversedPrefix(layer int, prefix uint64) bool {
	if !f.permute {
		return false
	}
	return hashutil.Hash64(prefix, uint64(layer)|0x0e7a<<48)&1 == 1
}

// layerBit returns the exact bit position of key x on a layer/replica
// (MH_i(x) of §3.2), relative to the layer's segment.
func (f *Filter) layerBit(layer, replica int, x uint64) (seg *bitArray, pos uint64) {
	ws := f.wshift[layer]
	prefix := rsh(x, f.levels[layer])
	g := prefix >> ws
	off := prefix & lowMask(ws)
	if f.reversedPrefix(layer, prefix) {
		off = lowMask(ws) - off
	}
	seg, base := f.wordPos(layer, replica, g)
	return seg, base + off
}

// Insert adds key x to the filter. Safe for concurrent use.
func (f *Filter) Insert(x uint64) {
	for i := 0; i < f.k; i++ {
		for r := 0; r < f.replicas[i]; r++ {
			seg, pos := f.layerBit(i, r, x)
			seg.setBit(pos)
		}
	}
	if f.hasExact {
		f.exact.setBit(rsh(x, f.exactLevel))
	}
	runtime.KeepAlive(f) // the words' owner (bitArray)
}

// MayContain reports whether x may have been inserted. False means
// definitely absent; true means present with probability 1 − FPR.
// Safe for concurrent use with Insert.
func (f *Filter) MayContain(x uint64) bool {
	ok := f.pointEach(x, &f.self, 1) != 0
	runtime.KeepAlive(f) // the words' owner (bitArray)
	return ok
}

// Config returns a copy of the filter's configuration.
func (f *Filter) Config() Config {
	c := f.cfg
	c.Deltas = append([]int(nil), f.cfg.Deltas...)
	if f.cfg.Replicas != nil {
		c.Replicas = append([]int(nil), f.cfg.Replicas...)
	}
	if f.cfg.SegmentOf != nil {
		c.SegmentOf = append([]int(nil), f.cfg.SegmentOf...)
	}
	c.SegBits = append([]uint64(nil), f.cfg.SegBits...)
	return c
}

// K returns the number of probabilistic layers.
func (f *Filter) K() int { return f.k }

// SizeBits returns the total memory footprint in bits.
func (f *Filter) SizeBits() uint64 {
	var t uint64
	for i := range f.segs {
		t += f.segs[i].size()
	}
	return t + f.exact.size()
}

// FillRatio returns the fraction of set bits in probabilistic segment s.
func (f *Filter) FillRatio(s int) float64 {
	r := float64(f.segs[s].onesCount()) / float64(f.segs[s].size())
	runtime.KeepAlive(f)
	return r
}

// SegmentSnapshot returns a copy of the raw words of probabilistic segment
// s, used by the Fig. 5 scatter analysis.
func (f *Filter) SegmentSnapshot(s int) []uint64 {
	w := f.segs[s].snapshot()
	runtime.KeepAlive(f)
	return w
}

// NumSegments returns the number of probabilistic segments.
func (f *Filter) NumSegments() int { return len(f.segs) }

// LayerWord returns the storage-word index (within the layer's segment,
// counted in 64-bit elements) that key x maps to on the given layer, for
// scatter analysis (Fig. 5.A).
func (f *Filter) LayerWord(layer int, x uint64) uint64 {
	_, pos := f.layerBit(layer, 0, x)
	return pos >> 6
}

// Levels returns ℓ_0..ℓ_k (the last entry is the exact level if present).
func (f *Filter) Levels() []int { return f.cfg.Levels() }

// HasExact reports whether the filter has an exact top bitmap.
func (f *Filter) HasExact() bool { return f.hasExact }

// popcount of a layer for diagnostics.
func (f *Filter) exactOnes() uint64 {
	if !f.hasExact {
		return 0
	}
	return f.exact.onesCount()
}

// Stats summarizes filter occupancy for diagnostics and experiments.
type Stats struct {
	SizeBits   uint64
	K          int
	SetBits    uint64
	ExactBits  uint64
	ExactSet   uint64
	FillRatios []float64
}

// Stats returns occupancy statistics.
func (f *Filter) Stats() Stats {
	st := Stats{SizeBits: f.SizeBits(), K: f.k, ExactBits: f.exact.size(), ExactSet: f.exactOnes()}
	st.FillRatios = make([]float64, len(f.segs))
	for i := range f.segs {
		ones := f.segs[i].onesCount()
		st.SetBits += ones
		st.FillRatios[i] = float64(ones) / float64(f.segs[i].size())
	}
	runtime.KeepAlive(f)
	return st
}

// log2u returns ⌊log2 x⌋ (0 for x = 0).
func log2u(x uint64) int {
	if x == 0 {
		return 0
	}
	return bits.Len64(x) - 1
}
