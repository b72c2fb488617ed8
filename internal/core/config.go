// Package core implements bloomRF, a unified point-range filter based on
// prefix hashing and piecewise-monotone hash functions (PMHF), as described
// in "bloomRF: On Performing Range-Queries in Bloom-Filters with
// Piecewise-Monotone Hash Functions and Prefix Hashing" (EDBT 2023).
//
// A bloomRF filter stores keys from a d-bit integer domain. Each key is
// inserted on k layers; layer i records the key's prefix on dyadic level
// ℓ_i (the key right-shifted by ℓ_i bits). Because a prefix on level ℓ
// identifies the dyadic interval of size 2^ℓ containing the key, the filter
// can answer range queries by testing O(k) dyadic intervals, independent of
// the query range size (§4, Algorithm 1 of the paper).
//
// The PMHF of layer i maps a prefix to a bit position as
//
//	MH_i(x) = (h_i(x >> (ℓ_i + Δ_i − 1)) mod words_i) · W_i  +  ((x >> ℓ_i) & (W_i − 1))
//
// with word size W_i = 2^(Δ_i−1) bits, so the W_i prefixes sharing a hash
// input land side by side in one word and a contiguous run of dyadic
// intervals is testable with a single masked word access.
package core

import (
	"errors"
	"fmt"
)

// MaxDelta is the largest supported distance between adjacent levels.
// Δ = 7 yields 64-bit words, the widest word a single uint64 access covers.
const MaxDelta = 7

// DefaultMaxScanGroups bounds the number of hashed word groups a single
// range decomposition check may probe at the top layer. Queries whose
// top-layer middle run exceeds the bound return "maybe" (a conservative
// positive), preserving the no-false-negative guarantee. The optimized
// configurations with an exact top layer never hit this bound because their
// middle runs are resolved by the exact bitmap instead.
const DefaultMaxScanGroups = 1 << 20

// Config fully describes a bloomRF layout. The zero value is not usable;
// construct configs with BasicConfig, Tune, or by hand followed by Validate.
//
// Layers are indexed bottom-up: layer 0 is the finest (level ℓ_0 = 0),
// layer k−1 the coarsest probabilistic layer. Deltas[i] is the distance
// between level ℓ_i and ℓ_{i+1}, so ℓ_i = Deltas[0] + … + Deltas[i−1].
// If Exact is true, the level ℓ_k = ΣDeltas is stored as an exact bitmap of
// 2^(Domain−ℓ_k) bits (§7 "Memory Management"); all levels above it are
// discarded as saturated.
type Config struct {
	// Domain is d, the number of significant key bits (1..64).
	Domain int

	// Deltas holds Δ_i per layer, bottom-up. len(Deltas) = k ≥ 1,
	// each in [1, MaxDelta].
	Deltas []int

	// Replicas holds r_i ≥ 1 per layer: the number of hash functions that
	// write a word for layer i (§7 "Replicated Hash-Functions"). A nil
	// slice means one per layer.
	Replicas []int

	// SegmentOf assigns each layer to a probabilistic memory segment
	// (index into SegBits). A nil slice assigns every layer to segment 0.
	SegmentOf []int

	// SegBits holds the size in bits of each probabilistic segment; each
	// must be a positive multiple of 64.
	SegBits []uint64

	// Exact declares an exact bitmap layer at level ΣDeltas.
	Exact bool

	// PermuteWords enables the §3.2 mitigation for degenerate data
	// distributions: each word's bit order is reversed or not depending
	// on a hash of its word-group, which breaks key patterns that would
	// otherwise pile every layer onto the same in-word offset.
	PermuteWords bool

	// MaxScanGroups overrides DefaultMaxScanGroups when > 0.
	MaxScanGroups int
}

// K returns the number of probabilistic layers.
func (c *Config) K() int { return len(c.Deltas) }

// Levels returns ℓ_0..ℓ_k (k+1 values); the last entry is the exact level
// when Exact is set, and otherwise the first discarded level.
func (c *Config) Levels() []int {
	ls := make([]int, len(c.Deltas)+1)
	for i, d := range c.Deltas {
		ls[i+1] = ls[i] + d
	}
	return ls
}

// ExactBits returns the exact bitmap size in bits (0 when Exact is unset).
func (c *Config) ExactBits() uint64 {
	if !c.Exact {
		return 0
	}
	ls := c.Levels()
	return uint64(1) << uint(c.Domain-ls[len(ls)-1])
}

// TotalBits returns the filter's total memory footprint in bits.
func (c *Config) TotalBits() uint64 {
	var t uint64
	for _, s := range c.SegBits {
		t += s
	}
	return t + c.ExactBits()
}

// Validate checks structural invariants and returns a descriptive error for
// the first violation found.
func (c *Config) Validate() error {
	if c.Domain < 1 || c.Domain > 64 {
		return fmt.Errorf("core: domain %d out of range [1,64]", c.Domain)
	}
	k := len(c.Deltas)
	if k == 0 {
		return errors.New("core: need at least one layer")
	}
	sum := 0
	for i, d := range c.Deltas {
		if d < 1 || d > MaxDelta {
			return fmt.Errorf("core: Deltas[%d]=%d out of range [1,%d]", i, d, MaxDelta)
		}
		sum += d
	}
	if sum > c.Domain {
		return fmt.Errorf("core: ΣDeltas=%d exceeds domain %d", sum, c.Domain)
	}
	if c.Exact && c.Domain-sum > 40 {
		return fmt.Errorf("core: exact bitmap of 2^%d bits is unreasonably large", c.Domain-sum)
	}
	if c.Replicas != nil {
		if len(c.Replicas) != k {
			return fmt.Errorf("core: len(Replicas)=%d, want %d", len(c.Replicas), k)
		}
		for i, r := range c.Replicas {
			if r < 1 {
				return fmt.Errorf("core: Replicas[%d]=%d, want ≥1", i, r)
			}
		}
	}
	if len(c.SegBits) == 0 {
		return errors.New("core: need at least one segment")
	}
	for s, b := range c.SegBits {
		if b == 0 || b%64 != 0 {
			return fmt.Errorf("core: SegBits[%d]=%d must be a positive multiple of 64", s, b)
		}
	}
	if c.SegmentOf != nil {
		if len(c.SegmentOf) != k {
			return fmt.Errorf("core: len(SegmentOf)=%d, want %d", len(c.SegmentOf), k)
		}
		for i, s := range c.SegmentOf {
			if s < 0 || s >= len(c.SegBits) {
				return fmt.Errorf("core: SegmentOf[%d]=%d out of range [0,%d)", i, s, len(c.SegBits))
			}
		}
	} else if len(c.SegBits) != 1 {
		return errors.New("core: SegmentOf required with multiple segments")
	}
	// The exact bitmap caps the levels the probabilistic segments leave
	// saturated, so it may not dwarf them. The advisor keeps it below 0.6 of
	// the total budget (2^(d−ℓ) < 0.6·m), i.e. at most 1.5× the segments;
	// 2× leaves room for rounding without refusing any tuned filter.
	var segSum uint64
	for _, b := range c.SegBits {
		if segSum += b; segSum < b {
			segSum = ^uint64(0) // saturate: the bound cannot bind
		}
	}
	if exact := c.ExactBits(); exact/2 > segSum {
		return fmt.Errorf("core: exact bitmap of %d bits exceeds twice the %d probabilistic segment bits", exact, segSum)
	}
	return nil
}

// BasicConfig returns the tuning-free basic bloomRF layout of §3–5: uniform
// Δ = 7 (64-bit words), k = ⌈(d − log2 n)/Δ⌉ layers, a single shared segment
// of n·bitsPerKey bits, one hash function per layer and no exact layer.
// Basic bloomRF is recommended for query ranges up to about 2^14; use Tune
// for larger ranges.
func BasicConfig(n uint64, bitsPerKey float64) Config {
	return basicConfigDomain(64, n, bitsPerKey)
}

func basicConfigDomain(d int, n uint64, bitsPerKey float64) Config {
	if n == 0 {
		n = 1
	}
	// k = ⌈(d − log2 n)/Δ⌉ (§3.1), dropping top layers that saturate: a
	// layer at level ℓ is kept only while its 2^(d−ℓ) dyadic intervals
	// stay under 25% expected occupancy (§7 "Memory Management"); this
	// reproduces the paper's k = 6 for n = 2M, d = 64, Δ = 7 and k = 4 for
	// the introductory n = 3, d = 16, Δ = 4 example.
	k := 0
	for lvl := 0; lvl+MaxDelta <= d; lvl += MaxDelta {
		room := d - lvl - 2
		if room < 64 && n >= uint64(1)<<uint(room) {
			break
		}
		k++
	}
	if k < 1 {
		k = 1
	}
	m := uint64(float64(n) * bitsPerKey)
	if m < 64 {
		m = 64
	}
	m = (m + 63) &^ 63
	deltas := make([]int, k)
	for i := range deltas {
		deltas[i] = MaxDelta
	}
	return Config{
		Domain:  d,
		Deltas:  deltas,
		SegBits: []uint64{m},
	}
}
