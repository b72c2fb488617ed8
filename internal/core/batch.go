package core

import (
	"math/bits"
	"runtime"

	"repro/internal/hashutil"
)

// Batch variants of the filter's hot paths. They return exactly the same
// answers as the corresponding single-key calls — same hash positions, same
// probe order semantics. InsertBatch and MayContainBatch run layer-major
// instead of key-major: per-layer constants (level, word shift, segment,
// seed, modulus) are loaded once per layer instead of once per key, probes
// against one layer's words stay adjacent in time, and the h mod words
// reduction uses a precomputed 128-bit reciprocal (Lemire's fastmod)
// instead of a hardware division. MayContainRangeBatch is a plain loop —
// range decomposition is already O(k) per query and offers no cross-key
// work to amortize. None of the batch calls allocate.

// modulus precomputes the 128-bit reciprocal for fast exact reduction
// h mod d ("Faster Remainder by Direct Computation", Lemire et al.):
// M = ⌊(2¹²⁸−1)/d⌋ + 1, then h mod d = ⌊((M·h) mod 2¹²⁸) · d / 2¹²⁸⌋.
// The two 64×64→128 multiplies replace a ~30-cycle hardware division on the
// per-probe path.
type modulus struct {
	hi, lo uint64 // M, big-endian halves
	d      uint64
}

func newModulus(d uint64) modulus {
	if d <= 1 {
		return modulus{d: d}
	}
	qHi, r := bits.Div64(0, ^uint64(0), d)
	qLo, _ := bits.Div64(r, ^uint64(0), d)
	lo, carry := bits.Add64(qLo, 1, 0)
	return modulus{hi: qHi + carry, lo: lo, d: d}
}

// mod returns h % m.d.
func (m modulus) mod(h uint64) uint64 {
	if m.d <= 1 {
		return 0
	}
	// lowbits = (M · h) mod 2¹²⁸
	h1, l1 := bits.Mul64(m.lo, h)
	lowHi := m.hi*h + h1
	// result = ⌊(lowHi:l1) · d / 2¹²⁸⌋
	t1, _ := bits.Mul64(l1, m.d)
	t2hi, t2lo := bits.Mul64(lowHi, m.d)
	_, carry := bits.Add64(t1, t2lo, 0)
	return t2hi + carry
}

// batchBlock is the number of keys processed per layer-major block: the
// block's keys (4 KiB) plus the survivor index, probe-position and loaded-
// word buffers (another ~10 KiB) stay resident in L1 across all layer
// passes, so the only cache-unfriendly accesses are the filter probes
// themselves — the same set of probes the single-key path makes, but
// issued as runs of independent loads (see loadWord) that span whole
// cache-line groups instead of one dependent word at a time.
const batchBlock = 512

// InsertBatch adds every key in keys. It is equivalent to calling Insert on
// each key but runs layer-major over L1-sized blocks, amortizing per-layer
// setup and replacing the hash-to-word division with the precomputed
// reciprocal. Each (layer, replica) pass is itself split into two phases —
// compute every key's bit position into an L1-resident buffer, then issue
// the atomic ORs back to back — so the stores to scattered filter words
// overlap in the memory system instead of each waiting behind the next
// key's hash chain. Safe for concurrent use, like Insert.
func (f *Filter) InsertBatch(keys []uint64) {
	if len(keys) == 0 {
		return
	}
	if f.hashOverride != nil {
		for _, x := range keys {
			f.Insert(x)
		}
		return
	}
	var pos [batchBlock]uint64 // per-pass bit positions, computed ahead
	for base := 0; base < len(keys); base += batchBlock {
		blk := keys[base:min(base+batchBlock, len(keys))]
		for i := 0; i < f.k; i++ {
			lvl := f.levels[i]
			ws := f.wshift[i]
			mask := lowMask(ws)
			seg := &f.segs[f.segID[i]]
			m := f.mods[i]
			permSeed := uint64(i) | 0x0e7a<<48
			for r := 0; r < f.replicas[i]; r++ {
				seed := f.seeds[i][r]
				if f.permute {
					for t, x := range blk {
						prefix := x >> lvl
						off := prefix & mask
						if hashutil.Hash64(prefix, permSeed)&1 == 1 {
							off = mask - off
						}
						pos[t] = m.mod(hashutil.Hash64(prefix>>ws, seed))<<ws + off
					}
				} else {
					for t, x := range blk {
						prefix := x >> lvl
						pos[t] = m.mod(hashutil.Hash64(prefix>>ws, seed))<<ws + prefix&mask
					}
				}
				for _, p := range pos[:len(blk)] {
					seg.setBit(p)
				}
			}
		}
		if f.hasExact {
			el := f.exactLevel
			for t, x := range blk {
				pos[t] = rsh(x, el)
			}
			for _, p := range pos[:len(blk)] {
				f.exact.setBit(p)
			}
		}
	}
	runtime.KeepAlive(f) // the words' owner (bitArray)
}

// MayContainBatch tests every key in keys and stores the verdicts in out,
// which must have the same length as keys (it panics otherwise). out[j] is
// exactly MayContain(keys[j]): false is definitive, true holds with
// probability 1 − FPR.
//
// The batch runs layer-major over L1-sized blocks, top-down: the exact
// bitmap and sparse upper layers reject most absent keys in the first pass,
// and each subsequent layer iterates a compacted survivor list instead of
// re-scanning the block, so rejected keys cost nothing after rejection —
// the early-exit economics of the single-key path, without its per-key
// call, per-layer setup and hardware-division overheads. Zero allocations;
// safe for concurrent use with Insert.
func (f *Filter) MayContainBatch(keys []uint64, out []bool) {
	if len(out) != len(keys) {
		panic("core: MayContainBatch len(out) != len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	if f.hashOverride != nil {
		for j, x := range keys {
			out[j] = f.MayContain(x)
		}
		return
	}
	var idx [batchBlock]int32    // survivor positions within the block
	var pos [batchBlock]uint64   // per-pass probe positions, computed ahead
	var words [batchBlock]uint64 // bulk-loaded storage words, one per probe
	for base := 0; base < len(keys); base += batchBlock {
		blk := keys[base:min(base+batchBlock, len(keys))]
		bout := out[base : base+len(blk)]
		n := 0
		if f.hasExact {
			// The exact bitmap is the largest structure the batch touches,
			// so its probes get the same three-phase treatment as the layer
			// probes below: positions first (pure ALU), then the word loads
			// back to back (independent misses overlap), then the bit tests
			// against L1-resident copies.
			el := f.exactLevel
			for j, x := range blk {
				pos[j] = rsh(x, el)
			}
			for j := range blk {
				words[j] = f.exact.loadWord(pos[j])
			}
			for j := range blk {
				ok := words[j]&(1<<(pos[j]&63)) != 0
				bout[j] = ok
				// Branchless append: the store is unconditional, the
				// cursor advances only for survivors, so the ~random
				// hit/miss outcome never mispredicts.
				idx[n] = int32(j)
				inc := 0
				if ok {
					inc = 1
				}
				n += inc
			}
		} else {
			for j := range blk {
				bout[j] = true
				idx[j] = int32(j)
			}
			n = len(blk)
		}
		for i := f.k - 1; i >= 0 && n > 0; i-- {
			lvl := f.levels[i]
			ws := f.wshift[i]
			mask := lowMask(ws)
			seg := &f.segs[f.segID[i]]
			m := f.mods[i]
			permSeed := uint64(i) | 0x0e7a<<48
			for r := 0; r < f.replicas[i] && n > 0; r++ {
				seed := f.seeds[i][r]
				// Phase 1: compute every survivor's probe position — a
				// pure ALU loop over L1-resident keys. Phase 2: load the
				// storage word behind every probe back to back — the loads
				// are independent, so their (mostly L2/L3) misses overlap
				// instead of each waiting behind the next key's hash
				// chain, and the next layer's words start arriving while
				// this layer's survivors are still being compacted.
				// Phase 3: test the bits against the L1-resident copies
				// and compact the survivor list.
				if f.permute {
					for t, j := range idx[:n] {
						prefix := blk[j] >> lvl
						off := prefix & mask
						if hashutil.Hash64(prefix, permSeed)&1 == 1 {
							off = mask - off
						}
						pos[t] = m.mod(hashutil.Hash64(prefix>>ws, seed))<<ws + off
					}
				} else {
					for t, j := range idx[:n] {
						prefix := blk[j] >> lvl
						pos[t] = m.mod(hashutil.Hash64(prefix>>ws, seed))<<ws + prefix&mask
					}
				}
				for t := 0; t < n; t++ {
					words[t] = seg.loadWord(pos[t])
				}
				live := 0
				for t, j := range idx[:n] {
					if words[t]&(1<<(pos[t]&63)) != 0 {
						idx[live] = j
						live++
					} else {
						bout[j] = false
					}
				}
				n = live
			}
		}
	}
	runtime.KeepAlive(f)
}

// MayContainRangeBatch tests every [lo, hi] pair in ranges and stores the
// verdicts in out, which must have the same length as ranges (it panics
// otherwise). out[j] is exactly MayContainRange(ranges[j][0], ranges[j][1]).
// Zero allocations; safe for concurrent use with Insert.
func (f *Filter) MayContainRangeBatch(ranges [][2]uint64, out []bool) {
	if len(out) != len(ranges) {
		panic("core: MayContainRangeBatch len(out) != len(ranges)")
	}
	for j, r := range ranges {
		out[j] = f.MayContainRange(r[0], r[1])
	}
}
