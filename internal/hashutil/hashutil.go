// Package hashutil provides the 64-bit hash primitives shared by all filter
// implementations in this repository: finalizing mixers, seeded hashing of
// integers and byte strings, and Kirsch–Mitzenmacher double hashing used to
// derive k probe positions from two base hashes.
//
// Everything here is deterministic and allocation-free; filters depend on
// that for reproducible false-positive measurements and for serialization
// (a filter rebuilt from its parameters probes the same positions).
package hashutil

// Mix64 is the finalizing mixer of SplitMix64 (Stafford variant 13). It is a
// bijection on uint64 with excellent avalanche behaviour, which makes it a
// good building block for the multiplicative layer hashes of bloomRF and for
// the block hashes of the Bloom-filter baselines.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash64 hashes a 64-bit value with a seed. Distinct seeds yield
// independent-looking hash functions of the same value.
func Hash64(x, seed uint64) uint64 {
	return Mix64(x + seed*0x9e3779b97f4a7c15)
}

// fnv64 constants (FNV-1a).
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// HashBytes hashes a byte string with a seed using FNV-1a followed by a
// finalizing mix. It is used for string keys and for filter-block checksums.
func HashBytes(b []byte, seed uint64) uint64 {
	h := NewBytesHasher(seed)
	h.Update(b)
	return h.Sum()
}

// BytesHasher computes HashBytes over a byte string fed in pieces: after
// Update with each piece in order, Sum equals HashBytes of their
// concatenation under the same seed. Streamed filter blocks checksum
// through it without holding the whole block.
type BytesHasher struct{ h uint64 }

// NewBytesHasher starts a HashBytes computation under seed.
func NewBytesHasher(seed uint64) BytesHasher {
	return BytesHasher{h: uint64(fnvOffset64) ^ Mix64(seed)}
}

// Update feeds the next piece of the byte string.
func (bh *BytesHasher) Update(b []byte) {
	h := bh.h
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	bh.h = h
}

// Sum returns the hash of everything fed so far.
func (bh *BytesHasher) Sum() uint64 { return Mix64(bh.h) }

// HashString is HashBytes for strings without forcing a []byte conversion
// allocation at call sites that only have a string.
func HashString(s string, seed uint64) uint64 {
	h := uint64(fnvOffset64) ^ Mix64(seed)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return Mix64(h)
}

// DoubleHasher derives an arbitrary number of hash values from two base
// hashes using the Kirsch–Mitzenmacher construction
// g_i(x) = h1(x) + i·h2(x), which preserves the asymptotic false-positive
// rate of a Bloom filter while computing only two real hashes per key.
type DoubleHasher struct {
	h1, h2 uint64
}

// NewDoubleHasher seeds a DoubleHasher from a 64-bit key.
func NewDoubleHasher(x uint64) DoubleHasher {
	h := Mix64(x)
	// Derive the second hash from the first; force it odd so successive
	// probes cycle through all residues of a power-of-two table too.
	return DoubleHasher{h1: h, h2: Mix64(h) | 1}
}

// NewDoubleHasherBytes seeds a DoubleHasher from a byte string.
func NewDoubleHasherBytes(b []byte) DoubleHasher {
	h := HashBytes(b, 0)
	return DoubleHasher{h1: h, h2: Mix64(h) | 1}
}

// At returns the i-th derived hash value.
func (d DoubleHasher) At(i uint64) uint64 {
	return d.h1 + i*d.h2
}
