package core

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"
)

// bitArray is a fixed-size bit array backed by uint64 storage. Writers use
// atomic OR and readers atomic loads, so concurrent inserts and probes are
// race-free without locking — bloomRF is an online, parallel structure
// (paper §1 contribution (a), evaluated in Experiment 4).
//
// The words of a large filter live in a mapping outside the Go heap
// (newBitArrays). A pointer into the mapping keeps nothing alive, so every
// copy of the array carries owner, and the mapping is released only once
// no owner is reachable. A method that loads words through a bare slice
// must keep its filter reachable until the last load: every exported
// Filter method that touches words ends in runtime.KeepAlive, or hands the
// work to one that does.
type bitArray struct {
	words []uint64
	owner *wordMapping // nil for words on the Go heap
}

// mapMinBytes is the smallest filter, in bytes of words, whose words are
// mapped outside the Go heap. The collector sizes its heap target at twice
// the live heap, so a filter that dominates the live heap costs its own size
// again in headroom; off the heap it costs nothing. Below the constant a
// filter keeps heap slices: a mapping is a system call and a kernel memory
// area per filter, and the cache-resident shards (64 KiB) and LSM filter
// blocks (tens of KiB) stay counted in the heap numbers that report them.
const mapMinBytes = 1 << 20

// wordMapping owns one mapping of filter words. Its cleanup, registered by
// mapWords, unmaps mem once the owner is unreachable; the owner holds mem
// so that it is never a tiny pointer-free object, which the runtime may
// batch with others and never clean up.
type wordMapping struct {
	mem []byte
}

// mappedBytes is the size of every live mapping of filter words.
var mappedBytes atomic.Int64

// MappedBytes returns the bytes of filter words currently mapped outside
// the Go heap. A dropped filter's mapping counts until the collector has
// found it unreachable.
func MappedBytes() int64 { return mappedBytes.Load() }

// newBitArrays returns one zeroed bit array per entry of nbits. When they
// total mapMinBytes or more they are carved from one mapping (mapWords);
// otherwise, or where mapping is unavailable or fails, each gets its own
// heap slice.
func newBitArrays(nbits []uint64) []bitArray {
	arrs := make([]bitArray, len(nbits))
	var total uint64
	for _, b := range nbits {
		total += (b + 63) / 64
	}
	var words []uint64
	var owner *wordMapping
	if total*8 >= mapMinBytes {
		words, owner = mapWords(total)
	}
	for i, b := range nbits {
		n := (b + 63) / 64
		if owner == nil {
			arrs[i].words = make([]uint64, n)
			continue
		}
		arrs[i] = bitArray{words: words[:n:n], owner: owner}
		words = words[n:]
	}
	return arrs
}

// setBit atomically sets the bit at pos.
func (b *bitArray) setBit(pos uint64) {
	atomic.OrUint64(&b.words[pos>>6], 1<<(pos&63))
}

// getBit reports whether the bit at pos is set.
func (b *bitArray) getBit(pos uint64) bool {
	return atomic.LoadUint64(&b.words[pos>>6])&(1<<(pos&63)) != 0
}

// loadWord returns the whole storage word containing bit position pos. The
// batch probe path gathers one word per pending probe through it in a tight
// load-only loop: the loads carry no dependencies on each other, so the
// memory system overlaps their cache misses (getBit's load+test per call
// hides that parallelism behind the branch on each result).
func (b *bitArray) loadWord(pos uint64) uint64 {
	return atomic.LoadUint64(&b.words[pos>>6])
}

// loadSub extracts a wbits-wide sub-word starting at the aligned bit
// position pos (pos must be a multiple of wbits, wbits a power of two ≤ 64),
// so a filter word never straddles two storage words.
func (b *bitArray) loadSub(pos uint64, wbits uint) uint64 {
	w := atomic.LoadUint64(&b.words[pos>>6])
	if wbits == 64 {
		return w
	}
	return (w >> (pos & 63)) & ((1 << wbits) - 1)
}

// anySet reports whether any bit in the inclusive bit range [lo, hi] is set.
// It scans whole storage words between the masked boundary words.
func (b *bitArray) anySet(lo, hi uint64) bool {
	wl, wh := lo>>6, hi>>6
	maskLo := ^uint64(0) << (lo & 63)
	maskHi := ^uint64(0) >> (63 - hi&63)
	if wl == wh {
		return atomic.LoadUint64(&b.words[wl])&maskLo&maskHi != 0
	}
	if atomic.LoadUint64(&b.words[wl])&maskLo != 0 {
		return true
	}
	for w := wl + 1; w < wh; w++ {
		if atomic.LoadUint64(&b.words[w]) != 0 {
			return true
		}
	}
	return atomic.LoadUint64(&b.words[wh])&maskHi != 0
}

// onesCount returns the number of set bits.
func (b *bitArray) onesCount() uint64 {
	var c uint64
	for i := range b.words {
		c += uint64(bits.OnesCount64(b.words[i]))
	}
	return c
}

// size returns the capacity in bits.
func (b *bitArray) size() uint64 { return uint64(len(b.words)) * 64 }

// snapshot returns a copy of the raw storage words (for scatter analysis).
func (b *bitArray) snapshot() []uint64 {
	out := make([]uint64, len(b.words))
	for i := range b.words {
		out[i] = atomic.LoadUint64(&b.words[i])
	}
	return out
}

// appendWords appends the storage words [from, to) to buf, little endian,
// each read with one atomic load: serialization copies the words once, into
// buf.
func (b *bitArray) appendWords(buf []byte, from, to int) []byte {
	for i := from; i < to; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, atomic.LoadUint64(&b.words[i]))
	}
	return buf
}

// lowMask returns a mask of the low n bits, handling n ≥ 64.
func lowMask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << n) - 1
}

// rsh is x >> n with n possibly ≥ 64 (Go already defines this as 0 for
// uint64, the helper exists to make call sites self-documenting).
func rsh(x uint64, n uint) uint64 {
	if n >= 64 {
		return 0
	}
	return x >> n
}
