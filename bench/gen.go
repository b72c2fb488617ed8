package main

import "math"

// Every key, range and request the benchmark sends is a pure function of
// (seed, stream, index) through splitmix64: the same seed gives the same
// inputs, and no key set is ever stored — a check for "was key i loaded"
// regenerates key i instead of looking it up.

const golden = 0x9e3779b97f4a7c15

func splitmix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Streams keep the draws made for different purposes independent.
const (
	streamPreload    uint64 = iota + 1 // keys loaded before traffic starts
	streamInsert                       // fresh keys inserted by traffic
	streamTail                         // keys inserted just before the crash
	streamAbsent                       // absent keys mixed into query batches
	streamKind                         // insert-or-query choice per request
	streamPick                         // which loaded key a present item targets
	streamHalf                         // present-or-absent choice per item
	streamWidth                        // range widths
	streamOffset                       // how far below its key an anchored range starts
	streamEmpty                        // start of ranges anchored at no key
	streamProbePoint                   // post-run point false-positive probes
	streamProbeRange                   // post-run range false-positive probes
)

// gen draws the benchmark's inputs for one seed.
type gen struct{ seed uint64 }

// draw returns element i of stream s: splitmix64's sequence, started at a
// per-(seed, stream) offset and indexed directly.
func (g gen) draw(s, i uint64) uint64 {
	return splitmix64(splitmix64(g.seed^splitmix64(s)) + i*golden)
}

// width returns the width of range i, log-uniform in [2, 2^14].
func (g gen) width(i uint64) uint64 {
	u := float64(g.draw(streamWidth, i)>>11) / (1 << 53)
	return uint64(math.Exp2(1 + 13*u))
}

// anchored returns range i of the given width placed so that it holds key k.
func (g gen) anchored(i, k, w uint64) [2]uint64 {
	off := g.draw(streamOffset, i) % w
	lo := uint64(0)
	if off <= k {
		lo = k - off
	}
	return window(lo, w)
}

// empty returns range i of stream s with the given width, anchored at a
// uniform point of the key space. With at most a few million keys among
// 2^64, such a range holds a key with probability below 2^-30.
func (g gen) empty(s, i, w uint64) [2]uint64 {
	return window(g.draw(s, i), w)
}

// window returns [lo, lo+w-1], shifted down if it would pass the top of the
// key space.
func window(lo, w uint64) [2]uint64 {
	if lo > math.MaxUint64-(w-1) {
		lo = math.MaxUint64 - (w - 1)
	}
	return [2]uint64{lo, lo + w - 1}
}
