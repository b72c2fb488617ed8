package hashutil

import (
	"testing"
	"testing/quick"
)

func TestMix64Bijective(t *testing.T) {
	// A mixer must not collide on a modest sample; being a bijection it
	// cannot collide at all, so any collision is a bug.
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: Mix64(%d) == Mix64(%d) == %#x", i, prev, h)
		}
		seen[h] = i
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	const trials = 1000
	totalFlips := 0
	for i := 0; i < trials; i++ {
		x := Mix64(uint64(i) * 0x9e3779b97f4a7c15)
		bit := uint(i % 64)
		diff := Mix64(x) ^ Mix64(x^(1<<bit))
		for ; diff != 0; diff &= diff - 1 {
			totalFlips++
		}
	}
	avg := float64(totalFlips) / trials
	if avg < 24 || avg > 40 {
		t.Fatalf("poor avalanche: avg %f bit flips, want ~32", avg)
	}
}

func TestHash64SeedIndependence(t *testing.T) {
	x := uint64(42)
	h0, h1 := Hash64(x, 0), Hash64(x, 1)
	if h0 == h1 {
		t.Fatal("different seeds produced the same hash")
	}
}

func TestHashBytesMatchesHashString(t *testing.T) {
	f := func(s string, seed uint64) bool {
		return HashBytes([]byte(s), seed) == HashString(s, seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesHasherMatchesHashBytes(t *testing.T) {
	f := func(b []byte, cut uint, seed uint64) bool {
		i := int(cut % uint(len(b)+1))
		h := NewBytesHasher(seed)
		h.Update(b[:i])
		h.Update(b[i:])
		return h.Sum() == HashBytes(b, seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashBytesDistinguishesInputs(t *testing.T) {
	if HashBytes([]byte("a"), 0) == HashBytes([]byte("b"), 0) {
		t.Fatal("trivial collision")
	}
	if HashBytes([]byte(""), 1) == HashBytes([]byte(""), 2) {
		t.Fatal("seed ignored for empty input")
	}
}

func TestDoubleHasherDeterministic(t *testing.T) {
	f := func(x uint64, i uint8) bool {
		a := NewDoubleHasher(x)
		b := NewDoubleHasher(x)
		return a.At(uint64(i)) == b.At(uint64(i))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleHasherOddStep(t *testing.T) {
	// The step must be odd so probes cover power-of-two tables.
	f := func(x uint64) bool {
		d := NewDoubleHasher(x)
		return (d.At(1)-d.At(0))%2 == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMix64(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += Mix64(uint64(i))
	}
	sink = acc
}

func BenchmarkHashBytes16(b *testing.B) {
	buf := []byte("0123456789abcdef")
	b.SetBytes(int64(len(buf)))
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += HashBytes(buf, uint64(i))
	}
	sink = acc
}

var sink uint64
