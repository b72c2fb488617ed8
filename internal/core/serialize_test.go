package core

import (
	"math/rand"
	"testing"
)

func roundTrip(t *testing.T, f *Filter) *Filter {
	t.Helper()
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	g, err := UnmarshalFilter(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return g
}

func TestSerializeRoundTripBasic(t *testing.T) {
	f := NewBasic(1000, 12)
	rng := rand.New(rand.NewSource(50))
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Insert(keys[i])
	}
	g := roundTrip(t, f)
	for _, k := range keys {
		if !g.MayContain(k) {
			t.Fatalf("deserialized filter lost key %d", k)
		}
	}
	// Identical probe behaviour on arbitrary queries, positive or not.
	for i := 0; i < 5000; i++ {
		y := rng.Uint64()
		if f.MayContain(y) != g.MayContain(y) {
			t.Fatalf("point probe diverges for %d", y)
		}
		lo := rng.Uint64()
		hi := lo + rng.Uint64()%(1<<30)
		if hi < lo {
			hi = ^uint64(0)
		}
		if f.MayContainRange(lo, hi) != g.MayContainRange(lo, hi) {
			t.Fatalf("range probe diverges for [%d,%d]", lo, hi)
		}
	}
}

func TestSerializeRoundTripTuned(t *testing.T) {
	f, _, err := NewTuned(TuneOptions{N: 5000, BitsPerKey: 16, MaxRange: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 5000; i++ {
		f.Insert(rng.Uint64())
	}
	g := roundTrip(t, f)
	if g.SizeBits() != f.SizeBits() {
		t.Errorf("size mismatch: %d vs %d", g.SizeBits(), f.SizeBits())
	}
	if !g.HasExact() {
		t.Error("exact layer lost")
	}
	gs, fs := g.Stats(), f.Stats()
	if gs.SetBits != fs.SetBits || gs.ExactSet != fs.ExactSet {
		t.Errorf("occupancy mismatch: %+v vs %+v", gs, fs)
	}
}

func TestSerializePermuted(t *testing.T) {
	cfg := BasicConfig(500, 12)
	cfg.PermuteWords = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		f.Insert(i * 7919)
	}
	g := roundTrip(t, f)
	for i := uint64(0); i < 500; i++ {
		if !g.MayContain(i * 7919) {
			t.Fatalf("permuted filter lost key %d", i*7919)
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	f := NewBasic(100, 10)
	f.Insert(42)
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"empty":     func(b []byte) []byte { return nil },
		"short":     func(b []byte) []byte { return b[:10] },
		"badmagic":  func(b []byte) []byte { c := append([]byte(nil), b...); c[0] ^= 0xFF; return c },
		"bitflip":   func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)/2] ^= 0x01; return c },
		"truncated": func(b []byte) []byte { return b[:len(b)-9] },
		"extended":  func(b []byte) []byte { return append(append([]byte(nil), b...), 0) },
	}
	for name, mutate := range cases {
		if _, err := UnmarshalFilter(mutate(data)); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestUnmarshalRejectsBadVersion(t *testing.T) {
	f := NewBasic(100, 10)
	data, _ := f.MarshalBinary()
	data[4] = 99 // version byte
	// Recompute nothing: checksum now fails first, which is also fine.
	if _, err := UnmarshalFilter(data); err == nil {
		t.Error("bad version accepted")
	}
}

// TestMarshalOneAlloc pins that marshaling copies the words straight into
// the output buffer: one allocation, whatever the number of segments.
func TestMarshalOneAlloc(t *testing.T) {
	f, _, err := NewTuned(TuneOptions{N: 5000, BitsPerKey: 16, MaxRange: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumSegments() < 2 || !f.HasExact() {
		t.Fatalf("want a filter with several segments and an exact bitmap, got %d segments, exact %v",
			f.NumSegments(), f.HasExact())
	}
	if n := testing.AllocsPerRun(20, func() { f.MarshalBinary() }); n != 1 {
		t.Fatalf("MarshalBinary made %v allocations, want 1", n)
	}
}
