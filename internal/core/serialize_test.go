package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"testing/iotest"
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

// streamFamilies returns one filter of every layout family the range-plan
// tests cover, a filter whose words are mapped (1 MiB and more, many
// chunks) and a tuned filter with several segments and an exact bitmap.
func streamFamilies(t *testing.T) []*Filter {
	t.Helper()
	var fs []*Filter
	for _, fam := range planFamilies(t) {
		fs = append(fs, fam.same[0])
	}
	big := NewBasic(1<<19, 16)
	for i := uint64(0); i < 1<<16; i++ {
		big.Insert(i * 0x9e3779b97f4a7c15)
	}
	if big.SizeBits()/8 < mapMinBytes {
		t.Fatalf("the large filter (%d bytes) is not mapped", big.SizeBits()/8)
	}
	tuned, _, err := NewTuned(TuneOptions{N: 50_000, BitsPerKey: 16, MaxRange: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	for i := 0; i < 50_000; i++ {
		tuned.Insert(rng.Uint64())
	}
	return append(fs, big, tuned, goldenFilter())
}

// TestWriteToMatchesMarshalBinary pins that the streamed bytes are the
// MarshalBinary bytes, for every layout family and the golden blob, and
// that ReadFilter restores them, fed a byte at a time or in odd pieces.
func TestWriteToMatchesMarshalBinary(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	if _, err := goldenFilter().WriteTo(&streamed); err != nil || !bytes.Equal(streamed.Bytes(), golden) {
		t.Fatalf("the golden filter streams other bytes than the golden blob (err %v)", err)
	}
	for i, f := range streamFamilies(t) {
		want, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		n, err := f.WriteTo(&buf)
		if err != nil || n != int64(len(want)) {
			t.Fatalf("family %d: WriteTo wrote %d bytes, err %v; MarshalBinary has %d", i, n, err, len(want))
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("family %d: WriteTo bytes differ from MarshalBinary", i)
		}
		for _, r := range []io.Reader{iotest.OneByteReader(bytes.NewReader(want)), iotest.HalfReader(bytes.NewReader(want))} {
			g, err := ReadFilter(r, int64(len(want)))
			if err != nil {
				t.Fatalf("family %d: ReadFilter: %v", i, err)
			}
			if got, _ := g.MarshalBinary(); !bytes.Equal(got, want) {
				t.Fatalf("family %d: ReadFilter did not restore the same bytes", i)
			}
		}
	}
}

// TestReadFilterRejectsDamage feeds ReadFilter blobs cut short at every
// part of the format, bit-flipped, lengthened, or announced at the wrong
// size: each must fail with ErrCorrupt, whatever the reader's piece size.
func TestReadFilterRejectsDamage(t *testing.T) {
	f, _, err := NewTuned(TuneOptions{N: 20_000, BitsPerKey: 16, MaxRange: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20_000; i++ {
		f.Insert(i * 7919)
	}
	blob, _ := f.MarshalBinary()
	check := func(what string, data []byte, size int64) {
		t.Helper()
		for _, r := range []io.Reader{bytes.NewReader(data), iotest.HalfReader(bytes.NewReader(data))} {
			if _, err := ReadFilter(r, size); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: ReadFilter error %v, want ErrCorrupt", what, err)
			}
		}
	}
	for _, cut := range []int{0, 3, 8, 20, 100, len(blob) / 3, len(blob) - 9, len(blob) - 1} {
		check(fmt.Sprintf("cut at %d, announced whole", cut), blob[:cut], int64(len(blob)))
		check(fmt.Sprintf("cut at %d, announced cut", cut), blob[:cut], int64(cut))
	}
	for _, at := range []int{5, 30, len(blob) / 2, len(blob) - 3} {
		c := append([]byte(nil), blob...)
		c[at] ^= 0x10
		check(fmt.Sprintf("bit flip at %d", at), c, int64(len(c)))
	}
	long := append(append([]byte(nil), blob...), 0)
	check("one byte past the end, announced whole", long, int64(len(blob)))
	check("one byte past the end, announced long", long, int64(len(long)))
	check("announced huge", blob, 1<<50)
}

// TestWriteToReportsWriteErrors pins that a failing writer stops the
// stream and surfaces its error.
func TestWriteToReportsWriteErrors(t *testing.T) {
	f := NewBasic(1<<17, 16)
	boom := errors.New("disk full")
	w := &failAfter{n: 100 << 10, err: boom}
	if _, err := f.WriteTo(w); !errors.Is(err, boom) {
		t.Fatalf("WriteTo error %v, want %v", err, boom)
	}
}

type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return w.n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestStreamHoldsNoFilterCopy pins that neither direction of the stream
// holds a copy of the filter on the Go heap: a mapped 2 MiB filter writes
// through one 64 KiB chunk and reads back through one more.
func TestStreamHoldsNoFilterCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on the measured path; run without -race")
	}
	f := NewBasic(1<<20, 16)
	var blob bytes.Buffer
	if _, err := f.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	data := blob.Bytes()
	heapBytes := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if got := heapBytes(func() { f.WriteTo(io.Discard) }); got > 2*serChunkBytes {
		t.Errorf("WriteTo of a %d-byte filter allocated %d bytes", len(data), got)
	}
	if got := heapBytes(func() { ReadFilter(bytes.NewReader(data), int64(len(data))) }); got > 2*serChunkBytes {
		t.Errorf("ReadFilter of a %d-byte filter allocated %d bytes", len(data), got)
	}
}
