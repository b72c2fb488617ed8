package core

import (
	"math/rand"
	"os"
	"testing"
	"testing/quick"
)

// paperHash reproduces the worked example of the paper's Figs. 3/4:
// h_i(x) = a_i + b_i·x with a = (7,5,3,2) and b = (41,37,31,29) for layers
// 0..3 (the paper lists them top-down as a_i = 2,3,5,7 / b_i = 29,31,37,41).
func paperHash(layer, _ int, g uint64) uint64 {
	a := [4]uint64{7, 5, 3, 2}
	b := [4]uint64{41, 37, 31, 29}
	return a[layer] + b[layer]*g
}

// paperFilter builds the §3.2 example: d = 16, Δ = 4, k = 4, m = 32 bits.
func paperFilter(t *testing.T) *Filter {
	t.Helper()
	cfg := Config{
		Domain:  16,
		Deltas:  []int{4, 4, 4, 4},
		SegBits: []uint64{64}, // storage is 64-bit granular; words 0..3 of 8 bits cover m=32
	}
	// The example uses m = 32 bits = 4 words of 8 bits. Storage must be a
	// multiple of 64 bits, so we build with 64 bits and restrict the word
	// count per layer to 4 by overriding nwords below.
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f.hashOverride = paperHash
	for i := range f.nwords {
		f.nwords[i] = 4
		f.mods[i] = newModulus(4) // keep the reduction in lockstep with nwords
	}
	return f
}

// TestPaperFig4Codes pins the PMHF codes of Fig. 4: keys 42, 1414, 50000
// map to positions (MH3, MH2, MH1, MH0) = (16,24,10,2), (16,29,0,30),
// (28,27,29,8).
func TestPaperFig4Codes(t *testing.T) {
	f := paperFilter(t)
	want := map[uint64][4]uint64{
		42:    {16, 24, 10, 2},
		1414:  {16, 29, 0, 30},
		50000: {28, 27, 29, 8},
		// Lookup keys from the §3.2 text.
		43: {16, 24, 10, 3},
		48: {16, 24, 11, 8},
	}
	for key, codes := range want {
		for layer := 0; layer < 4; layer++ {
			_, pos := f.layerBit(layer, 0, key)
			if got, want := pos, codes[3-layer]; got != want {
				t.Errorf("key %d layer %d: MH = %d, want %d", key, layer, got, want)
			}
		}
	}
}

// TestPaperFig4BitArray pins the bit-array state after inserting
// X = {42, 1414, 50000}: bits 0,2,8,10,16,24,27,28,29,30 set.
func TestPaperFig4BitArray(t *testing.T) {
	f := paperFilter(t)
	for _, x := range []uint64{42, 1414, 50000} {
		f.Insert(x)
	}
	wantSet := map[uint64]bool{0: true, 2: true, 8: true, 10: true, 16: true, 24: true, 27: true, 28: true, 29: true, 30: true}
	for pos := uint64(0); pos < 32; pos++ {
		if got := f.segs[0].getBit(pos); got != wantSet[pos] {
			t.Errorf("bit %d: got %v, want %v", pos, got, wantSet[pos])
		}
	}
}

// TestPaperFig4RangeExamples pins the §3.2 range probes: [42,43] is
// positive (single word access on layer 0) and [44,47] is negative.
func TestPaperFig4RangeExamples(t *testing.T) {
	f := paperFilter(t)
	for _, x := range []uint64{42, 1414, 50000} {
		f.Insert(x)
	}
	if !f.MayContainRange(42, 43) {
		t.Error("range [42,43] should be (true) positive")
	}
	if f.MayContainRange(44, 47) {
		t.Error("range [44,47] should be negative")
	}
	// §3.2 "Vertical PMHF and error-correction": the DI [416,431] gets a
	// layer-1 hit (bit 2 is set) that layer 2 corrects (bit 25 is clear).
	if f.MayContainRange(416, 431) {
		t.Error("range [416,431] should be negative after error-correction")
	}
}

func TestNoFalseNegativesPoint(t *testing.T) {
	f := NewBasic(1000, 10)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Insert(keys[i])
	}
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("false negative for key %d", k)
		}
	}
}

func TestPointFPRSanity(t *testing.T) {
	const n = 20000
	f := NewBasic(n, 14)
	rng := rand.New(rand.NewSource(2))
	present := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		k := rng.Uint64()
		present[k] = true
		f.Insert(k)
	}
	fp, probes := 0, 0
	for i := 0; i < 50000; i++ {
		y := rng.Uint64()
		if present[y] {
			continue
		}
		probes++
		if f.MayContain(y) {
			fp++
		}
	}
	fpr := float64(fp) / float64(probes)
	if fpr > 0.05 {
		t.Fatalf("point FPR %.4f too high for 14 bits/key", fpr)
	}
}

func TestBasicConfigK(t *testing.T) {
	// Paper §3.2 "Random Scatter": 2M keys, d = 64, Δ = 7 ⇒ k = 6.
	cfg := BasicConfig(2_000_000, 10)
	if got := cfg.K(); got != 6 {
		t.Errorf("k = %d for 2M keys, want 6 (paper §3.2 Random Scatter)", got)
	}
	cfg50 := BasicConfig(50_000_000, 14)
	if got := cfg50.K(); got != 6 {
		t.Errorf("k = %d for 50M keys, want 6", got)
	}
	// n = 3, d = 16, Δ = 4 ⇒ k = 4 (paper §3.1 introductory example).
	cfg2 := basicConfigDomain(16, 3, 10)
	cfg2.Deltas = []int{4, 4, 4, 4}
	if err := cfg2.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Domain: 0, Deltas: []int{7}, SegBits: []uint64{64}},
		{Domain: 64, Deltas: nil, SegBits: []uint64{64}},
		{Domain: 64, Deltas: []int{8}, SegBits: []uint64{64}},
		{Domain: 64, Deltas: []int{0}, SegBits: []uint64{64}},
		{Domain: 16, Deltas: []int{7, 7, 7}, SegBits: []uint64{64}},                                             // ΣΔ > d
		{Domain: 64, Deltas: []int{7}, SegBits: []uint64{63}},                                                   // not mult of 64
		{Domain: 64, Deltas: []int{7}, SegBits: []uint64{64}, Replicas: []int{0}},                               // r < 1
		{Domain: 64, Deltas: []int{7}, SegBits: []uint64{64, 64}},                                               // missing SegmentOf
		{Domain: 64, Deltas: []int{7}, SegBits: []uint64{64, 64}, SegmentOf: []int{2}},                          // seg out of range
		{Domain: 64, Deltas: []int{7, 7}, SegBits: []uint64{64}, SegmentOf: []int{0}},                           // len mismatch
		{Domain: 64, Deltas: []int{7, 7}, SegBits: []uint64{64}, Replicas: []int{1}},                            // len mismatch
		{Domain: 64, Deltas: []int{1}, SegBits: []uint64{64}, Exact: true},                                      // exact bitmap 2^63
		{Domain: 64, Deltas: []int{7}, SegBits: []uint64{0}},                                                    // zero segment
		{Domain: 65, Deltas: []int{7}, SegBits: []uint64{64}},                                                   // domain too big
		{Domain: 64, Deltas: []int{7, 7}, SegBits: []uint64{64, 64}, SegmentOf: []int{0, -1}},                   // negative seg
		{Domain: 64, Deltas: []int{7, 7}, SegBits: []uint64{64}, SegmentOf: []int{0, 0}, Replicas: []int{1, 0}}, // r<1
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
	}
	good := Config{Domain: 64, Deltas: []int{7, 7, 4, 2}, SegBits: []uint64{4096, 1024},
		SegmentOf: []int{0, 0, 1, 1}, Replicas: []int{1, 1, 1, 2}}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if got, want := good.TotalBits(), uint64(5120); got != want {
		t.Errorf("TotalBits = %d, want %d", got, want)
	}
}

// TestConfigValidateExactBound pins the exact-bitmap bound: at most twice
// the probabilistic segments. It refuses the 2^39-bit layout that once ran
// the test process out of memory, while every constructor's layout and the
// golden blob still validate.
func TestConfigValidateExactBound(t *testing.T) {
	huge := Config{Domain: 64, Deltas: []int{7, 6, 7, 5}, Replicas: []int{2, 1, 1, 2},
		SegmentOf: []int{0, 0, 1, 1}, SegBits: []uint64{1 << 17, 1 << 15}, Exact: true}
	if err := huge.Validate(); err == nil {
		t.Errorf("2^%d-bit exact bitmap over %d segment bits accepted", 64-25, huge.TotalBits()-huge.ExactBits())
	}
	// The boundary: an exact bitmap of exactly 2·ΣSegBits passes, one level
	// lower (twice the bitmap) does not.
	edge := Config{Domain: 24, Deltas: []int{7, 7}, SegBits: []uint64{512}, Exact: true}
	if err := edge.Validate(); err != nil {
		t.Errorf("exact 2^10 over 512 segment bits refused: %v", err)
	}
	edge.Domain = 25
	if err := edge.Validate(); err == nil {
		t.Error("exact 2^11 over 512 segment bits accepted")
	}

	for _, n := range []uint64{1 << 6, 1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 24, 1 << 28} {
		for _, bpk := range []float64{2, 8, 10, 14, 16, 22} {
			for _, r := range []float64{0, 64, 1 << 14, 1e9, 1 << 40} {
				rep, err := Tune(TuneOptions{N: n, BitsPerKey: bpk, MaxRange: r})
				if err != nil {
					t.Fatalf("Tune(n=%d, bpk=%g, R=%g): %v", n, bpk, r, err)
				}
				cfg := rep.Config
				if err := cfg.Validate(); err != nil {
					t.Errorf("Tune(n=%d, bpk=%g, R=%g) layout refused: %v", n, bpk, r, err)
				}
				if float64(cfg.ExactBits()) >= 0.6*float64(cfg.TotalBits()) {
					t.Errorf("Tune(n=%d, bpk=%g, R=%g): exact %d of %d total bits breaks the advisor's 0.6·m rule",
						n, bpk, r, cfg.ExactBits(), cfg.TotalBits())
				}
			}
		}
	}
	if _, _, err := NewTuned(TuneOptions{N: 20_000, BitsPerKey: 16, MaxRange: 1e9}); err != nil {
		t.Errorf("NewTuned: %v", err)
	}
	if err := NewBasic(20_000, 14).cfg.Validate(); err != nil {
		t.Errorf("NewBasic layout refused: %v", err)
	}
	if _, err := NewMultiAttr(MultiAttrOptions{N: 50_000, BitsPerKey: 20}); err != nil {
		t.Errorf("NewMultiAttr: %v", err)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalFilter(golden); err != nil {
		t.Errorf("golden blob no longer restores: %v", err)
	}
}

func TestLevels(t *testing.T) {
	cfg := Config{Domain: 64, Deltas: []int{7, 7, 7, 7, 4, 2, 2}, SegBits: []uint64{64}}
	want := []int{0, 7, 14, 21, 28, 32, 34, 36}
	got := cfg.Levels()
	if len(got) != len(want) {
		t.Fatalf("levels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("levels = %v, want %v", got, want)
		}
	}
}

// TestPointEqualsDegenerateRange: MayContainRange(x,x) must agree with
// MayContain(x) — both test the same code bits.
func TestPointEqualsDegenerateRange(t *testing.T) {
	f := NewBasic(500, 12)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		f.Insert(rng.Uint64())
	}
	cfg := &quick.Config{MaxCount: 2000}
	prop := func(x uint64) bool {
		return f.MayContain(x) == f.MayContainRange(x, x)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRangeContainingKeyMonotone: any range around a stored key stays
// positive no matter how it is widened — the true-positive side of
// monotonicity. (Widening an *empty* range may legitimately flip a false
// positive back to negative because the dyadic decomposition changes.)
func TestRangeContainingKeyMonotone(t *testing.T) {
	f := NewBasic(500, 12)
	rng := rand.New(rand.NewSource(4))
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = rng.Uint64() >> 20
		f.Insert(keys[i])
	}
	cfg := &quick.Config{MaxCount: 4000}
	prop := func(i uint16, wl, wr uint32) bool {
		k := keys[int(i)%len(keys)]
		lo := k - min(k, uint64(wl))
		hi := k + min(^uint64(0)-k, uint64(wr))
		return f.MayContainRange(lo, hi)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteWordsStillNoFalseNegatives(t *testing.T) {
	cfg := BasicConfig(2000, 12)
	cfg.PermuteWords = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Insert(keys[i])
	}
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("false negative with PermuteWords for %d", k)
		}
		if !f.MayContainRange(k, k+100) {
			t.Fatalf("range false negative with PermuteWords for %d", k)
		}
	}
}

// TestPermuteWordsBreaksDegenerateDistribution exercises the §3.2
// degenerate-distribution scenario: keys whose offset bits are identical on
// every layer pile onto one in-word offset without permutation.
func TestPermuteWordsBreaksDegenerateDistribution(t *testing.T) {
	degenKeys := func(rng *rand.Rand, n int) []uint64 {
		// Craft keys where bits iΔ..(i+1)Δ−2 hold the same value λ = 5 for
		// every layer (Δ = 7), so every PMHF would use offset 5.
		keys := make([]uint64, n)
		for i := range keys {
			var x uint64
			for layer := 0; layer < 9; layer++ {
				x |= 5 << (layer * 7)
				// Randomize the inter-word bit (position (i+1)Δ−1).
				if rng.Intn(2) == 1 && layer < 9 {
					x |= 1 << (layer*7 + 6)
				}
			}
			keys[i] = x
		}
		return keys
	}
	measureOffsets := func(permute bool) int {
		cfg := BasicConfig(4096, 10)
		cfg.PermuteWords = permute
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		offsets := make(map[uint64]bool)
		for _, k := range degenKeys(rng, 512) {
			f.Insert(k)
			for layer := 0; layer < f.k; layer++ {
				_, pos := f.layerBit(layer, 0, k)
				offsets[pos&63] = true
			}
		}
		return len(offsets)
	}
	plain := measureOffsets(false)
	permuted := measureOffsets(true)
	if plain != 1 {
		t.Fatalf("degenerate keys should collapse to 1 offset without permutation, got %d", plain)
	}
	if permuted < 2 {
		t.Fatalf("permutation should spread offsets, got %d distinct", permuted)
	}
}

func TestStats(t *testing.T) {
	f := NewBasic(100, 10)
	for i := uint64(0); i < 100; i++ {
		f.Insert(i * 977)
	}
	st := f.Stats()
	if st.SetBits == 0 {
		t.Error("no bits set after inserts")
	}
	if st.K != f.K() {
		t.Errorf("Stats.K = %d, want %d", st.K, f.K())
	}
	if st.FillRatios[0] <= 0 || st.FillRatios[0] >= 1 {
		t.Errorf("fill ratio %f out of (0,1)", st.FillRatios[0])
	}
	if f.FillRatio(0) != st.FillRatios[0] {
		t.Error("FillRatio disagrees with Stats")
	}
}

func TestDomainClamp(t *testing.T) {
	cfg := basicConfigDomain(16, 100, 12)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		f.Insert(i * 131)
	}
	// Queries beyond the 16-bit domain must not panic; a lo beyond the
	// domain is definitely empty.
	if f.MayContainRange(1<<20, 1<<21) {
		t.Error("range entirely above domain should be empty")
	}
	if !f.MayContainRange(0, ^uint64(0)) {
		t.Error("full-domain range over a non-empty filter must be positive")
	}
}

func TestLayerWordDeterministic(t *testing.T) {
	f := NewBasic(1000, 10)
	for x := uint64(0); x < 100; x++ {
		if f.LayerWord(0, x) != f.LayerWord(0, x) {
			t.Fatal("LayerWord not deterministic")
		}
	}
}
