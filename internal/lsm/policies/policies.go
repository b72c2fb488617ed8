// Package policies implements the concrete lsm.FilterPolicy adapters that
// wire every filter of the paper's evaluation — bloomRF, classic Bloom,
// prefix Bloom, fence pointers (zone maps), Rosetta and SuRF — into the
// LSM store's per-SSTable filter blocks. Keeping them out of package lsm
// leaves the engine dependent only on the FilterPolicy interface, so the
// serving layer, harness and tests choose backends by composition.
package policies

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/fence"
	"repro/internal/lsm"
	"repro/internal/rosetta"
	"repro/internal/surf"
)

// ---------------------------------------------------------------- bloomRF

// BloomRF builds tuned bloomRF filters (or basic ones when Basic is
// set). This is the paper's contribution wired into the LSM store.
type BloomRF struct {
	BitsPerKey float64
	MaxRange   float64 // advisor target; 0 = point-tuned
	Basic      bool
}

// Name implements lsm.FilterPolicy.
func (p *BloomRF) Name() string { return "bloomrf" }

// CreateFilter implements lsm.FilterPolicy.
func (p *BloomRF) CreateFilter(keys []uint64) ([]byte, error) {
	n := uint64(len(keys))
	if n == 0 {
		n = 1
	}
	var f *core.Filter
	if p.Basic {
		f = core.NewBasic(n, p.BitsPerKey)
	} else {
		var err error
		f, _, err = core.NewTuned(core.TuneOptions{N: n, BitsPerKey: p.BitsPerKey, MaxRange: p.MaxRange})
		if err != nil {
			return nil, err
		}
	}
	f.InsertBatch(keys)
	return f.MarshalBinary()
}

// NewReader implements lsm.FilterPolicy.
func (p *BloomRF) NewReader(data []byte) (lsm.FilterReader, error) {
	f, err := core.UnmarshalFilter(data)
	if err != nil {
		return nil, err
	}
	return bloomRFReader{f}, nil
}

type bloomRFReader struct{ f *core.Filter }

func (r bloomRFReader) KeyMayMatch(key uint64) bool      { return r.f.MayContain(key) }
func (r bloomRFReader) RangeMayMatch(lo, hi uint64) bool { return r.f.MayContainRange(lo, hi) }

// NewSet implements lsm.SetReader: when every reader in rs is bloomRF,
// they are probed together through one frozen core.FilterSet, so those
// that share a layout share each probe's plan and hashes, and the exact
// layer is one lane word for all of them. A store whose tables mix
// policies asks each reader in turn.
func (r bloomRFReader) NewSet(rs []lsm.FilterReader) lsm.FilterSet {
	fs := make([]*core.Filter, len(rs))
	for j, x := range rs {
		b, ok := x.(bloomRFReader)
		if !ok {
			return lsm.ReaderSet(rs)
		}
		fs[j] = b.f
	}
	return &bloomRFSet{core.NewFrozenFilterSet(fs)}
}

// bloomRFSet is the lsm.FilterSet of bloomRF readers.
type bloomRFSet struct{ core.FilterSet }

func (s *bloomRFSet) KeyMayMatch(key uint64) uint64 { return s.MayContain(key) }

func (s *bloomRFSet) RangeMayMatch(lo, hi uint64) uint64 { return s.MayContainRange(lo, hi) }

// ---------------------------------------------------------------- Bloom

// Bloom is the standard RocksDB full-filter Bloom policy: point filtering
// only; every range probe answers maybe.
type Bloom struct {
	BitsPerKey float64
}

// Name implements lsm.FilterPolicy.
func (p *Bloom) Name() string { return "bloom" }

// CreateFilter implements lsm.FilterPolicy.
func (p *Bloom) CreateFilter(keys []uint64) ([]byte, error) {
	n := uint64(len(keys))
	if n == 0 {
		n = 1
	}
	f := bloom.New(n, p.BitsPerKey)
	for _, k := range keys {
		f.Insert(k)
	}
	return f.MarshalBinary()
}

// NewReader implements lsm.FilterPolicy.
func (p *Bloom) NewReader(data []byte) (lsm.FilterReader, error) {
	f, err := bloom.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return bloomReader{f}, nil
}

type bloomReader struct{ f *bloom.Filter }

func (r bloomReader) KeyMayMatch(key uint64) bool      { return r.f.MayContain(key) }
func (r bloomReader) RangeMayMatch(lo, hi uint64) bool { return true }

// ---------------------------------------------------------------- PrefixBF

// PrefixBloom stores key prefixes at a fixed dyadic level.
type PrefixBloom struct {
	BitsPerKey float64
	Level      uint
}

// Name implements lsm.FilterPolicy.
func (p *PrefixBloom) Name() string { return "prefixbf" }

// CreateFilter implements lsm.FilterPolicy: header (level) + bloom payload
// over prefixes.
func (p *PrefixBloom) CreateFilter(keys []uint64) ([]byte, error) {
	n := uint64(len(keys))
	if n == 0 {
		n = 1
	}
	f := bloom.New(n, p.BitsPerKey)
	for _, k := range keys {
		f.Insert(k >> p.Level)
	}
	payload, err := f.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 1+len(payload))
	out = append(out, byte(p.Level))
	return append(out, payload...), nil
}

// NewReader implements lsm.FilterPolicy.
func (p *PrefixBloom) NewReader(data []byte) (lsm.FilterReader, error) {
	if len(data) < 1 {
		return nil, errors.New("policies: short prefixbf block")
	}
	f, err := bloom.Unmarshal(data[1:])
	if err != nil {
		return nil, err
	}
	return prefixReader{f: f, level: uint(data[0])}, nil
}

type prefixReader struct {
	f     *bloom.Filter
	level uint
}

func (r prefixReader) KeyMayMatch(key uint64) bool { return r.f.MayContain(key >> r.level) }

func (r prefixReader) RangeMayMatch(lo, hi uint64) bool {
	if lo > hi {
		lo, hi = hi, lo
	}
	pl, ph := lo>>r.level, hi>>r.level
	if ph-pl >= 4096 {
		return true
	}
	for p := pl; ; p++ {
		if r.f.MayContain(p) {
			return true
		}
		if p == ph {
			return false
		}
	}
}

// ---------------------------------------------------------------- Fence

// Fence keeps per-zone min/max bounds (zone maps); ZoneSize 0 means a
// single zone per SST (plain per-file fence pointers).
type Fence struct {
	ZoneSize int
}

// Name implements lsm.FilterPolicy.
func (p *Fence) Name() string { return "fence" }

// CreateFilter implements lsm.FilterPolicy.
func (p *Fence) CreateFilter(keys []uint64) ([]byte, error) {
	return fence.Marshal(fence.Build(keys, p.ZoneSize)), nil
}

// NewReader implements lsm.FilterPolicy.
func (p *Fence) NewReader(data []byte) (lsm.FilterReader, error) {
	idx, err := fence.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return fenceReader{idx}, nil
}

type fenceReader struct{ idx *fence.Index }

func (r fenceReader) KeyMayMatch(key uint64) bool      { return r.idx.MayContain(key) }
func (r fenceReader) RangeMayMatch(lo, hi uint64) bool { return r.idx.MayContainRange(lo, hi) }

// ---------------------------------------------------------------- Rosetta

// Rosetta builds Rosetta filters per SST.
type Rosetta struct {
	BitsPerKey float64
	MaxRange   uint64
	Variant    rosetta.Variant
	// MaxProbes bounds per-query doubting work (0 = rosetta default).
	MaxProbes int
}

// Name implements lsm.FilterPolicy.
func (p *Rosetta) Name() string { return "rosetta" }

// CreateFilter implements lsm.FilterPolicy.
func (p *Rosetta) CreateFilter(keys []uint64) ([]byte, error) {
	n := uint64(len(keys))
	if n == 0 {
		n = 1
	}
	f, err := rosetta.New(rosetta.Options{
		N: n, BitsPerKey: p.BitsPerKey, MaxRange: p.MaxRange, Variant: p.Variant,
		MaxProbes: p.MaxProbes,
	})
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		f.Insert(k)
	}
	return f.MarshalBinary()
}

// NewReader implements lsm.FilterPolicy.
func (p *Rosetta) NewReader(data []byte) (lsm.FilterReader, error) {
	f, err := rosetta.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return rosettaReader{f}, nil
}

type rosettaReader struct{ f *rosetta.Filter }

func (r rosettaReader) KeyMayMatch(key uint64) bool      { return r.f.MayContain(key) }
func (r rosettaReader) RangeMayMatch(lo, hi uint64) bool { return r.f.MayContainRange(lo, hi) }

// ---------------------------------------------------------------- SuRF

// SuRF builds SuRF tries per SST (offline, at flush time — which is
// exactly how trie PRFs sidestep their offline limitation inside LSM
// stores, paper Problem 2 discussion).
type SuRF struct {
	BitsPerKey float64
	Suffix     surf.SuffixMode
}

// Name implements lsm.FilterPolicy.
func (p *SuRF) Name() string { return "surf" }

// CreateFilter implements lsm.FilterPolicy.
func (p *SuRF) CreateFilter(keys []uint64) ([]byte, error) {
	sorted := append([]uint64(nil), keys...)
	slices.Sort(sorted)
	enc := make([][]byte, len(sorted))
	for i, k := range sorted {
		enc[i] = surf.EncodeUint64(k)
	}
	f, _, err := surf.BuildBudget(enc, p.BitsPerKey, p.Suffix)
	if err != nil {
		return nil, err
	}
	return f.MarshalBinary()
}

// NewReader implements lsm.FilterPolicy.
func (p *SuRF) NewReader(data []byte) (lsm.FilterReader, error) {
	f, err := surf.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return surfReader{f}, nil
}

type surfReader struct{ f *surf.Filter }

func (r surfReader) KeyMayMatch(key uint64) bool      { return r.f.MayContainUint64(key) }
func (r surfReader) RangeMayMatch(lo, hi uint64) bool { return r.f.MayContainRangeUint64(lo, hi) }

// ---------------------------------------------------------------- registry

// Default returns a registry holding one instance of every policy
// (parameters only matter for CreateFilter; readers are parameter-free).
func Default() lsm.Registry {
	return lsm.Registry{
		"bloomrf":  &BloomRF{BitsPerKey: 16},
		"bloom":    &Bloom{BitsPerKey: 10},
		"prefixbf": &PrefixBloom{BitsPerKey: 10, Level: 16},
		"fence":    &Fence{},
		"rosetta":  &Rosetta{BitsPerKey: 16, MaxRange: 1 << 10},
		"surf":     &SuRF{BitsPerKey: 16},
	}
}

// ForBackend returns a fresh policy for one of the four served backends
// ("bloomrf", "bloom", "rosetta", "surf") with sensible LSM defaults, or
// lsm.ErrUnknownPolicy for anything else. maxRange tunes the range-capable
// backends; 0 picks a 2^10 default matching the paper's Workload E scans.
func ForBackend(backend string, bitsPerKey float64, maxRange uint64) (lsm.FilterPolicy, error) {
	if bitsPerKey <= 0 {
		bitsPerKey = 16
	}
	if maxRange == 0 {
		maxRange = 1 << 10
	}
	switch backend {
	case "bloomrf":
		return &BloomRF{BitsPerKey: bitsPerKey, MaxRange: float64(maxRange)}, nil
	case "bloom":
		return &Bloom{BitsPerKey: bitsPerKey}, nil
	case "rosetta":
		return &Rosetta{BitsPerKey: bitsPerKey, MaxRange: maxRange, Variant: rosetta.VariantF, MaxProbes: 1 << 18}, nil
	case "surf":
		return &SuRF{BitsPerKey: bitsPerKey, Suffix: surf.SuffixReal}, nil
	}
	return nil, fmt.Errorf("%w: %q", lsm.ErrUnknownPolicy, backend)
}
