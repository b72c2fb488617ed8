package filtertest

import (
	"testing"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/cuckoo"
	"repro/internal/fence"
	"repro/internal/lsm/policies"
	"repro/internal/prefixbf"
	"repro/internal/rosetta"
	"repro/internal/surf"
)

// The conformance suite applied to every filter in the repository. Each
// filter is adapted to the PRF interface the same way the harness adapts
// it for the experiments.

// coreMarshal adapts core.Filter serialization to the suite's PRF hooks.
func coreMarshal(f PRF) ([]byte, error) { return f.(*core.Filter).MarshalBinary() }

func coreUnmarshal(data []byte) (PRF, error) { return core.UnmarshalFilter(data) }

func TestBloomRFBasicConformance(t *testing.T) {
	Run(t, Options{
		Marshal: coreMarshal, Unmarshal: coreUnmarshal,
		Build: func(keys []uint64) PRF {
			f := core.NewBasic(uint64(len(keys)), 16)
			for _, k := range keys {
				f.Insert(k)
			}
			return f
		}})
}

func TestBloomRFTunedConformance(t *testing.T) {
	Run(t, Options{
		Marshal: coreMarshal, Unmarshal: coreUnmarshal,
		Build: func(keys []uint64) PRF {
			f, _, err := core.NewTuned(core.TuneOptions{N: uint64(len(keys)), BitsPerKey: 18, MaxRange: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				f.Insert(k)
			}
			return f
		}})
}

func TestBloomRFPermutedConformance(t *testing.T) {
	Run(t, Options{
		Marshal: coreMarshal, Unmarshal: coreUnmarshal,
		Build: func(keys []uint64) PRF {
			cfg := core.BasicConfig(uint64(len(keys)), 16)
			cfg.PermuteWords = true
			f, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				f.Insert(k)
			}
			return f
		}})
}

func TestBloomRFSerializedConformance(t *testing.T) {
	// The deserialized filter must satisfy the same contract.
	Run(t, Options{Build: func(keys []uint64) PRF {
		f := core.NewBasic(uint64(len(keys)), 16)
		for _, k := range keys {
			f.Insert(k)
		}
		blob, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.UnmarshalFilter(blob)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}})
}

func TestRosettaConformance(t *testing.T) {
	for _, v := range []rosetta.Variant{rosetta.VariantF, rosetta.VariantS, rosetta.VariantO, rosetta.VariantV} {
		t.Run(v.String(), func(t *testing.T) {
			Run(t, Options{
				MaxSpan:   1 << 10, // within the tuned range envelope
				Marshal:   func(f PRF) ([]byte, error) { return f.(*rosetta.Filter).MarshalBinary() },
				Unmarshal: func(data []byte) (PRF, error) { return rosetta.Unmarshal(data) },
				Build: func(keys []uint64) PRF {
					f, err := rosetta.New(rosetta.Options{
						N: uint64(len(keys)), BitsPerKey: 20, MaxRange: 1 << 10, Variant: v,
					})
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range keys {
						f.Insert(k)
					}
					return f
				},
			})
		})
	}
}

type surfAdapter struct{ f *surf.Filter }

func (s surfAdapter) MayContain(x uint64) bool           { return s.f.MayContainUint64(x) }
func (s surfAdapter) MayContainRange(lo, hi uint64) bool { return s.f.MayContainRangeUint64(lo, hi) }

func TestSuRFConformance(t *testing.T) {
	for _, mode := range []surf.SuffixMode{surf.SuffixNone, surf.SuffixHash, surf.SuffixReal} {
		t.Run(mode.String(), func(t *testing.T) {
			Run(t, Options{
				Marshal: func(f PRF) ([]byte, error) { return f.(surfAdapter).f.MarshalBinary() },
				Unmarshal: func(data []byte) (PRF, error) {
					f, err := surf.Unmarshal(data)
					if err != nil {
						return nil, err
					}
					return surfAdapter{f}, nil
				},
				Build: func(keys []uint64) PRF {
					enc := make([][]byte, len(keys))
					for i, k := range keys {
						enc[i] = surf.EncodeUint64(k)
					}
					f, err := surf.Build(enc, surf.Options{Suffix: mode, SuffixBits: 8})
					if err != nil {
						t.Fatal(err)
					}
					return surfAdapter{f}
				}})
		})
	}
}

type pointAdapter struct{ contains func(uint64) bool }

func (p pointAdapter) MayContain(x uint64) bool           { return p.contains(x) }
func (p pointAdapter) MayContainRange(lo, hi uint64) bool { return true }

func TestBloomConformance(t *testing.T) {
	Run(t, Options{PointOnly: true, Build: func(keys []uint64) PRF {
		f := bloom.New(uint64(len(keys)), 12)
		for _, k := range keys {
			f.Insert(k)
		}
		return pointAdapter{f.MayContain}
	}})
}

func TestCuckooConformance(t *testing.T) {
	Run(t, Options{PointOnly: true, Build: func(keys []uint64) PRF {
		f := cuckoo.New(uint64(len(keys)), 12, 0.9)
		for _, k := range keys {
			if !f.Insert(k) {
				t.Fatal("cuckoo overflow")
			}
		}
		return pointAdapter{f.MayContain}
	}})
}

func TestPrefixBFConformance(t *testing.T) {
	Run(t, Options{Build: func(keys []uint64) PRF {
		f := prefixbf.New(uint64(len(keys)), 14, 20, 0)
		for _, k := range keys {
			f.Insert(k)
		}
		return f
	}})
}

func TestFenceConformance(t *testing.T) {
	// Zone maps over sparse random keys answer almost every point probe
	// with maybe — the paper's argument for why min/max indices are
	// impractical as point filters — so the FPR ceiling is lifted.
	Run(t, Options{MaxPointFPR: 1.0, Build: func(keys []uint64) PRF {
		return fence.Build(keys, 64)
	}})
}

// TestLSMBackendConformance drives the LSM suite over every filter backend
// the LSM store takes: the four policies policies.ForBackend builds for the
// paper's comparison in the bench harness. The
// store's answers must be exact — zero false negatives through the full
// SSTable read path, zero invented keys — whichever filter sits in the
// filter block; the per-backend FP rates land in the test log.
func TestLSMBackendConformance(t *testing.T) {
	for _, backend := range []string{"bloomrf", "bloom", "rosetta", "surf"} {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			pol, err := policies.ForBackend(backend, 16, 1<<10)
			if err != nil {
				t.Fatal(err)
			}
			RunLSM(t, LSMOptions{Policy: pol})
		})
	}
}
