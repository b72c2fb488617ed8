package harness

// The paper's end-to-end scenario as a runnable benchmark: the YCSB
// generator drives the LSM store under the core mixes (A–F) plus the
// range-heavy paper mix, once per filter backend, and reports data blocks
// read, false-positive rate on ground-truth-empty queries, and IO saved
// relative to the classic Bloom baseline. TestRunYCSBSmoke runs it at
// smoke scale; BENCH_PR6.json records a full-scale run, and the repo
// benchmark's lsm-empty-scan workload (bench/) measures the same LSM path.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/lsm"
	"repro/internal/lsm/policies"
	"repro/internal/obs"
	"repro/internal/workload"
)

// YCSBBackends are the served filter backends the bench compares, in
// report order.
var YCSBBackends = []string{"bloomrf", "bloom", "rosetta", "surf"}

// YCSBOptions configures a RunYCSB invocation.
type YCSBOptions struct {
	// NumKeys is the loaded dataset size (0 = 200k).
	NumKeys int
	// NumOps is the operation count per mix and backend (0 = 20k).
	NumOps int
	// NumTables is the L0 SSTable count the load is flushed into (0 = 25,
	// the paper's layout).
	NumTables int
	// BitsPerKey is the per-filter space budget (0 = 16).
	BitsPerKey float64
	// MaxRange tunes the range-capable backends (0 = 2^10, the scan span
	// of the range-heavy mix).
	MaxRange uint64
	// Mixes names the workload mixes to run (nil = A, C, E, range).
	Mixes []string
	// Seed makes traces and datasets reproducible (0 = 42).
	Seed int64
	// Dir is the scratch directory for table files (empty = a fresh temp
	// dir, removed afterwards).
	Dir string
}

func (o *YCSBOptions) setDefaults() {
	if o.NumKeys <= 0 {
		o.NumKeys = 200_000
	}
	if o.NumOps <= 0 {
		o.NumOps = 20_000
	}
	if o.NumTables <= 0 {
		o.NumTables = 25
	}
	if o.BitsPerKey <= 0 {
		o.BitsPerKey = 16
	}
	if o.MaxRange == 0 {
		o.MaxRange = 1 << 10
	}
	if len(o.Mixes) == 0 {
		o.Mixes = []string{"A", "C", "E", "range"}
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// YCSBBackendResult is one backend's account of one mix.
type YCSBBackendResult struct {
	Backend string `json:"backend"`
	// DataBlocksRead counts 4 KiB data blocks fetched — the paper's IO
	// currency. Filter and index blocks are excluded (resident).
	DataBlocksRead uint64 `json:"data_blocks_read"`
	BytesRead      uint64 `json:"bytes_read"`
	FilterProbes   uint64 `json:"filter_probes"`
	FilterNegative uint64 `json:"filter_negatives"`
	// EmptyQueries counts ops whose answer is provably empty (point reads
	// of absent keys, scans over key-free ranges).
	EmptyQueries int `json:"empty_queries"`
	// EmptyQueryFalsePositives counts empty queries that still read a data
	// block — a filter false positive observed end to end.
	EmptyQueryFalsePositives int `json:"empty_query_false_positives"`
	// FalsePositiveRate = EmptyQueryFalsePositives / EmptyQueries.
	FalsePositiveRate float64 `json:"false_positive_rate"`
	// IOSavedVsBloomPct is the reduction in data blocks read relative to
	// the classic Bloom baseline on the same mix (positive = fewer reads).
	IOSavedVsBloomPct float64 `json:"io_saved_vs_bloom_pct"`
	// ExecSeconds is wall time plus simulated IO wait (100 µs per block).
	ExecSeconds float64 `json:"exec_seconds"`
	// Phases decomposes the backend's probe cost into the IOStats
	// components — the Fig. 12.G breakdown: where does a query's time go
	// under each filter?
	Phases YCSBPhases `json:"phases"`
	// LatencyP50Us/P99Us/P999Us are per-operation latency percentiles in
	// microseconds (wall time plus that operation's simulated IO wait),
	// bucket-upper-bound estimates from a log-linear histogram.
	LatencyP50Us  float64 `json:"latency_p50_us"`
	LatencyP99Us  float64 `json:"latency_p99_us"`
	LatencyP999Us float64 `json:"latency_p999_us"`
}

// YCSBPhases is one backend's attributed time split: filter probe
// compute, filter-block deserialization, and (simulated) IO wait.
// Fractions are shares of the three components' sum, so they compare
// directly across backends with different absolute costs.
type YCSBPhases struct {
	FilterProbeSeconds  float64 `json:"filter_probe_seconds"`
	DeserializeSeconds  float64 `json:"deserialize_seconds"`
	IOWaitSeconds       float64 `json:"io_wait_seconds"`
	FilterProbeFraction float64 `json:"filter_probe_fraction"`
	DeserializeFraction float64 `json:"deserialize_fraction"`
	IOWaitFraction      float64 `json:"io_wait_fraction"`
}

// ycsbPhases builds the breakdown from an interval IOStats snapshot.
func ycsbPhases(d lsm.Snapshot) YCSBPhases {
	p := YCSBPhases{
		FilterProbeSeconds: d.FilterProbeTime.Seconds(),
		DeserializeSeconds: d.DeserTime.Seconds(),
		IOWaitSeconds:      d.IOWaitTime.Seconds(),
	}
	if sum := p.FilterProbeSeconds + p.DeserializeSeconds + p.IOWaitSeconds; sum > 0 {
		p.FilterProbeFraction = p.FilterProbeSeconds / sum
		p.DeserializeFraction = p.DeserializeSeconds / sum
		p.IOWaitFraction = p.IOWaitSeconds / sum
	}
	return p
}

// YCSBMixResult groups the per-backend results of one mix.
type YCSBMixResult struct {
	Mix      string              `json:"mix"`
	Backends []YCSBBackendResult `json:"backends"`
}

// YCSBReport is the full comparison; its JSON form is the schema of
// BENCH_PR6.json.
type YCSBReport struct {
	NumKeys    int             `json:"num_keys"`
	NumOps     int             `json:"num_ops"`
	NumTables  int             `json:"num_tables"`
	BitsPerKey float64         `json:"bits_per_key"`
	MaxRange   uint64          `json:"max_range"`
	Seed       int64           `json:"seed"`
	Mixes      []YCSBMixResult `json:"mixes"`
}

// Backend returns the result for (mix, backend), or nil.
func (r *YCSBReport) Backend(mix, backend string) *YCSBBackendResult {
	for i := range r.Mixes {
		if r.Mixes[i].Mix != mix {
			continue
		}
		for j := range r.Mixes[i].Backends {
			if r.Mixes[i].Backends[j].Backend == backend {
				return &r.Mixes[i].Backends[j]
			}
		}
	}
	return nil
}

// RunYCSB executes every configured mix against every backend and returns
// the comparison. Each (mix, backend) pair gets a freshly built store and
// the byte-identical operation trace, so backends differ only in their
// filter blocks.
func RunYCSB(opt YCSBOptions) (*YCSBReport, error) {
	opt.setDefaults()
	dir := opt.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "lsm-ycsb-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	report := &YCSBReport{
		NumKeys: opt.NumKeys, NumOps: opt.NumOps, NumTables: opt.NumTables,
		BitsPerKey: opt.BitsPerKey, MaxRange: opt.MaxRange, Seed: opt.Seed,
	}
	for _, mixName := range opt.Mixes {
		mix, err := workload.MixByName(mixName)
		if err != nil {
			return nil, err
		}
		mr := YCSBMixResult{Mix: mixName}
		for _, backend := range YCSBBackends {
			res, err := runYCSBMixBackend(filepath.Join(dir, mixName+"-"+backend), mix, backend, opt)
			if err != nil {
				return nil, fmt.Errorf("ycsb mix %s backend %s: %w", mixName, backend, err)
			}
			mr.Backends = append(mr.Backends, *res)
		}
		// IO saved relative to the Bloom baseline of the same mix.
		var bloomBlocks uint64
		for _, b := range mr.Backends {
			if b.Backend == "bloom" {
				bloomBlocks = b.DataBlocksRead
			}
		}
		for i := range mr.Backends {
			if bloomBlocks > 0 {
				mr.Backends[i].IOSavedVsBloomPct =
					100 * (1 - float64(mr.Backends[i].DataBlocksRead)/float64(bloomBlocks))
			}
		}
		report.Mixes = append(report.Mixes, mr)
	}
	return report, nil
}

// runYCSBMixBackend loads a fresh store under one backend and replays the
// mix's trace against it. Ground-truth emptiness is tracked exactly (a
// sorted shadow of every written key), so the reported FPR is the filter
// stack's, not an estimate — and any false negative (a present key the
// store fails to return) is a hard error.
func runYCSBMixBackend(dir string, mix workload.Mix, backend string, opt YCSBOptions) (*YCSBBackendResult, error) {
	policy, err := policies.ForBackend(backend, opt.BitsPerKey, opt.MaxRange)
	if err != nil {
		return nil, err
	}
	env, err := buildLSM(dir, policy, opt.NumKeys, workload.Uniform, opt.NumTables)
	if err != nil {
		return nil, err
	}
	defer env.close()
	ops := mix.Ops(env.keys, opt.NumOps, opt.Seed)

	written := slices.Clone(env.keys) // sorted; buildLSM loads SortedKeys
	hasKeyIn := func(lo, hi uint64) bool {
		i := sort.Search(len(written), func(i int) bool { return written[i] >= lo })
		return i < len(written) && written[i] <= hi
	}
	addKey := func(k uint64) {
		i := sort.Search(len(written), func(i int) bool { return written[i] >= k })
		if i < len(written) && written[i] == k {
			return
		}
		written = slices.Insert(written, i, k)
	}

	res := &YCSBBackendResult{Backend: backend}
	stats := env.db.Stats()
	value := make([]byte, 16)
	var latHist obs.Hist
	before := stats.Snapshot()
	start := time.Now()
	for _, op := range ops {
		opStart := time.Now()
		ioWait0 := stats.IOWaitNanos.Load()
		switch op.Kind {
		case workload.OpRead, workload.OpReadModifyWrite:
			present := hasKeyIn(op.Key, op.Key)
			b0 := stats.BlockReads.Load()
			_, found, err := env.db.Get(op.Key)
			if err != nil {
				return nil, err
			}
			if present && !found {
				return nil, fmt.Errorf("false negative: key %#x written but not found", op.Key)
			}
			if !present {
				res.EmptyQueries++
				if stats.BlockReads.Load() > b0 {
					res.EmptyQueryFalsePositives++
				}
			}
			if op.Kind == workload.OpReadModifyWrite {
				if err := env.db.Put(op.Key, value); err != nil {
					return nil, err
				}
				addKey(op.Key)
			}
		case workload.OpUpdate:
			if err := env.db.Put(op.Key, value); err != nil {
				return nil, err
			}
			addKey(op.Key)
		case workload.OpInsert:
			if err := env.db.Put(op.Key, value); err != nil {
				return nil, err
			}
			addKey(op.Key)
		case workload.OpScan:
			empty := !hasKeyIn(op.Lo, op.Hi)
			b0 := stats.BlockReads.Load()
			kvs, err := env.db.Scan(op.Lo, op.Hi)
			if err != nil {
				return nil, err
			}
			if !empty && len(kvs) == 0 {
				return nil, fmt.Errorf("false negative: range [%#x,%#x] holds keys but scan was empty", op.Lo, op.Hi)
			}
			if empty {
				res.EmptyQueries++
				if stats.BlockReads.Load() > b0 {
					res.EmptyQueryFalsePositives++
				}
			}
		}
		// Per-op latency: this op's wall time plus the simulated IO wait
		// it incurred (the stats counter only accumulates, never resets).
		latHist.Observe(time.Since(opStart).Nanoseconds() + int64(stats.IOWaitNanos.Load()-ioWait0))
	}
	wall := time.Since(start)
	d := stats.Snapshot().Sub(before)
	res.DataBlocksRead = d.BlockReads
	res.BytesRead = d.BytesRead
	res.FilterProbes = d.FilterProbes
	res.FilterNegative = d.FilterNegatives
	if res.EmptyQueries > 0 {
		res.FalsePositiveRate = float64(res.EmptyQueryFalsePositives) / float64(res.EmptyQueries)
	}
	res.ExecSeconds = (wall + d.IOWaitTime).Seconds()
	res.Phases = ycsbPhases(d)
	lat := latHist.Read()
	res.LatencyP50Us = float64(lat.Quantile(0.50)) / 1e3
	res.LatencyP99Us = float64(lat.Quantile(0.99)) / 1e3
	res.LatencyP999Us = float64(lat.Quantile(0.999)) / 1e3
	return res, nil
}
