package harness

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/lsm"
	"repro/internal/lsm/policies"
	"repro/internal/rosetta"
	"repro/internal/surf"
	"repro/internal/workload"
)

// simulatedReadLatency emulates the disk of the paper's testbed: each 4 KiB
// block read is charged 100 µs of I/O wait (accounted, not slept), so a
// filter's false positives translate into end-to-end latency shape.
const simulatedReadLatency = 100 * time.Microsecond

// lsmEnv is a built LSM store with a sorted shadow of its keys.
type lsmEnv struct {
	db   *lsm.DB
	keys []uint64
	dir  string
}

// buildLSM loads n keys (dist) into a fresh DB under dir, flushed into
// numTables L0 SSTables (paper: 25 per 50M keys).
func buildLSM(dir string, policy lsm.FilterPolicy, n int, dist workload.Distribution, numTables int) (*lsmEnv, error) {
	if numTables < 1 {
		numTables = 25
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	db, err := lsm.Open(lsm.DBOptions{
		Dir: dir, Policy: policy, MemtableBytes: 1 << 62, // manual flushes only
		SimulatedReadLatency: simulatedReadLatency,
	})
	if err != nil {
		return nil, err
	}
	keys := workload.NewGenerator(dist, 1501).SortedKeys(n)
	// Value payloads shrunk to 16 bytes (the paper's 512-byte values only
	// scale I/O volume linearly; 16 keeps experiment disk use sane).
	value := make([]byte, 16)
	per := (n + numTables - 1) / numTables
	for i, k := range keys {
		if err := db.Put(k, value); err != nil {
			db.Close()
			return nil, err
		}
		if (i+1)%per == 0 || i == n-1 {
			if err := db.Flush(); err != nil {
				db.Close()
				return nil, err
			}
		}
	}
	return &lsmEnv{db: db, keys: keys, dir: dir}, nil
}

func (e *lsmEnv) close() {
	e.db.Close()
	os.RemoveAll(e.dir)
}

// lsmReplay is what one pass of operations over an LSM store observed.
type lsmReplay struct {
	// empty counts the ops whose exact answer is empty: an absent key, or
	// a scan over a key-free range.
	empty int
	// emptyRead counts the empty ops that still read a data block, a
	// filter false positive seen end to end.
	emptyRead int
	// io is the store's IO accounting over the pass.
	io lsm.Snapshot
	// exec is wall time plus simulated I/O wait.
	exec time.Duration
}

// fpr is the DB-level false-positive rate: the share of empty ops that
// read a data block.
func (r lsmReplay) fpr() float64 { return float64(r.emptyRead) / float64(r.empty) }

// replay runs ops against the store one at a time and checks each answer
// against exact ground truth, a sorted shadow of every key written so far
// (e.keys, which writes keep current). A read or scan whose answer
// differs from the shadow's, a false negative or an invented key, is a
// hard error.
func (e *lsmEnv) replay(ops []workload.Op) (lsmReplay, error) {
	var r lsmReplay
	if len(ops) == 0 {
		return r, errors.New("harness: empty query stream")
	}
	present := e.groundTruth(ops)
	stats := e.db.Stats()
	value := make([]byte, 16)
	before := stats.Snapshot()
	start := time.Now()
	for i, op := range ops {
		if op.Kind == workload.OpUpdate || op.Kind == workload.OpInsert {
			if err := e.db.Put(op.Key, value); err != nil {
				return r, err
			}
			continue
		}
		blocks := stats.BlockReads.Load()
		var found bool
		if op.Kind == workload.OpScan {
			kvs, err := e.db.Scan(op.Lo, op.Hi)
			if err != nil {
				return r, err
			}
			found = len(kvs) > 0
		} else {
			_, ok, err := e.db.Get(op.Key)
			if err != nil {
				return r, err
			}
			found = ok
		}
		if found != present[i] {
			return r, fmt.Errorf("harness: op %d %+v: store found %v, ground truth %v", i, op, found, present[i])
		}
		if !found {
			r.empty++
			if stats.BlockReads.Load() > blocks {
				r.emptyRead++
			}
		}
		if op.Kind == workload.OpReadModifyWrite {
			if err := e.db.Put(op.Key, value); err != nil {
				return r, err
			}
		}
	}
	wall := time.Since(start)
	r.io = stats.Snapshot().Sub(before)
	r.exec = wall + r.io.IOWaitTime
	return r, nil
}

// groundTruth returns, per op, whether a stored key answers it, and
// applies the ops' writes to the shadow e.keys. It runs before the timed
// loop, so exec time is the store's alone.
func (e *lsmEnv) groundTruth(ops []workload.Op) []bool {
	present := make([]bool, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case workload.OpScan:
			present[i] = e.hasKeyIn(op.Lo, op.Hi)
		case workload.OpRead:
			present[i] = e.hasKeyIn(op.Key, op.Key)
		case workload.OpReadModifyWrite:
			present[i] = e.hasKeyIn(op.Key, op.Key)
			e.add(op.Key)
		default: // OpUpdate, OpInsert
			e.add(op.Key)
		}
	}
	return present
}

func (e *lsmEnv) add(k uint64) {
	if i, ok := slices.BinarySearch(e.keys, k); !ok {
		e.keys = slices.Insert(e.keys, i, k)
	}
}

func (e *lsmEnv) hasKeyIn(lo, hi uint64) bool {
	i, _ := slices.BinarySearch(e.keys, lo)
	return i < len(e.keys) && e.keys[i] <= hi
}

// scans and gets turn generated empty queries into ops for replay.
func scans(qs []workload.RangeQuery) []workload.Op {
	ops := make([]workload.Op, len(qs))
	for i, q := range qs {
		ops[i] = workload.Op{Kind: workload.OpScan, Lo: q.Lo, Hi: q.Hi}
	}
	return ops
}

func gets(keys []uint64) []workload.Op {
	ops := make([]workload.Op, len(keys))
	for i, k := range keys {
		ops[i] = workload.Op{Kind: workload.OpRead, Key: k}
	}
	return ops
}

// fig9Ranges is the Fig. 9 x-axis (2..10^11).
var fig9Ranges = []uint64{2, 16, 64, 1_000, 100_000, 10_000_000, 1_000_000_000, 100_000_000_000}

// rosettaProbeBudget lets doubting mostly complete, reproducing Rosetta's
// exploding probe latency at large ranges rather than degrading its FPR
// (paper §6: logarithmic, sometimes linear, complexity in R).
const rosettaProbeBudget = 1 << 18

// namedPolicy is one filter of an LSM figure.
type namedPolicy struct {
	name   string
	policy lsm.FilterPolicy
}

// lsmPolicies returns the PRF policies of Figs. 9/10 at a budget, each
// tuned for the given target range size — the paper re-tunes every filter
// per experiment point ("Rosetta and bloomRF rely on parameter tuning
// methods that compute the proper filter-configurations, for given space
// budgets, number of keys and range sizes", §9). The order is the order
// the figures print their rows in.
func lsmPolicies(bpk float64, maxRange uint64) []namedPolicy {
	r := maxRange
	if r > 1<<24 {
		r = 1 << 24 // Rosetta level cap; doubting covers the rest linearly
	}
	return []namedPolicy{
		{"bloomRF", &policies.BloomRF{BitsPerKey: bpk, MaxRange: float64(maxRange)}},
		{"rosetta", &policies.Rosetta{BitsPerKey: bpk, MaxRange: r, Variant: rosetta.VariantF, MaxProbes: rosettaProbeBudget}},
		{"surf", &policies.SuRF{BitsPerKey: bpk, Suffix: surf.SuffixReal}},
	}
}

// Fig9 runs Experiment 1: FPR and end-to-end latency across range sizes
// and workload distributions at 22 bits/key in the LSM store, plus the
// point-query FPR panels (A2-C2). Every filter is rebuilt tuned for each
// range size, as in the paper.
func Fig9(s Scale, dir string) ([]*Table, error) {
	rangeTabs := map[workload.Distribution]*Table{}
	pointTabs := map[workload.Distribution]*Table{}
	dists := []workload.Distribution{workload.Uniform, workload.Normal, workload.Zipfian}
	for _, qd := range dists {
		rangeTabs[qd] = &Table{
			Title:   fmt.Sprintf("Fig 9 — LSM, 22 bits/key, %s workload: FPR and exec time vs range size", qd),
			Columns: []string{"range", "filter", "FPR", "exec(s)"},
		}
		pointTabs[qd] = &Table{
			Title:   fmt.Sprintf("Fig 9 (%s) — point-query FPR (LSM, 22 bits/key, point-tuned)", qd),
			Columns: []string{"filter", "point FPR"},
		}
	}
	const bpk = 22
	for _, r := range fig9Ranges {
		for _, np := range lsmPolicies(bpk, r) {
			name, policy := np.name, np.policy
			env, err := buildLSM(fmt.Sprintf("%s/fig9-%d-%s", dir, r, name), policy, s.LSMKeys, workload.Uniform, 25)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s R=%d: %w", name, r, err)
			}
			for _, qd := range dists {
				qg := workload.NewQueryGen(qd, 1601, env.keys)
				qs := qg.EmptyRangeQueries(s.Queries/4, r)
				if len(qs) == 0 {
					rangeTabs[qd].AddRow(r, name, "n/a", "n/a")
					continue
				}
				res, err := env.replay(scans(qs))
				if err != nil {
					env.close()
					return nil, err
				}
				rangeTabs[qd].AddRow(r, name, res.fpr(), res.exec.Seconds())
			}
			env.close()
		}
	}
	// Point panels: filters tuned for point lookups (Rosetta with its
	// minimal level set, bloomRF point-weighted, SuRF with hash suffixes).
	pointPolicies := []namedPolicy{
		{"bloomRF", &policies.BloomRF{BitsPerKey: bpk}},
		{"rosetta", &policies.Rosetta{BitsPerKey: bpk, MaxRange: 2, Variant: rosetta.VariantF}},
		{"surf", &policies.SuRF{BitsPerKey: bpk, Suffix: surf.SuffixHash}},
	}
	for _, np := range pointPolicies {
		name, policy := np.name, np.policy
		env, err := buildLSM(fmt.Sprintf("%s/fig9pt-%s", dir, name), policy, s.LSMKeys, workload.Uniform, 25)
		if err != nil {
			return nil, err
		}
		for _, qd := range dists {
			qg := workload.NewQueryGen(qd, 1602, env.keys)
			res, err := env.replay(gets(qg.EmptyPointQueries(s.Queries)))
			if err != nil {
				env.close()
				return nil, err
			}
			pointTabs[qd].AddRow(name, res.fpr())
		}
		env.close()
	}
	var tables []*Table
	for _, qd := range dists {
		tables = append(tables, rangeTabs[qd], pointTabs[qd])
	}
	return tables, nil
}

// Fig9D runs the classical baselines of Fig. 9.D: prefix Bloom filters and
// fence pointers, latency across range sizes.
func Fig9D(s Scale, dir string) ([]*Table, error) {
	t := &Table{
		Title:   "Fig 9.D — Prefix-BF and fence pointers: exec time vs range size (LSM, uniform)",
		Columns: []string{"range", "filter", "FPR", "exec(s)"},
	}
	baselines := []namedPolicy{
		{"prefixBF", &policies.PrefixBloom{BitsPerKey: 22, Level: 20}},
		{"fence", &policies.Fence{ZoneSize: 4096}},
	}
	for _, np := range baselines {
		name, policy := np.name, np.policy
		env, err := buildLSM(fmt.Sprintf("%s/fig9d-%s", dir, name), policy, s.LSMKeys, workload.Uniform, 25)
		if err != nil {
			return nil, err
		}
		qg := workload.NewQueryGen(workload.Uniform, 1701, env.keys)
		for _, r := range fig9Ranges {
			qs := qg.EmptyRangeQueries(s.Queries/4, r)
			if len(qs) == 0 {
				t.AddRow(r, name, "n/a", "n/a")
				continue
			}
			res, err := env.replay(scans(qs))
			if err != nil {
				env.close()
				return nil, err
			}
			t.AddRow(r, name, res.fpr(), res.exec.Seconds())
		}
		env.close()
	}
	t.Notes = append(t.Notes, "all PRFs outperform these classical baselines (paper Fig. 9.D)")
	return []*Table{t}, nil
}

// fig10Groups are the small/medium/large range panels of Fig. 10.
var fig10Groups = map[string][]uint64{
	"small":  {8, 16, 32},
	"medium": {10_000, 100_000, 1_000_000},
	"large":  {1_000_000_000, 10_000_000_000, 100_000_000_000},
}

// Fig10 runs Experiment 2: FPR and latency as the space budget varies
// (10-22 bits/key) for the three range-size groups, plus point FPR with a
// plain Bloom filter included.
func Fig10(s Scale, dir string) ([]*Table, error) {
	var tables []*Table
	bits := []float64{10, 14, 18, 22}
	for _, group := range []string{"small", "medium", "large"} {
		t := &Table{
			Title:   fmt.Sprintf("Fig 10 — %s ranges: FPR/exec vs bits/key (LSM, uniform)", group),
			Columns: []string{"bits/key", "range", "filter", "FPR", "exec(s)"},
		}
		ranges := fig10Groups[group]
		for _, bpk := range bits {
			for _, r := range ranges {
				for _, np := range lsmPolicies(bpk, r) {
					name, policy := np.name, np.policy
					env, err := buildLSM(fmt.Sprintf("%s/fig10-%s-%v-%d-%s", dir, group, bpk, r, name), policy, s.LSMKeys, workload.Uniform, 25)
					if err != nil {
						return nil, err
					}
					qg := workload.NewQueryGen(workload.Uniform, 1801, env.keys)
					qs := qg.EmptyRangeQueries(s.Queries/4, r)
					if len(qs) == 0 {
						t.AddRow(bpk, r, name, "n/a", "n/a")
						env.close()
						continue
					}
					res, err := env.replay(scans(qs))
					if err != nil {
						env.close()
						return nil, err
					}
					t.AddRow(bpk, r, name, res.fpr(), res.exec.Seconds())
					env.close()
				}
			}
		}
		tables = append(tables, t)
	}

	// Point panel including the RocksDB Bloom filter.
	pt := &Table{
		Title:   "Fig 10 right — point FPR vs bits/key (LSM, uniform workload)",
		Columns: []string{"bits/key", "filter", "point FPR"},
	}
	for _, bpk := range bits {
		pointSet := []namedPolicy{
			{"bloomRF", &policies.BloomRF{BitsPerKey: bpk}},
			{"rosetta", &policies.Rosetta{BitsPerKey: bpk, MaxRange: 2, Variant: rosetta.VariantF}},
			{"surf", &policies.SuRF{BitsPerKey: bpk, Suffix: surf.SuffixHash}},
			{"bloom", &policies.Bloom{BitsPerKey: bpk}},
		}
		for _, np := range pointSet {
			name, policy := np.name, np.policy
			env, err := buildLSM(fmt.Sprintf("%s/fig10p-%v-%s", dir, bpk, name), policy, s.LSMKeys, workload.Uniform, 25)
			if err != nil {
				return nil, err
			}
			qg := workload.NewQueryGen(workload.Uniform, 1901, env.keys)
			res, err := env.replay(gets(qg.EmptyPointQueries(s.Queries)))
			if err != nil {
				env.close()
				return nil, err
			}
			pt.AddRow(bpk, name, res.fpr())
			env.close()
		}
	}
	tables = append(tables, pt)
	return tables, nil
}

// Fig12C measures filter-construction cost at flush time across budgets
// (Experiment 4's creation panel; paper: 50M keys over 25 L0 SSTs).
func Fig12C(s Scale, dir string) ([]*Table, error) {
	t := &Table{
		Title:   "Fig 12.C — filter creation time at flush vs bits/key (25 SSTs)",
		Columns: []string{"bits/key", "filter", "create(s)"},
	}
	for _, bpk := range []float64{10, 14, 18, 22} {
		for _, np := range lsmPolicies(bpk, 1<<20) {
			name, policy := np.name, np.policy
			path := fmt.Sprintf("%s/fig12c-%v-%s", dir, bpk, name)
			if err := os.RemoveAll(path); err != nil {
				return nil, err
			}
			db, err := lsm.Open(lsm.DBOptions{Dir: path, Policy: policy, MemtableBytes: 1 << 62})
			if err != nil {
				return nil, err
			}
			keys := workload.NewGenerator(workload.Uniform, 2001).Keys(s.LSMKeys)
			per := (len(keys) + 24) / 25
			var total time.Duration
			for i, k := range keys {
				if err := db.Put(k, nil); err != nil {
					db.Close()
					return nil, err
				}
				if (i+1)%per == 0 || i == len(keys)-1 {
					d, err := db.FlushWithTiming()
					if err != nil {
						db.Close()
						return nil, err
					}
					total += d
				}
			}
			db.Close()
			os.RemoveAll(path)
			t.AddRow(bpk, name, total.Seconds())
		}
	}
	t.Notes = append(t.Notes, "paper: bloomRF has the lowest creation time; SuRF pays for budget tuning and trie building")
	return []*Table{t}, nil
}

// Fig12G produces the probe-cost breakdown at 22 bits/key: filter probe
// time, residual CPU, filter-block deserialization and (simulated) I/O
// wait, per filter and range size. Filter blocks are deserialized when a
// table opens, while buildLSM flushes, not during the replay, so deser(s)
// is each policy's open-time total, the same in every row of it.
func Fig12G(s Scale, dir string) ([]*Table, error) {
	t := &Table{
		Title:   "Fig 12.G — probe cost breakdown (LSM, 22 bits/key, uniform)",
		Columns: []string{"range", "filter", "probe(s)", "timed ops", "cpu-resid(s)", "deser(s)", "io-wait(s)", "total(s)"},
		Notes: []string{"probe(s) is an estimate: the store times one op in 64 (k = 6) and counts its probe time 64 times, the first op's once; " +
			"timed ops is how many ops it timed",
			"deser(s) is paid once per table open, not per op: the filter blocks of all 25 tables, deserialized as the store was built; total(s) leaves it out"},
	}
	ranges := []uint64{1, 16, 1_000, 1_000_000}
	for _, np := range lsmPolicies(22, 1<<24) {
		name, policy := np.name, np.policy
		env, err := buildLSM(fmt.Sprintf("%s/fig12g-%s", dir, name), policy, s.LSMKeys, workload.Uniform, 25)
		if err != nil {
			return nil, err
		}
		deser := env.db.Stats().Snapshot().DeserTime
		qg := workload.NewQueryGen(workload.Uniform, 2101, env.keys)
		for _, r := range ranges {
			var ops []workload.Op
			if r <= 1 {
				ops = gets(qg.EmptyPointQueries(s.Queries / 2))
			} else if qs := qg.EmptyRangeQueries(s.Queries/4, r); len(qs) > 0 {
				ops = scans(qs)
			} else {
				t.AddRow(r, name, "n/a", "n/a", "n/a", "n/a", "n/a", "n/a")
				continue
			}
			res, err := env.replay(ops)
			if err != nil {
				env.close()
				return nil, err
			}
			d, wall := res.io, res.exec
			probe := d.FilterProbeTime
			cpu := wall - d.IOWaitTime - probe
			if cpu < 0 {
				cpu = 0
			}
			t.AddRow(r, name, probe.Seconds(), d.TimedOps, cpu.Seconds(), deser.Seconds(),
				d.IOWaitTime.Seconds(), wall.Seconds())
		}
		env.close()
	}
	return []*Table{t}, nil
}

// ycsbBackends are the filter backends YCSB compares over the LSM store
// (policies.ForBackend), in row order.
var ycsbBackends = []string{"bloomrf", "bloom", "rosetta", "surf"}

// YCSB replays the paper's range mix (its YCSB workload E derivative: 90%
// scans over uniformly drawn anchors, 10% reads, almost every query empty)
// over the LSM store, once per served backend at 16 bits/key tuned for the
// mix's 2^10 scan span: s.LSMKeys keys over 25 tables, s.Queries ops, the
// same trace for every backend, each in a freshly built store, so the
// backends differ only in their filter blocks. The core YCSB mixes anchor
// every read and scan at a stored key, so no filter can skip a block there
// and all four backends read the same ones; they are not run.
func YCSB(s Scale, dir string) ([]*Table, error) {
	mix, err := workload.MixByName("range")
	if err != nil {
		return nil, err
	}
	res := make([]lsmReplay, len(ycsbBackends))
	for i, backend := range ycsbBackends {
		policy, err := policies.ForBackend(backend, 16, 1<<10)
		if err != nil {
			return nil, err
		}
		env, err := buildLSM(fmt.Sprintf("%s/ycsb-%s", dir, backend), policy, s.LSMKeys, workload.Uniform, 25)
		if err != nil {
			return nil, err
		}
		res[i], err = env.replay(mix.Ops(env.keys, s.Queries, 42))
		env.close()
		if err != nil {
			return nil, fmt.Errorf("ycsb backend %s: %w", backend, err)
		}
	}
	t := &Table{
		Title:   fmt.Sprintf("YCSB mix range — LSM, 16 bits/key, %d keys, %d ops", s.LSMKeys, s.Queries),
		Columns: []string{"backend", "data blocks read", "empty-query FPR", "IO saved vs Bloom", "exec(s)"},
	}
	bloomBlocks := float64(res[slices.Index(ycsbBackends, "bloom")].io.BlockReads)
	for i, r := range res {
		var fpr, saved any = "n/a", "n/a"
		if r.empty > 0 {
			fpr = r.fpr()
		}
		if bloomBlocks > 0 {
			saved = fmt.Sprintf("%.1f%%", 100*(1-float64(r.io.BlockReads)/bloomBlocks))
		}
		t.AddRow(ycsbBackends[i], r.io.BlockReads, fpr, saved, r.exec.Seconds())
	}
	return []*Table{t}, nil
}
