package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/lsm"
	"repro/internal/lsm/policies"
	"repro/internal/workload"
)

// lsm-empty-scan is the paper's RocksDB scenario in process: an LSM store
// of overlapping L0 tables, each with a bloomRF filter block, under the
// range-heavy YCSB mix whose Gets and Scans are almost all empty. It uses
// the single-key MayContain/MayContainRange probes, real block reads from
// the page cache and no HTTP, so a serving-layer change must leave it
// unmoved, and a filter change that trades false positives for speed
// shows up in blocks read.

const (
	lsmWorkload    = "lsm-empty-scan"
	lsmKeys        = 1 << 19 // 1 MiB of filter blocks at 16 bits/key: within a core's L2
	lsmTables      = 25
	lsmBlockSize   = 4 << 10
	lsmMaxRange    = 1 << 10 // the range mix's scan span, and what the filters are tuned for
	lsmTraceOps    = 200_000 // trace length; the timed loop cycles through it
	lsmReadLatency = 100 * time.Microsecond
	lsmGetChecks   = 4096    // Gets of stored keys in verify
	lsmScanChecks  = 1024    // Scans anchored at stored keys in verify
	lsmProbeGets   = 1 << 18 // Gets of absent keys in verify; the trace's own are too few for a steady fpr_point
	lsmLatWindow   = 1 << 14 // consecutive ops per latency window, about 0.1 s
)

// sizedPolicy counts the filter-block bytes its policy builds.
type sizedPolicy struct {
	lsm.FilterPolicy
	bytes int
}

func (p *sizedPolicy) CreateFilter(keys []uint64) ([]byte, error) {
	b, err := p.FilterPolicy.CreateFilter(keys)
	p.bytes += len(b)
	return b, err
}

// lsmValue is the 16-byte value stored under k, derived from k so that a
// Get can be checked without storing it.
func lsmValue(k uint64) []byte {
	v := make([]byte, 16)
	binary.LittleEndian.PutUint64(v, k)
	binary.LittleEndian.PutUint64(v[8:], ^k)
	return v
}

type lsmStore struct {
	db     *lsm.DB
	policy *sizedPolicy
	build  time.Duration // filter construction, summed over the flushes
}

// openLSM loads keys, in generation order, into a fresh store in dir,
// flushing lsmTables times; each table spans the whole key space.
func openLSM(dir string, keys []uint64) (*lsmStore, error) {
	inner, err := policies.ForBackend("bloomrf", bitsPerKey, lsmMaxRange)
	if err != nil {
		return nil, err
	}
	p := &sizedPolicy{FilterPolicy: inner}
	db, err := lsm.Open(lsm.DBOptions{
		Dir: dir, Policy: p, MemtableBytes: 1 << 62, // flushes are explicit
		BlockSize: lsmBlockSize, SimulatedReadLatency: lsmReadLatency,
	})
	if err != nil {
		return nil, err
	}
	st := &lsmStore{db: db, policy: p}
	per := (len(keys) + lsmTables - 1) / lsmTables
	for i, k := range keys {
		if err := db.Put(k, lsmValue(k)); err != nil {
			db.Close()
			return nil, err
		}
		if (i+1)%per == 0 || i == len(keys)-1 {
			d, err := db.FlushWithTiming()
			if err != nil {
				db.Close()
				return nil, err
			}
			st.build += d
		}
	}
	return st, nil
}

func runLSM(cfg config, out io.Writer, tr *tracer, root uint64) (*report, error) {
	rep := newReport()
	g := gen{cfg.seed}
	n := max(lsmTables, int(lsmKeys*cfg.scale))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = g.draw(streamPreload, uint64(i))
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	dir := filepath.Join(cfg.work, lsmWorkload)
	defer os.RemoveAll(dir)
	fmt.Fprintf(out, "env lsm=%q\n", fmt.Sprintf("keys=%d tables=%d block=%d value=16 policy=bloomrf bits_per_key=%d max_range=%d read_model=%s/block",
		n, lsmTables, lsmBlockSize, bitsPerKey, lsmMaxRange, lsmReadLatency))

	ph := tr.start("setup", root, 0)
	var st *lsmStore
	setups, err := repeatSetup(cfg.setups, func() error {
		if st != nil {
			st.db.Close()
			st = nil
		}
		return os.RemoveAll(dir)
	}, func() (err error) {
		st, err = openLSM(dir, keys)
		return err
	})
	ph.end()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.db.Close()
	fmt.Fprintf(out, "phase setup: %d keys in %d tables, %d set-ups in %.3f s\n", n, st.db.NumTables(), len(setups), setups)
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["space_bits_per_key"] = float64(8*st.policy.bytes) / float64(n)
	rep.layer["lsm.filter_build_s"] = st.build.Seconds()

	mix, err := workload.MixByName("range")
	if err != nil {
		return nil, err
	}
	ops := mix.Ops(keys, max(1000, int(lsmTraceOps*cfg.scale)), int64(cfg.seed))

	// The verify pass also warms the loop: it runs the whole trace once.
	ph = tr.start("verify", root, 0)
	err = verifyLSM(st.db, ops, sorted, g, max(1000, int(lsmProbeGets*cfg.scale)), rep)
	ph.end()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	// The store lives in the bench process, next to the bench's own inputs
	// and the garbage of the repeated set-ups. The live heap after a full
	// collection is the store's filters and indexes plus the trace; the
	// process's resident size varied by 10% from run to run.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.e2e["mem_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	var untraced lsmLoopStats
	if cfg.trace {
		dur /= 2
		ph = tr.start("closed.untraced", root, 0)
		untraced = lsmLoop(st.db, ops, dur, nil, 0, nil)
		ph.end()
	}
	win := &windows{read: selfCPU}
	ph = tr.start("closed", root, 0)
	closed := lsmLoop(st.db, ops, dur, tr, ph.id, win)
	ph.end()
	if win.err != nil {
		return nil, win.err
	}
	all, gets, scans := closed.split(ops)
	p50, p95 := windowQuantile(all, lsmLatWindow, 0.50), windowQuantile(all, lsmLatWindow, 0.95)
	fmt.Fprintf(out, "phase closed: %d ops in %.3f s from one caller (%.0f ops/s overall); fast-window p50 %.2f us, p95 %.2f us; pooled p50 %.2f us, p95 %.2f us, p99 %.2f us\n",
		closed.ops, closed.elapsed.Seconds(), float64(closed.ops)/closed.elapsed.Seconds(), p50, p95,
		quantile(all, 0.50), quantile(all, 0.95), quantile(all, 0.99))
	rate, cpuPerK := win.fast(out, "phase closed")

	rep.attempted = closed.ops + untraced.ops
	rep.failed = closed.failed + untraced.failed
	rep.e2e["items_per_s"] = rate
	rep.layer["process.cpu_us_per_kitem"] = cpuPerK
	rep.layer["client.lat_p50_us"] = p50
	rep.layer["client.lat_p95_us"] = p95
	rep.layer["lsm.get_p50_us"] = quantile(gets, 0.50)
	rep.layer["lsm.scan_p50_us"] = quantile(scans, 0.50)
	if cfg.trace {
		rep.layer["trace.overhead_frac"] = 1 - ratio(float64(closed.ops)/closed.elapsed.Seconds(),
			float64(untraced.ops)/untraced.elapsed.Seconds())
	}
	return rep, nil
}

// selfCPU reads the bench process's own CPU time.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// verifyLSM runs the trace once against ground truth (the sorted key set)
// and takes the deterministic metrics from that pass: an empty Get or Scan
// that reads any block is a false positive. probeGets Gets of absent keys
// add to the trace's empty Gets, and Gets and Scans of stored keys check
// that nothing stored goes missing.
func verifyLSM(db *lsm.DB, ops []workload.Op, sorted []uint64, g gen, probeGets int, rep *report) error {
	stored := func(lo, hi uint64) int {
		i, _ := slices.BinarySearch(sorted, lo)
		j, found := slices.BinarySearch(sorted, hi)
		if found {
			j++
		}
		return j - i
	}
	ios := db.Stats()
	var emptyGets, fpGets, emptyScans, fpScans int
	before := ios.Snapshot()
	for _, op := range ops {
		reads := ios.BlockReads.Load()
		switch op.Kind {
		case workload.OpRead:
			v, found, err := db.Get(op.Key)
			if err != nil {
				return err
			}
			want := stored(op.Key, op.Key) == 1
			if found != want || found && !bytes.Equal(v, lsmValue(op.Key)) {
				rep.noteWrong("Get(%#x): found=%v, stored=%v", op.Key, found, want)
			}
			if !want {
				emptyGets++
				if ios.BlockReads.Load() > reads {
					fpGets++
				}
			}
		case workload.OpScan:
			kvs, err := db.Scan(op.Lo, op.Hi)
			if err != nil {
				return err
			}
			want := stored(op.Lo, op.Hi)
			if len(kvs) != want {
				rep.noteWrong("Scan(%#x, %#x): %d records, %d stored", op.Lo, op.Hi, len(kvs), want)
			}
			if want == 0 {
				emptyScans++
				if ios.BlockReads.Load() > reads {
					fpScans++
				}
			}
		default:
			return fmt.Errorf("trace op %v is not in the range mix", op.Kind)
		}
	}
	d := ios.Snapshot().Sub(before)
	for i := range uint64(probeGets) {
		k := g.draw(streamProbePoint, i)
		if stored(k, k) != 0 {
			continue
		}
		reads := ios.BlockReads.Load()
		_, found, err := db.Get(k)
		if err != nil {
			return err
		}
		if found {
			rep.noteWrong("Get(%#x) of an absent key found a value", k)
		}
		emptyGets++
		if ios.BlockReads.Load() > reads {
			fpGets++
		}
	}
	nOps := float64(len(ops))
	rep.e2e["fpr_point"] = ratio(float64(fpGets), float64(emptyGets))
	rep.e2e["fpr_range"] = ratio(float64(fpScans), float64(emptyScans))
	L := rep.layer
	L["lsm.blocks_per_op"] = float64(d.BlockReads) / nOps
	L["lsm.bytes_read_per_op"] = float64(d.BytesRead) / nOps
	L["lsm.filter_probe_ns_per_op"] = float64(d.FilterProbeTime.Nanoseconds()) / nOps
	L["lsm.filter_negative_frac"] = ratio(float64(d.FilterNegatives), float64(d.FilterProbes))
	L["lsm.io_model_us_per_op"] = float64(d.IOWaitTime.Nanoseconds()) / 1e3 / nOps

	n := uint64(len(sorted))
	for i := range uint64(lsmGetChecks) {
		k := sorted[g.draw(streamPick, i)%n]
		v, found, err := db.Get(k)
		if err != nil {
			return err
		}
		if !found || !bytes.Equal(v, lsmValue(k)) {
			rep.noteWrong("Get(%#x) of a stored key: found=%v", k, found)
		}
	}
	for i := range uint64(lsmScanChecks) {
		k := sorted[g.draw(streamPick, lsmGetChecks+i)%n]
		r := g.anchored(i, k, lsmMaxRange)
		kvs, err := db.Scan(r[0], r[1])
		if err != nil {
			return err
		}
		hit := slices.ContainsFunc(kvs, func(kv lsm.KV) bool { return kv.Key == k })
		if !hit || len(kvs) != stored(r[0], r[1]) {
			rep.noteWrong("Scan(%#x, %#x) around stored key %#x: %d records, key found=%v", r[0], r[1], k, len(kvs), hit)
		}
	}
	return nil
}

// lsmLoopStats is what one timed pass measured; lat[i] belongs to trace
// op i modulo the trace length, and is negative for an op that failed.
type lsmLoopStats struct {
	ops, failed int64
	elapsed     time.Duration
	lat         []time.Duration
}

// lsmLoop cycles through the trace from one caller for dur, marking win,
// when set, at every window edge.
func lsmLoop(db *lsm.DB, ops []workload.Op, dur time.Duration, tr *tracer, parent uint64, win *windows) lsmLoopStats {
	st := lsmLoopStats{lat: make([]time.Duration, 0, 1<<21)}
	start := time.Now()
	edge := start.Add(windowEvery)
	if win != nil {
		win.mark(0)
	}
	for i := 0; ; i++ {
		if i%64 == 0 {
			now := time.Now()
			if now.Sub(start) >= dur {
				break
			}
			if win != nil && !now.Before(edge) {
				win.mark(st.ops - st.failed)
				edge = edge.Add(windowEvery)
			}
		}
		op := ops[i%len(ops)]
		name := "lsm.get"
		t0 := time.Now()
		var err error
		if op.Kind == workload.OpScan {
			name = "lsm.scan"
			_, err = db.Scan(op.Lo, op.Hi)
		} else {
			_, _, err = db.Get(op.Key)
		}
		t1 := time.Now()
		st.ops++
		if err != nil {
			st.failed++
			st.lat = append(st.lat, -1)
			continue
		}
		st.lat = append(st.lat, t1.Sub(t0))
		tr.record(name, parent, uint64(i)+1, t0, t1)
	}
	st.elapsed = time.Since(start)
	if win != nil {
		win.mark(st.ops - st.failed)
	}
	return st
}

// split returns the latencies of successful ops in microseconds: all of
// them, the Gets and the Scans.
func (st lsmLoopStats) split(ops []workload.Op) (all, gets, scans []float64) {
	for i, d := range st.lat {
		if d < 0 {
			continue
		}
		us := float64(d) / float64(time.Microsecond)
		all = append(all, us)
		if ops[i%len(ops)].Kind == workload.OpScan {
			scans = append(scans, us)
		} else {
			gets = append(gets, us)
		}
	}
	return all, gets, scans
}
