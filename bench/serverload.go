package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// serverSpec is one workload against a bloomrfd process. Every workload
// runs the same phases: set-up (repeated; setup_s is the median), warm-up,
// a closed loop of a fixed request count over cfg.conns keep-alive
// connections, an open loop at a fixed rate, then verify.
type serverSpec struct {
	name      string
	durable   bool    // -data-dir: WAL with fsync per commit, periodic snapshots, crash and recovery
	shards    int     // hash-partitioned shards
	expected  uint64  // expected_keys at create
	preload   uint64  // keys inserted during set-up
	ranges    bool    // query-range instead of query
	json      bool    // JSON codec instead of the binary wire codec
	batch     int     // items per request
	insertPct uint64  // share of requests that insert fresh keys instead of querying
	capacity  float64 // closed-loop requests/s measured on the reference machine; sizes the loops
	openRate  float64 // open-loop requests/s, an eighth of capacity or less
}

// The loop sizes are frozen from capacity so that the request counts, and
// with them the set of inserted keys, depend only on -seconds: the closed
// loop takes about closedShare of the measured time and the open loop the
// rest.
const (
	closedShare     = 0.5
	warmupSeconds   = 1.0
	clientHeapLimit = 64 << 20 // the bench's heap before it collects, in server workloads
	bitsPerKey      = 16
	filterName      = "bench"
	filterPath      = "/v1/filters/" + filterName

	// Enough post-run probes that each rate rests on a few thousand false
	// positives, so that its spread across seeds stays within a few percent.
	probePoints = 1 << 23 // absent keys probed after the run for fpr_point
	probeRanges = 1 << 19 // empty ranges probed after the run for fpr_range
	probeBatch  = 1 << 13 // items per verify request
	// Keys per set-up insert request. Frames of 2^16 keys left the server's
	// heap at one of two sizes at random, and mem_mb with it.
	loadBatch   = 1 << 13
	tailBatches = 256 // insert batches between the explicit snapshot and the crash
)

var serverSpecs = []serverSpec{
	{
		// 32 MiB of filter, 16 times a core's 2 MiB L2. The L3 is shared
		// with the host's other tenants: a pointer chase over 16 MiB already
		// runs at DRAM latency here. So a point probe misses cache, and the
		// binary codec keeps decode cheap, so the probe kernel and the shard
		// fan-out dominate. JSON, WAL, snapshots and ranges are bypassed.
		name: "point-binary-large", shards: 4, expected: 1 << 24, preload: 1 << 24,
		batch: 1024, capacity: 8000, openRate: 1000,
	},
	{
		// 512 KiB of filter over 8 shards (64 KiB each) stays in a core's
		// own 2 MiB L2, out of reach of the neighbours on the shared L3, so
		// JSON decode, the dyadic decomposition and the 8-way fan-out of a
		// hash-partitioned range query are what cost time. The binary
		// codec, WAL and point kernel are bypassed.
		name: "range-json-cached", shards: 8, expected: 1 << 18, preload: 1 << 18,
		ranges: true, json: true, batch: 256, capacity: 3300, openRate: 400,
	},
	{
		// Writes beside reads on the same shards: WAL append, fsync, group
		// commit, snapshots and recovery do their work here and nowhere
		// else. A 15 s run inserts about 11M fresh keys over the warm-up and
		// both loops, so the filter ends about 15% past its expected load.
		name: "mixed-durable", durable: true, shards: 4, expected: 1 << 24, preload: 1 << 23,
		batch: 1024, insertPct: 20, capacity: 5800, openRate: 400,
	},
}

// flags returns the bloomrfd flags of the workload. Background snapshots
// are off: a snapshot blocks inserts shard by shard for over 100 ms, and
// wherever one landed in a run it moved the open-loop p95 by up to 80%
// and the memory peak by up to 20%. The explicit snapshot before the
// crash measures snapshot cost instead.
func (sp serverSpec) flags(dataDir string) []string {
	if !sp.durable {
		return nil
	}
	return []string{"-data-dir", dataDir, "-wal-sync", "always", "-snapshot-interval", "0"}
}

// serverRun is the state of one server workload run.
type serverRun struct {
	spec              serverSpec
	cfg               config
	g                 gen
	expected, preload uint64 // scaled by cfg.scale
	flags             []string
	logPath           string
	srv               *daemon
	c                 *client

	mu       sync.Mutex
	rep      *report
	acked    []uint64 // indices of insert requests the server acknowledged
	injected atomic.Bool
}

func (s *serverRun) wrong(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rep.noteWrong(format, args...)
}

// start launches bloomrfd and connects the client.
func (s *serverRun) start() error {
	srv, err := startServer(s.cfg.bloomrfd, s.flags, s.logPath)
	if err != nil {
		return err
	}
	s.srv, s.c = srv, newClient(srv.addr, s.cfg.conns)
	return nil
}

func (s *serverRun) stop() {
	if s.srv != nil {
		s.c.close()
		s.srv.kill()
		s.srv = nil
	}
}

// setup starts a fresh server, creates the filter and preloads it.
func (s *serverRun) setup() error {
	if err := s.start(); err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{
		"name": filterName, "expected_keys": s.expected, "bits_per_key": bitsPerKey,
		"shards": s.spec.shards, "partitioning": "hash",
	})
	if err != nil {
		return err
	}
	if _, err := s.c.postOK("/v1/filters", "application/json", body); err != nil {
		return err
	}
	return s.load(s.preload, loadBatch, s.preloadKey)
}

func (s *serverRun) preloadKey(i uint64) uint64 { return s.g.draw(streamPreload, i) }

// request is one generated batch.
type request struct {
	op      string // insert, query or query-range
	keys    []uint64
	ranges  [][2]uint64
	present []bool // item j is known to be loaded, so it must answer true
}

// pointBatch returns the query keys of request idx: each item is a loaded
// key or an absent one, with equal odds.
func (s *serverRun) pointBatch(idx uint64) request {
	b := uint64(s.spec.batch)
	r := request{op: "query", keys: make([]uint64, b), present: make([]bool, b)}
	for j := range b {
		item := idx*b + j
		if s.g.draw(streamHalf, item)&1 == 0 {
			r.keys[j] = s.preloadKey(s.g.draw(streamPick, item) % s.preload)
			r.present[j] = true
		} else {
			r.keys[j] = s.g.draw(streamAbsent, item)
		}
	}
	return r
}

// rangeBatch returns the ranges of request idx: each is anchored at a
// loaded key or at a uniform point (empty), with equal odds.
func (s *serverRun) rangeBatch(idx uint64) request {
	b := uint64(s.spec.batch)
	r := request{op: "query-range", ranges: make([][2]uint64, b), present: make([]bool, b)}
	for j := range b {
		item := idx*b + j
		w := s.g.width(item)
		if s.g.draw(streamHalf, item)&1 == 0 {
			r.ranges[j] = s.g.anchored(item, s.preloadKey(s.g.draw(streamPick, item)%s.preload), w)
			r.present[j] = true
		} else {
			r.ranges[j] = s.g.empty(streamEmpty, item, w)
		}
	}
	return r
}

func (s *serverRun) insertKey(idx, j uint64) uint64 {
	return s.g.draw(streamInsert, idx*uint64(s.spec.batch)+j)
}

// build returns request idx of the workload's traffic.
func (s *serverRun) build(idx uint64) request {
	switch {
	case s.g.draw(streamKind, idx)%100 < s.spec.insertPct:
		r := request{op: "insert", keys: make([]uint64, s.spec.batch)}
		for j := range r.keys {
			r.keys[j] = s.insertKey(idx, uint64(j))
		}
		return r
	case s.spec.ranges:
		return s.rangeBatch(idx)
	default:
		return s.pointBatch(idx)
	}
}

// encode frames r for the workload's codec.
func (s *serverRun) encode(r request) (path, ctype string, body []byte) {
	switch {
	case r.op == "insert":
		return filterPath + "/insert", wire.ContentType, wire.AppendKeysRequest(nil, wire.OpInsert, r.keys)
	case r.ranges != nil && s.spec.json:
		return filterPath + "/query-range", "application/json", jsonRanges(r.ranges)
	case r.ranges != nil:
		return filterPath + "/query-range", wire.ContentType, wire.AppendRangesRequest(nil, r.ranges)
	default:
		return filterPath + "/query", wire.ContentType, wire.AppendKeysRequest(nil, wire.OpQuery, r.keys)
	}
}

func jsonRanges(rs [][2]uint64) []byte {
	b := make([]byte, 0, 16+44*len(rs))
	b = append(b, `{"ranges":[`...)
	for i, r := range rs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"lo":`...)
		b = strconv.AppendUint(b, r[0], 10)
		b = append(b, `,"hi":`...)
		b = strconv.AppendUint(b, r[1], 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// framed is a generated request, encoded and ready to send.
type framed struct {
	idx         uint64
	r           request
	path, ctype string
	body        []byte
}

func (s *serverRun) prepare(idx uint64) framed {
	r := s.build(idx)
	path, ctype, body := s.encode(r)
	return framed{idx: idx, r: r, path: path, ctype: ctype, body: body}
}

// do sends request idx and checks the answer. It returns the request's op,
// its item count, and whether the server answered 200.
func (s *serverRun) do(idx uint64) (op string, items int, ok bool) {
	return s.send(s.prepare(idx))
}

func (s *serverRun) send(f framed) (op string, items int, ok bool) {
	r, idx := f.r, f.idx
	n := len(r.keys) + len(r.ranges)
	code, resp, err := s.c.post(f.path, f.ctype, f.body)
	if err != nil || code != 200 {
		return r.op, n, false
	}
	if r.op == "insert" {
		if err := checkAck(resp, n); err != nil {
			s.wrong("request %d: %v", idx, err)
			return r.op, n, true
		}
		s.mu.Lock()
		s.acked = append(s.acked, idx)
		s.mu.Unlock()
		return r.op, n, true
	}
	got, err := decodeVerdicts(f.ctype, resp)
	if err != nil {
		s.wrong("request %d: %v", idx, err)
		return r.op, n, true
	}
	s.check(idx, r.present, got)
	return r.op, n, true
}

func checkAck(resp []byte, n int) error {
	h, err := wire.ParseHeader(resp)
	if err != nil {
		return err
	}
	if h.Op != wire.OpAck || int(h.Count) != n {
		return fmt.Errorf("insert of %d keys answered %s of %d", n, h.Op, h.Count)
	}
	return nil
}

func decodeVerdicts(ctype string, resp []byte) ([]bool, error) {
	if ctype == wire.ContentType {
		h, err := wire.ParseHeader(resp)
		if err != nil {
			return nil, err
		}
		return wire.DecodeResult(h, resp[wire.HeaderSize:], nil)
	}
	var v struct {
		Results []bool `json:"results"`
	}
	err := json.Unmarshal(resp, &v)
	return v.Results, err
}

// check fails the run on a verdict count that does not match the request
// or a false answer for a loaded item. With cfg.injectFalseNegative the
// first loaded item's verdict is flipped before the check, so a test can
// see the gate fire.
func (s *serverRun) check(idx uint64, present, got []bool) {
	if len(got) != len(present) {
		s.wrong("request %d: %d verdicts for %d items", idx, len(got), len(present))
		return
	}
	if s.cfg.injectFalseNegative {
		if j := slices.Index(present, true); j >= 0 && s.injected.CompareAndSwap(false, true) {
			got[j] = false
		}
	}
	for j := range present {
		if present[j] && !got[j] {
			s.wrong("request %d: item %d was loaded but answered false", idx, j)
			return
		}
	}
}

// parallel calls fn on consecutive chunks [lo, hi) of [0, n), at most
// batch items each, from cfg.conns workers, and returns their errors.
func (s *serverRun) parallel(n, batch uint64, fn func(lo, hi uint64) error) error {
	var next atomic.Uint64
	errs := make([]error, s.cfg.conns)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := next.Add(batch) - batch
				if lo >= n {
					return
				}
				if err := fn(lo, min(n, lo+batch)); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// load inserts key(i) for i < n in binary batches over all connections.
// Every batch must be acknowledged in full.
func (s *serverRun) load(n, batch uint64, key func(uint64) uint64) error {
	return s.parallel(n, batch, func(lo, hi uint64) error {
		keys := make([]uint64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			keys = append(keys, key(i))
		}
		resp, err := s.c.postOK(filterPath+"/insert", wire.ContentType, wire.AppendKeysRequest(nil, wire.OpInsert, keys))
		if err != nil {
			return err
		}
		return checkAck(resp, len(keys))
	})
}

// probe queries items [0, n) in binary batches over all connections,
// framing items [lo, hi) with frame, and returns how many answered true.
// miss, when set, is called for every item that answered false.
func (s *serverRun) probe(path string, n uint64, frame func(lo, hi uint64) []byte, miss func(i uint64)) (uint64, error) {
	var pos atomic.Uint64
	err := s.parallel(n, probeBatch, func(lo, hi uint64) error {
		resp, err := s.c.postOK(path, wire.ContentType, frame(lo, hi))
		if err != nil {
			return err
		}
		got, err := decodeVerdicts(wire.ContentType, resp)
		if err != nil {
			return err
		}
		if uint64(len(got)) != hi-lo {
			s.wrong("verify: %d verdicts for %d items", len(got), hi-lo)
			return nil
		}
		var p uint64
		for j, v := range got {
			if v {
				p++
			} else if miss != nil {
				miss(lo + uint64(j))
			}
		}
		pos.Add(p)
		return nil
	})
	return pos.Load(), err
}

// probeKeys probes key(i) for i < n.
func (s *serverRun) probeKeys(n uint64, key func(uint64) uint64, miss func(uint64)) (uint64, error) {
	return s.probe(filterPath+"/query", n, func(lo, hi uint64) []byte {
		keys := make([]uint64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			keys = append(keys, key(i))
		}
		return wire.AppendKeysRequest(nil, wire.OpQuery, keys)
	}, miss)
}

// loopStats is what a closed or open loop measured.
type loopStats struct {
	requests, failed int64
	items            int64 // items of requests answered 200
	queryItems       int64 // of those, items that were probed rather than inserted
	elapsed          time.Duration
	lat              []time.Duration // per 200 answer: round trip (closed) or time since the scheduled send (open)
	late             []time.Duration // open loop: how late the generator sent each request
}

func (l *loopStats) add(op string, items int, ok bool, lat time.Duration) {
	l.requests++
	if !ok {
		l.failed++
		return
	}
	l.items += int64(items)
	if op != "insert" {
		l.queryItems += int64(items)
	}
	l.lat = append(l.lat, lat)
}

func (l *loopStats) merge(o loopStats) {
	l.requests += o.requests
	l.failed += o.failed
	l.items += o.items
	l.queryItems += o.queryItems
	l.lat = append(l.lat, o.lat...)
}

// closedLoop sends requests [from, from+n), each connection sending its
// next request as soon as the previous answer arrives. When win is set it
// is marked at every window edge.
func (s *serverRun) closedLoop(from, n uint64, tr *tracer, parent uint64, win *windows) loopStats {
	var next atomic.Uint64
	var done atomic.Int64 // items of requests answered 200
	var wg sync.WaitGroup
	parts := make([]loopStats, s.cfg.conns)
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if win != nil {
		win.mark(0)
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			t := time.NewTicker(windowEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					win.mark(done.Load())
				}
			}
		}()
	}
	start := time.Now()
	for w := range parts {
		wg.Add(1)
		go func(st *loopStats) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				op, items, ok := s.do(from + i)
				t1 := time.Now()
				if ok {
					done.Add(int64(items))
				}
				st.add(op, items, ok, t1.Sub(t0))
				tr.record("request."+op, parent, from+i+1, t0, t1)
			}
		}(&parts[w])
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	if win != nil {
		win.mark(done.Load())
	}
	total := loopStats{elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// serverCPU reads the server process's CPU time.
func (s *serverRun) serverCPU() (time.Duration, error) { return procCPU(s.srv.pid()) }

// openLoop sends requests [from, from+n) on a fixed schedule of rate
// requests/s, whether or not earlier answers have arrived, and times each
// from its scheduled send so that a stall counts against every request it
// delays. Each request is generated and encoded before it is due, so the
// latency holds only the round trip and the check of the answer.
func (s *serverRun) openLoop(from, n uint64, rate float64, tr *tracer, parent uint64) loopStats {
	interval := time.Duration(float64(time.Second) / rate)
	type sample struct {
		op    string
		items int
		ok    bool
		lat   time.Duration
	}
	samples := make([]sample, n)
	late := make([]time.Duration, n)
	var wg sync.WaitGroup
	p := newPacer()
	defer p.close()
	start := time.Now()
	for i := range n {
		f := s.prepare(from + i)
		due := start.Add(time.Duration(i) * interval)
		p.sleepUntil(due)
		late[i] = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			op, items, ok := s.send(f)
			end := time.Now()
			samples[i] = sample{op, items, ok, end.Sub(due)}
			tr.record("request."+op, parent, from+i+1, due, end)
		}()
	}
	wg.Wait()
	st := loopStats{elapsed: time.Since(start), late: late}
	for _, x := range samples {
		st.add(x.op, x.items, x.ok, x.lat)
	}
	return st
}

// runServer runs one server workload and fills rep.
func runServer(spec serverSpec, cfg config, out io.Writer, tr *tracer, root uint64) (*report, error) {
	dir := filepath.Join(cfg.work, spec.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dataDir := filepath.Join(dir, "data")
	defer os.RemoveAll(dataDir)
	s := &serverRun{
		spec: spec, cfg: cfg, g: gen{cfg.seed}, rep: newReport(),
		expected: max(1024, uint64(float64(spec.expected)*cfg.scale)),
		preload:  max(1024, uint64(float64(spec.preload)*cfg.scale)),
		flags:    spec.flags(dataDir),
		logPath:  filepath.Join(dir, "bloomrfd.log"),
	}
	defer s.stop()
	// Here the bench only generates load, and its garbage collector ran
	// beside bloomrfd on the same two CPUs: with it off until the heap
	// reaches clientHeapLimit, point throughput rose by 15% and the spread
	// of the open-loop p95 across runs halved.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(clientHeapLimit))
	fmt.Fprintf(out, "env bloomrfd_flags=%q create=%q\n",
		strings.Join(append([]string{"-addr", "127.0.0.1:<port>"}, s.flags...), " "),
		fmt.Sprintf(`{"expected_keys":%d,"bits_per_key":%d,"shards":%d,"partitioning":"hash"}`, s.expected, bitsPerKey, spec.shards))

	ph := tr.start("setup", root, 0)
	setups, err := repeatSetup(cfg.setups, func() error {
		s.stop()
		return os.RemoveAll(dataDir)
	}, s.setup)
	ph.end()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	fmt.Fprintf(out, "phase setup: %d keys preloaded, %d set-ups in %.3f s\n", s.preload, len(setups), setups)
	s.rep.e2e["setup_s"] = median(setups)

	closedN := max(uint64(cfg.conns), uint64(spec.capacity*cfg.seconds*closedShare))
	openN := max(1, uint64(spec.openRate*cfg.seconds*(1-closedShare)))
	warmN := max(uint64(cfg.conns), uint64(spec.capacity*min(warmupSeconds, cfg.seconds)))
	var next uint64
	take := func(n uint64) uint64 { from := next; next += n; return from }

	ph = tr.start("warmup", root, 0)
	warm := s.closedLoop(take(warmN), warmN, nil, 0, nil)
	ph.end()
	fmt.Fprintf(out, "phase warmup: %d requests in %.3f s\n", warm.requests, warm.elapsed.Seconds())

	var untraced loopStats
	if cfg.trace {
		ph = tr.start("closed.untraced", root, 0)
		untraced = s.closedLoop(take(closedN), closedN, nil, 0, nil)
		ph.end()
	}
	before, err := s.c.scrape()
	if err != nil {
		return nil, err
	}
	win := &windows{read: s.serverCPU}
	ph = tr.start("closed", root, 0)
	closed := s.closedLoop(take(closedN), closedN, tr, ph.id, win)
	ph.end()
	if win.err != nil {
		return nil, win.err
	}
	after, err := s.c.scrape()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "phase closed: %d requests, %d items in %.3f s over %d connections (%.0f items/s overall)\n",
		closed.requests, closed.items, closed.elapsed.Seconds(), cfg.conns,
		float64(closed.items)/closed.elapsed.Seconds())
	rate, cpuPerK := win.fast(out, "phase closed")

	ph = tr.start("open", root, 0)
	open := s.openLoop(take(openN), openN, spec.openRate, tr, ph.id)
	ph.end()
	// The peak spans set-up, warm-up and both loops.
	if s.rep.e2e["mem_mb"], err = peakMiB(s.srv.pid()); err != nil {
		return nil, err
	}
	lat := micros(open.lat)
	p50, p95 := windowQuantile(lat, latWindow, 0.50), windowQuantile(lat, latWindow, 0.95)
	fmt.Fprintf(out, "phase open: %d requests at %g req/s in %.3f s; fast-window p50 %.0f us, p95 %.0f us; pooled p50 %.0f us, p95 %.0f us, p99 %.0f us; generator late p99 %.0f us\n",
		open.requests, spec.openRate, open.elapsed.Seconds(), p50, p95,
		quantile(lat, 0.50), quantile(lat, 0.95), quantile(lat, 0.99), quantile(micros(open.late), 0.99))

	for _, l := range []loopStats{untraced, closed, open} {
		s.rep.attempted += l.requests
		s.rep.failed += l.failed
	}
	s.rep.e2e["items_per_s"] = rate
	s.rep.layer["process.cpu_us_per_kitem"] = cpuPerK
	s.rep.layer["client.lat_p50_us"] = p50
	s.rep.layer["client.lat_p95_us"] = p95

	ph = tr.start("verify", root, 0)
	if err := s.verify(); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	ph.end()

	if cfg.trace {
		s.serverLayers(before, after, closed, open)
		s.rep.layer["trace.overhead_frac"] = 1 - ratio(float64(closed.items)/closed.elapsed.Seconds(),
			float64(untraced.items)/untraced.elapsed.Seconds())
		ph = tr.start("replay", root, 0)
		err := s.replay(tr, ph.id)
		ph.end()
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	return s.rep, nil
}

// verify measures the false-positive rates and space, and for the durable
// workload crashes the server and checks that every acknowledged key
// survived.
func (s *serverRun) verify() error {
	np := max(1024, uint64(probePoints*s.cfg.scale))
	pos, err := s.probeKeys(np, func(i uint64) uint64 { return s.g.draw(streamProbePoint, i) }, nil)
	if err != nil {
		return err
	}
	s.rep.e2e["fpr_point"] = float64(pos) / float64(np)

	nr := max(256, uint64(probeRanges*s.cfg.scale))
	pos, err = s.probe(filterPath+"/query-range", nr, func(lo, hi uint64) []byte {
		rs := make([][2]uint64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rs = append(rs, s.g.empty(streamProbeRange, i, s.g.width(i)))
		}
		return wire.AppendRangesRequest(nil, rs)
	}, nil)
	if err != nil {
		return err
	}
	s.rep.e2e["fpr_range"] = float64(pos) / float64(nr)

	var st filterStats
	if err := s.c.getJSON(filterPath, &st); err != nil {
		return err
	}
	s.rep.e2e["space_bits_per_key"] = ratio(float64(st.SizeBits), float64(st.InsertedKeys))
	if !s.spec.durable {
		return nil
	}

	// An explicit snapshot, a fixed tail that only the WAL holds, then a
	// crash: recovery must restore the snapshot and replay the tail.
	if _, err := s.c.postOK(filterPath+"/snapshot", "application/json", nil); err != nil {
		return err
	}
	var snap filterStats
	if err := s.c.getJSON(filterPath, &snap); err != nil {
		return err
	}
	s.rep.layer["snapshot.duration_ms"] = snap.Snapshot.DurationNanos / 1e6
	s.rep.layer["snapshot.bytes_per_key"] = ratio(snap.Snapshot.Bytes, float64(snap.InsertedKeys))
	s.rep.layer["snapshot.reused_shard_frac"] = snap.Snapshot.ReusedShards / float64(s.spec.shards)
	tailBatch := uint64(s.spec.batch)
	tailN := max(tailBatch, uint64(tailBatches*float64(tailBatch)*s.cfg.scale))
	tailKey := func(i uint64) uint64 { return s.g.draw(streamTail, i) }
	if err := s.load(tailN, tailBatch, tailKey); err != nil {
		return fmt.Errorf("tail: %w", err)
	}
	t0 := time.Now()
	s.stop()
	if err := s.start(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	s.rep.layer["wal.recovery_s"] = time.Since(t0).Seconds()

	acked := slices.Clone(s.acked)
	slices.Sort(acked)
	b := uint64(s.spec.batch)
	insertedN := uint64(len(acked)) * b
	key := func(i uint64) uint64 {
		switch {
		case i < s.preload:
			return s.preloadKey(i)
		case i < s.preload+insertedN:
			i -= s.preload
			return s.insertKey(acked[i/b], i%b)
		default:
			return tailKey(i - s.preload - insertedN)
		}
	}
	total := s.preload + insertedN + tailN
	_, err = s.probeKeys(total, key, func(i uint64) {
		s.wrong("after recovery: acknowledged key %d of %d answered false", i, total)
	})
	return err
}

// filterStats is the part of GET /v1/filters/{name} the bench reads.
type filterStats struct {
	SizeBits     uint64 `json:"size_bits"`
	InsertedKeys uint64 `json:"inserted_keys"`
	Snapshot     struct {
		Bytes         float64 `json:"bytes"`
		ReusedShards  float64 `json:"reused_shards"`
		DurationNanos float64 `json:"duration_nanos"`
	} `json:"snapshot"`
}

// serverLayers derives the server-side per-layer metrics from the
// bloomrfd counters scraped before (b) and after (a) the closed loop.
func (s *serverRun) serverLayers(b, a series, closed, open loopStats) {
	d := func(k string) float64 { return a[k] - b[k] }
	fl := `{filter="` + filterName + `"}`
	phase := func(p string) float64 {
		return d(`bloomrfd_filter_phase_seconds_total{filter="` + filterName + `",phase="` + p + `"}`)
	}
	reqs := d("bloomrfd_filter_traced_requests_total" + fl)
	items := float64(closed.items)
	unattr := d("bloomrfd_filter_trace_unattributed_seconds_total" + fl)
	traced := unattr
	for p := range obs.NumPhases {
		traced += phase(obs.Phase(p).String())
	}
	var probes float64
	for _, kind := range []string{"point", "range"} {
		p := `bloomrfd_filter_shard_` + kind + `_probes_total{filter="` + filterName + `"`
		probes += a.sumPrefix(p) - b.sumPrefix(p)
	}
	var rtt float64
	for _, l := range closed.lat {
		rtt += l.Seconds()
	}
	L := s.rep.layer
	L["client.send_late_p99_us"] = quantile(micros(open.late), 0.99)
	L["client.outside_server_us_per_req"] = ratio(rtt, float64(len(closed.lat)))*1e6 - ratio(traced, reqs)*1e6
	L["codec.decode_ns_per_item"] = ratio(phase("decode"), items) * 1e9
	L["codec.encode_ns_per_item"] = ratio(phase("encode"), items) * 1e9
	L["http.unattributed_us_per_req"] = ratio(unattr, reqs) * 1e6
	L["admission.wait_us_per_req"] = ratio(phase("admission-wait"), reqs) * 1e6
	L["shard.dispatch_ns_per_item"] = ratio(phase("shard-dispatch"), items) * 1e9
	L["shard.probes_per_item"] = ratio(probes, float64(closed.queryItems))
	L["core.probe_ns_per_item"] = ratio(phase("probe"), items) * 1e9
	L["wal.append_us_per_req"] = ratio(phase("wal-append"), reqs) * 1e6
	L["wal.fsync_us_per_req"] = ratio(phase("wal-fsync"), reqs) * 1e6
	L["wal.records_per_commit"] = ratio(d("bloomrfd_wal_appends_total"), d("bloomrfd_wal_group_commits_total"))
	L["wal.fsync_p99_us"] = histQuantile(b, a, "bloomrfd_wal_fsync_seconds", 0.99) * 1e6
	L["wal.bytes_per_key"] = ratio(d("bloomrfd_wal_end_pos"), d("bloomrfd_filter_inserted_keys_total"+fl))
	L["go.gc_pause_ms"] = d("bloomrfd_go_gc_pause_seconds_total") * 1e3
	L["go.heap_mb"] = a["bloomrfd_go_heap_objects_bytes"] / (1 << 20)
}

// histQuantile returns the q-quantile, at octave resolution, of the
// observations a Prometheus histogram family gained between scrapes b
// and a.
func histQuantile(b, a series, family string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := family + `_bucket{le="`
	for k, v := range a {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - b[k]})
	}
	slices.SortFunc(bs, func(x, y bucket) int {
		switch {
		case x.le < y.le:
			return -1
		case x.le > y.le:
			return 1
		}
		return 0
	})
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	total := bs[len(bs)-1].n
	last := 0.0
	for _, x := range bs {
		if x.n >= q*total {
			if x.le > 1e300 { // +Inf: report the largest finite bound
				return last
			}
			return x.le
		}
		last = x.le
	}
	return last
}
