package server

import (
	"encoding/json"
	"time"

	"repro/internal/obs"
)

// Request timing (the internal/obs integration). serveOp arms the trace
// embedded in its pooled batchScratch (batchexec.go) before admission,
// marks phase boundaries as the request moves through
// decode → admission-wait → shard-dispatch → probe → wal-append →
// wal-fsync → encode, and hands the finished trace to recordTrace once
// the response is written. The trace is the request's only clock, and
// recordTrace feeds every view of it:
//
//   - the filter's per-op latency histogram, f.lat[op][codec], exported
//     on /metrics as bloomrfd_op_latency_seconds{filter,op,codec} with
//     p50/p99/p999 gauges and in the stats "latency" block — the trace
//     total, so its count equals bloomrfd_filter_traced_requests_total;
//   - the API-global phase histogram table, exported on /metrics as
//     bloomrfd_phase_seconds{phase,op,codec} plus p50/p99 gauges — the
//     Fig. 12.G-style decomposition of server-side latency;
//   - per-filter phase counters (shard.go fields), cheap atomics behind
//     the stats endpoint's "phases" block and the
//     bloomrfd_filter_phase_seconds_total counters;
//   - the slow-request log: a request slower than
//     Config.SlowRequestThreshold emits one structured JSON line with
//     its full phase breakdown, rate-limited to one per second per
//     filter so a saturated server logs evidence, not a flood.
//
// Shed (429) and malformed requests are not recorded: the views describe
// served work, not the rejection fast path. Everything on the success path
// is allocation-free (atomic adds into preallocated histograms); only an
// actually-slow request pays for its log line.
//
// The histograms are obs.Hist (bucket layout in internal/obs/hist.go):
// /metrics exports them at octave granularity to keep scrapes small, while
// the percentile gauges and the stats summary read the full buckets.

// latOp / latCodec index the per-op histograms and phase tables.
type latOp uint8

const (
	opInsert latOp = iota
	opQuery
	opQueryRange
	numLatOps
)

type latCodec uint8

const (
	codecJSON latCodec = iota
	codecBinary
	numLatCodecs
)

// Label values for /metrics and the stats summary, indexed by the enums.
// latOpNames doubles as the endpoints' last path segment.
var (
	latOpNames    = [numLatOps]string{"insert", "query", "query-range"}
	latCodecNames = [numLatCodecs]string{"json", "binary"}
)

// phaseTable is the API-global histogram table: one obs.Hist per
// (phase, op, codec). ~42 histograms × 170 buckets — about half a MiB,
// allocated once per API.
type phaseTable struct {
	h [obs.NumPhases][numLatOps][numLatCodecs]obs.Hist
}

// recordTrace finishes a request's trace and publishes it. Called only
// on the success path, after the response is written — error responses
// describe rejection, not pipeline work. No-op for an unarmed trace.
func (a *API) recordTrace(name string, f *ShardedFilter, op latOp, c latCodec, tr *obs.Trace) {
	if !tr.Armed() {
		return
	}
	total := tr.Finish()
	f.lat[op][c].Observe(total)
	var attributed int64
	for p := 0; p < obs.NumPhases; p++ {
		ns := tr.PhaseNs(obs.Phase(p))
		if ns <= 0 {
			continue
		}
		attributed += ns
		a.phases.h[p][op][c].Observe(ns)
		f.phaseNs[p].Add(uint64(ns))
	}
	f.traceCount.Add(1)
	f.traceTotalNs.Add(uint64(total))
	if unattr := total - attributed; unattr > 0 {
		f.traceUnattrNs.Add(uint64(unattr))
	}
	if thr := a.cfg.SlowRequestThreshold; thr > 0 && total >= thr.Nanoseconds() {
		a.logSlowRequest(name, f, op, c, tr, total)
	}
}

// slowRequestLine is the slow-request log schema. One line per emission,
// JSON-encoded, through Config.Logf.
type slowRequestLine struct {
	Event   string             `json:"event"` // always "slow_request"
	Filter  string             `json:"filter"`
	Op      string             `json:"op"`
	Codec   string             `json:"codec"`
	TotalMs float64            `json:"total_ms"`
	Phases  map[string]float64 `json:"phases_ms"`
	Shards  int                `json:"shards"`
	Keys    uint64             `json:"inserted_keys"`
}

// logSlowRequest emits one structured line for a request whose total
// time crossed the slow threshold, at most once per second per filter.
// This path allocates (map, JSON encode) — acceptable, because reaching
// it requires a request ≥ the threshold, which is never the warm path.
func (a *API) logSlowRequest(name string, f *ShardedFilter, op latOp, c latCodec, tr *obs.Trace, totalNs int64) {
	now := time.Now().UnixNano()
	last := f.slowLogUnixNs.Load()
	if now-last < time.Second.Nanoseconds() || !f.slowLogUnixNs.CompareAndSwap(last, now) {
		return
	}
	line := slowRequestLine{
		Event:   "slow_request",
		Filter:  name,
		Op:      latOpNames[op],
		Codec:   latCodecNames[c],
		TotalMs: float64(totalNs) / 1e6,
		Phases:  make(map[string]float64, obs.NumPhases),
		Shards:  f.NumShards(),
		Keys:    f.keys.Load(),
	}
	for p := 0; p < obs.NumPhases; p++ {
		if ns := tr.PhaseNs(obs.Phase(p)); ns > 0 {
			line.Phases[obs.Phase(p).String()] = float64(ns) / 1e6
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	a.cfg.Logf("%s", b)
}

// OpLatency is one op×codec server-side latency summary in a filter's
// stats response. Quantiles are bucket upper bounds (≤12.5% quantization).
type OpLatency struct {
	Op     string  `json:"op"`
	Codec  string  `json:"codec"`
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
}

// latencySummaries builds the stats-endpoint latency block: one entry per
// op×codec pair that has served at least one request, in enum order.
func (s *ShardedFilter) latencySummaries() []OpLatency {
	var out []OpLatency
	for op := latOp(0); op < numLatOps; op++ {
		for c := latCodec(0); c < numLatCodecs; c++ {
			snap := s.lat[op][c].Read()
			if snap.Count == 0 {
				continue
			}
			const msPerNs = 1e-6
			out = append(out, OpLatency{
				Op:     latOpNames[op],
				Codec:  latCodecNames[c],
				Count:  snap.Count,
				MeanMs: float64(snap.Sum) / float64(snap.Count) * msPerNs,
				P50Ms:  float64(snap.Quantile(0.50)) * msPerNs,
				P99Ms:  float64(snap.Quantile(0.99)) * msPerNs,
				P999Ms: float64(snap.Quantile(0.999)) * msPerNs,
			})
		}
	}
	return out
}

// PhaseStat is one row of the stats endpoint's "phases" block: how much
// of the filter's served request time went to one pipeline phase.
type PhaseStat struct {
	Phase string `json:"phase"`
	// TotalMs is the cumulative time attributed to the phase.
	TotalMs float64 `json:"total_ms"`
	// MeanUs is TotalMs spread over every traced request, in µs (phases
	// that a request never entered still divide by the full count).
	MeanUs float64 `json:"mean_us"`
	// Fraction is the share of total traced request time.
	Fraction float64 `json:"fraction"`
}

// phaseSummaries builds the stats "phases" block: one row per phase with
// recorded time, plus a terminal "unattributed" row covering the gap
// between the request totals and the per-phase sums. Nil until a traced
// request completes.
func (s *ShardedFilter) phaseSummaries() []PhaseStat {
	count := s.traceCount.Load()
	if count == 0 {
		return nil
	}
	total := s.traceTotalNs.Load()
	mk := func(name string, ns uint64) PhaseStat {
		st := PhaseStat{
			Phase:   name,
			TotalMs: float64(ns) / 1e6,
			MeanUs:  float64(ns) / float64(count) / 1e3,
		}
		if total > 0 {
			st.Fraction = float64(ns) / float64(total)
		}
		return st
	}
	var out []PhaseStat
	for p := 0; p < obs.NumPhases; p++ {
		if ns := s.phaseNs[p].Load(); ns > 0 {
			out = append(out, mk(obs.Phase(p).String(), ns))
		}
	}
	if un := s.traceUnattrNs.Load(); un > 0 || out != nil {
		out = append(out, mk("unattributed", s.traceUnattrNs.Load()))
	}
	return out
}
