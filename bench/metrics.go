package main

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// metric names one reported number and its unit. BENCHMARK.json lists the
// same names and units; bench_test.go checks that the two agree.
type metric struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"items_per_s", "items/s"},
	{"mem_mb", "MiB"},
	{"fpr_point", "ratio"},
	{"fpr_range", "ratio"},
	{"space_bits_per_key", "bits/key"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer the workload bypasses reads 0.
var perLayer = []metric{
	{"client.lat_p50_us", "us"},
	{"client.lat_p95_us", "us"},
	{"process.cpu_us_per_kitem", "us/kitem"},
	{"client.send_late_p99_us", "us"},
	{"client.outside_server_us_per_req", "us/req"},
	{"codec.decode_ns_per_item", "ns/item"},
	{"codec.encode_ns_per_item", "ns/item"},
	{"http.unattributed_us_per_req", "us/req"},
	{"admission.wait_us_per_req", "us/req"},
	{"shard.dispatch_ns_per_item", "ns/item"},
	{"shard.probes_per_item", "probes/item"},
	{"core.probe_ns_per_item", "ns/item"},
	{"wal.append_us_per_req", "us/req"},
	{"wal.fsync_us_per_req", "us/req"},
	{"wal.records_per_commit", "records/commit"},
	{"wal.fsync_p99_us", "us"},
	{"wal.bytes_per_key", "bytes/key"},
	{"wal.recovery_s", "s"},
	{"snapshot.duration_ms", "ms"},
	{"snapshot.bytes_per_key", "bytes/key"},
	{"snapshot.reused_shard_frac", "ratio"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_mb", "MiB"},
	{"replay.core.query_ns_per_key", "ns/key"},
	{"replay.core.insert_ns_per_key", "ns/key"},
	{"replay.core.range_ns_per_range", "ns/range"},
	{"replay.core.range_loop_ns_per_range", "ns/range"},
	{"replay.shard.query_ns_per_key", "ns/key"},
	{"replay.shard.insert_ns_per_key", "ns/key"},
	{"replay.shard.range_ns_per_range", "ns/range"},
	{"replay.wire.decode_ns_per_key", "ns/key"},
	{"replay.wire.encode_ns_per_key", "ns/key"},
	{"replay.wal.append_us", "us"},
	{"replay.snapshot.marshal_ms", "ms"},
	{"lsm.get_p50_us", "us"},
	{"lsm.scan_p50_us", "us"},
	{"lsm.filter_probe_ns_per_op", "ns/op"},
	{"lsm.filter_negative_frac", "ratio"},
	{"lsm.bytes_read_per_op", "bytes/op"},
	{"lsm.blocks_per_op", "blocks/op"},
	{"lsm.filter_build_s", "s"},
	{"lsm.io_model_us_per_op", "us/op"},
	{"trace.overhead_frac", "ratio"},
}

// report collects what one workload run measured.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64 // operations sent in the measured loops
	failed    int64 // of those, non-200 answers and transport errors
	wrong     int64 // answers that broke a correctness rule
	firstErr  string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// noteWrong records a wrong answer; the first one is kept for the log.
func (r *report) noteWrong(format string, args ...any) {
	if r.wrong == 0 {
		r.firstErr = fmt.Sprintf(format, args...)
	}
	r.wrong++
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]output `json:"metrics"`
}

type output struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric of specs, one per line, and returns them keyed
// by name. A value the workload set under a name outside specs is a bug in
// the benchmark and fails the run; a spec the workload did not set reads 0,
// the value of a layer the workload bypasses.
func emit(w io.Writer, kind string, specs []metric, vals map[string]float64) (map[string]output, error) {
	for name := range vals {
		if !slices.ContainsFunc(specs, func(m metric) bool { return m.name == name }) {
			return nil, fmt.Errorf("workload set unknown %s metric %q", kind, name)
		}
	}
	out := make(map[string]output, len(specs))
	for _, m := range specs {
		v := vals[m.name]
		fmt.Fprintf(w, "%s %-36s %14.6g %s\n", kind, m.name, v, m.unit)
		out[m.name] = output{Value: v, Unit: m.unit}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// micros converts durations to microseconds for quantile.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
