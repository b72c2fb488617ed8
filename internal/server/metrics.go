package server

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
)

// GET /metrics renders the registry's counters in the Prometheus text
// exposition format, hand-rolled so the server stays dependency-free. The
// field set is documented in docs/server.md; counters come from each
// filter's ShardedStats, snapshot gauges from its LastSnapshot, and the
// per-partition traffic/skew series from the per-shard counters.

// labelEscaper escapes a label value per the Prometheus text format; a
// Replacer is safe for concurrent use, so one instance serves all scrapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// label is one name="value" pair of a sample.
type label struct{ name, value string }

// metricsWriter accumulates one exposition payload, emitting each metric's
// HELP/TYPE header once before its first sample.
type metricsWriter struct {
	b      strings.Builder
	headed map[string]bool
}

// header emits the metric's HELP/TYPE lines once per exposition.
func (m *metricsWriter) header(name, help, typ string) {
	if !m.headed[name] {
		fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		m.headed[name] = true
	}
}

// raw appends one sample line without header bookkeeping; the histogram
// exporter uses it because a histogram's _bucket/_sum/_count samples share
// one header under the family name. labels may be nil; values are escaped
// here, so callers pass them raw.
func (m *metricsWriter) raw(name string, labels []label, value float64) {
	if len(labels) == 0 {
		fmt.Fprintf(&m.b, "%s %g\n", name, value)
		return
	}
	m.b.WriteString(name)
	m.b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			m.b.WriteByte(',')
		}
		// escapeLabel already produces the exact quoted form; %q would
		// escape the escapes and corrupt values containing \ or ".
		fmt.Fprintf(&m.b, "%s=\"%s\"", l.name, escapeLabel(l.value))
	}
	fmt.Fprintf(&m.b, "} %g\n", value)
}

// sample appends one sample line, with the metric's HELP/TYPE header before
// the first.
func (m *metricsWriter) sample(name, help, typ string, labels []label, value float64) {
	m.header(name, help, typ)
	m.raw(name, labels, value)
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	m := &metricsWriter{headed: make(map[string]bool)}
	names := a.reg.Names()
	m.sample("bloomrfd_filters", "Number of registered filters.", "gauge", nil, float64(len(names)))
	m.sample("bloomrfd_uptime_seconds", "Seconds since the API was created.", "gauge", nil,
		now.Sub(a.start).Seconds())
	m.sample("bloomrfd_persistence_enabled", "1 when a -data-dir snapshot store is attached.", "gauge", nil,
		boolGauge(a.store != nil))
	if ad := a.adm; ad != nil {
		m.sample("bloomrfd_admission_limit", "Configured -max-inflight-batches bound.", "gauge", nil,
			float64(ad.limit))
		m.sample("bloomrfd_admission_inflight", "Insert/query/query-range requests currently executing (never exceeds the limit).", "gauge", nil,
			float64(ad.inflight.Load()))
		m.sample("bloomrfd_admission_rejected_total", "Requests shed with 429 because the in-flight limit was reached.", "counter", nil,
			float64(ad.rejected.Load()))
	}
	m.sample("bloomrfd_readonly", "1 when this server rejects mutations (replication follower).", "gauge", nil,
		boolGauge(a.readOnly.Load()))
	m.sample("bloomrfd_role", "1 for the server's current serving role (primary/follower/read-only/fenced/standalone).", "gauge",
		[]label{{"role", a.role()}}, 1)
	m.sample("bloomrfd_epoch", "Promotion epoch this server serves at (0 outside any replication topology).", "gauge", nil,
		float64(a.epochValue()))
	m.sample("bloomrfd_promotions_total", "Times this process promoted itself from follower to primary.", "counter", nil,
		float64(a.promotions.Load()))
	m.sample("bloomrfd_fencing_rejections_total", "Mutations and stream requests rejected with a fencing error (epoch mismatch or fenced node).", "counter", nil,
		float64(a.fencingRejections.Load()))
	m.sample("bloomrfd_readonly_mode", "1 while the WAL cannot append and mutations answer 503 (degraded read-only).", "gauge", nil,
		boolGauge(a.walFailed.Load()))
	if l := a.wal(); l != nil {
		st := l.Stats()
		m.sample("bloomrfd_wal_end_pos", "Logical end of the write-ahead log (bytes ever appended).", "counter", nil, float64(st.End))
		m.sample("bloomrfd_wal_durable_pos", "WAL prefix known to be fsynced.", "counter", nil, float64(st.Durable))
		m.sample("bloomrfd_wal_oldest_pos", "Start of the oldest retained WAL segment (grows with truncation).", "counter", nil, float64(st.Oldest))
		m.sample("bloomrfd_wal_retained_bytes", "WAL bytes currently on disk (end - oldest).", "gauge", nil, float64(st.End-st.Oldest))
		m.sample("bloomrfd_wal_segments", "Number of WAL segment files.", "gauge", nil, float64(st.Segments))
		m.sample("bloomrfd_wal_appends_total", "WAL records acknowledged to writers.", "counter", nil, float64(st.Appends))
		m.sample("bloomrfd_wal_group_commits_total", "Group-commit batches written (appends/group_commits = mean batch size).", "counter", nil, float64(st.GroupCommits))
		m.sample("bloomrfd_wal_rotations_total", "Segments sealed by size-based rotation.", "counter", nil, float64(st.Rotations))
		m.sample("bloomrfd_wal_truncated_segments_total", "Segments removed by retention truncation.", "counter", nil, float64(st.TruncatedSegments))
		m.sample("bloomrfd_wal_fsyncs_total", "fsync calls issued by the WAL (commit, interval, rotation, explicit).", "counter", nil, float64(st.Fsyncs))
		if st.FsyncLatency.Count > 0 {
			histogramFamily(m, "bloomrfd_wal_fsync_seconds",
				"WAL fsync latency.", nil, st.FsyncLatency, 1e-9)
		}
		if st.GroupCommits > 0 {
			m.header("bloomrfd_wal_commit_batch_records",
				"Records per group-commit batch (batch sizes sum to appends).", "histogram")
			var cum uint64
			for i := 0; i < wal.BatchBuckets; i++ {
				cum += st.CommitBatchRecords[i]
				le := "+Inf"
				if b := wal.BatchBucketLE(i); b >= 0 {
					le = strconv.Itoa(b)
				}
				m.raw("bloomrfd_wal_commit_batch_records_bucket", []label{{"le", le}}, float64(cum))
			}
			m.raw("bloomrfd_wal_commit_batch_records_sum", nil, float64(st.Appends))
			m.raw("bloomrfd_wal_commit_batch_records_count", nil, float64(cum))
		}
	}
	if a.cfg.Replication != nil {
		rs := a.cfg.Replication()
		m.sample("bloomrfd_replication_connected", "1 while the follower's stream to the primary is open.", "gauge", nil,
			boolGauge(rs.Connected))
		m.sample("bloomrfd_replication_applied_pos", "Primary WAL position the follower has applied through.", "counter", nil,
			float64(rs.AppliedPos))
		m.sample("bloomrfd_replication_primary_pos", "Primary WAL end as of the last frame.", "counter", nil,
			float64(rs.PrimaryPos))
		m.sample("bloomrfd_replication_lag_bytes", "How far the follower trails the primary, in WAL bytes.", "gauge", nil,
			float64(rs.LagBytes))
		if rs.LastFrameUnixNano > 0 {
			m.sample("bloomrfd_replication_last_frame_age_seconds", "Seconds since any frame arrived from the primary.", "gauge", nil,
				now.Sub(time.Unix(0, rs.LastFrameUnixNano)).Seconds())
		}
		m.sample("bloomrfd_replication_reconnects_total", "Times the follower re-dialed the primary after a stream break.", "counter", nil,
			float64(rs.Reconnects))
		m.sample("bloomrfd_replication_primary_unreachable", "1 while no frame has arrived within -replication-heartbeat-timeout.", "gauge", nil,
			boolGauge(rs.PrimaryUnreachable))
		m.sample("bloomrfd_replication_backoff_seconds", "Reconnect delay before the follower's next dial (0 while connected).", "gauge", nil,
			rs.BackoffSeconds)
	}
	if a.cfg.ReplicationLag != nil {
		if snap := a.cfg.ReplicationLag(); snap.Count > 0 {
			histogramFamily(m, "bloomrfd_replication_record_lag_bytes",
				"Follower lag in WAL bytes, sampled at every applied record (catches spikes between scrapes that the instantaneous gauge misses).",
				nil, snap, 1)
		}
	}
	goRuntimeMetrics(m)
	sort.Strings(names)
	for _, name := range names {
		f, err := a.reg.Get(name)
		if err != nil {
			continue // deleted between Names and Get
		}
		st := f.Stats()
		fl := []label{{"filter", name}}
		m.sample("bloomrfd_filter_inserted_keys_total", "Keys inserted (duplicates count).", "counter", fl, float64(st.InsertedKeys))
		m.sample("bloomrfd_filter_point_queries_total", "Point-membership probes served.", "counter", fl, float64(st.PointQueries))
		m.sample("bloomrfd_filter_point_positives_total", "Point probes answered maybe.", "counter", fl, float64(st.PointPositives))
		m.sample("bloomrfd_filter_range_queries_total", "Range-membership probes served.", "counter", fl, float64(st.RangeQueries))
		m.sample("bloomrfd_filter_range_positives_total", "Range probes answered maybe.", "counter", fl, float64(st.RangePositives))
		m.sample("bloomrfd_filter_shards", "Shard fan-out of the filter.", "gauge", fl, float64(st.Shards))
		m.sample("bloomrfd_filter_partitioning_mode", "1 for the filter's key-routing mode (hash or range).", "gauge",
			[]label{{"filter", name}, {"mode", string(st.Partitioning)}}, 1)
		m.sample("bloomrfd_filter_size_bits", "Total bit-array capacity.", "gauge", fl, float64(st.SizeBits))
		m.sample("bloomrfd_filter_set_bits", "Bits currently set.", "gauge", fl, float64(st.SetBits))
		m.sample("bloomrfd_filter_fill_ratio", "set_bits / size_bits.", "gauge", fl, st.FillRatio)
		m.sample("bloomrfd_filter_key_skew", "max/mean of per-shard resident keys (1 = even, 0 = empty).", "gauge", fl, st.KeySkew)
		m.sample("bloomrfd_filter_splits_total", "Completed live span splits since process start.", "counter", fl, float64(st.Splits))
		m.sample("bloomrfd_filter_table_epoch", "Shard-table topology epoch of this incarnation (increments on every split).", "gauge", fl, float64(st.TableEpoch))
		if a.cfg.SkewAlertThreshold > 0 && st.Partitioning == PartitionRange {
			m.sample("bloomrfd_filter_skew_alert",
				"1 while a range-partitioned filter's key_skew exceeds -skew-alert-threshold.", "gauge", fl,
				boolGauge(a.noteSkew(name, st.KeySkew)))
		}
		for sh := range st.ShardKeys {
			sl := []label{{"filter", name}, {"shard", strconv.Itoa(sh)}}
			m.sample("bloomrfd_filter_shard_keys", "Keys resident in the shard (placement skew).", "gauge", sl, float64(st.ShardKeys[sh]))
			m.sample("bloomrfd_filter_shard_point_probes_total", "Point probes routed to the shard.", "counter", sl, float64(st.ShardPointProbes[sh]))
			m.sample("bloomrfd_filter_shard_range_probes_total", "Range probes routed to the shard (range partitioning routes narrow queries to one shard).", "counter", sl, float64(st.ShardRangeProbes[sh]))
			if st.Spans != nil {
				m.sample("bloomrfd_filter_shard_span_start", "Smallest key the shard owns (range partitioning; splits divide spans).", "gauge", sl, float64(st.Spans[sh]))
			}
		}
		if st.Splits > 0 {
			m.sample("bloomrfd_filter_split_seconds_total", "Cumulative wall time spent performing live span splits.", "counter", fl,
				float64(f.splitNs.Load())*1e-9)
			m.sample("bloomrfd_filter_split_replayed_records_total", "WAL records replayed through split drain barriers.", "counter", fl,
				float64(f.splitReplayed.Load()))
		}
		if snap := st.Snapshot; snap != nil {
			m.sample("bloomrfd_filter_snapshot_seq", "Sequence number of the last durable snapshot.", "gauge", fl, float64(snap.Seq))
			m.sample("bloomrfd_filter_snapshot_age_seconds", "Seconds since the last durable snapshot.", "gauge", fl,
				now.Sub(time.Unix(0, snap.UnixNano)).Seconds())
			m.sample("bloomrfd_filter_snapshot_bytes", "Total shard-blob bytes of the last durable snapshot.", "gauge", fl, float64(snap.Bytes))
			m.sample("bloomrfd_filter_snapshot_reused_shards", "Shard blobs the last snapshot reused unchanged from its predecessor (incremental capture).", "gauge", fl, float64(snap.ReusedShards))
			if snap.DurationNanos > 0 {
				m.sample("bloomrfd_filter_snapshot_duration_seconds", "Wall time the last snapshot capture took.", "gauge", fl,
					float64(snap.DurationNanos)*1e-9)
			}
		}
		latencyMetrics(m, name, f)
		filterPhaseMetrics(m, name, f)
	}
	a.phaseMetrics(m)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(m.b.String()))
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// histogramFamily renders one obs.HistSnapshot as a Prometheus histogram
// at octave granularity: the fine-grained internal sub-buckets would cost
// ~170 lines per series on every scrape, so each octave's counts collapse
// into one cumulative `le` bound (22 bounds plus +Inf). scale converts the
// histogram's native unit into the exported one — 1e-9 for nanosecond
// histograms exported in seconds, 1 for byte histograms.
func histogramFamily(m *metricsWriter, family, help string, base []label, snap obs.HistSnapshot, scale float64) {
	m.header(family, help, "histogram")
	n := len(base)
	cum := snap.Buckets[0]
	m.raw(family+"_bucket",
		append(base[:n:n], label{"le", leScaled(1<<obs.MinExp, scale)}), float64(cum))
	idx := 1
	for e := obs.MinExp; e < obs.MaxExp; e++ {
		for s := 0; s < obs.Sub; s++ {
			cum += snap.Buckets[idx]
			idx++
		}
		m.raw(family+"_bucket",
			append(base[:n:n], label{"le", leScaled(1<<(e+1), scale)}), float64(cum))
	}
	cum += snap.Buckets[idx]
	m.raw(family+"_bucket",
		append(base[:n:n], label{"le", "+Inf"}), float64(cum))
	m.raw(family+"_sum", base, float64(snap.Sum)*scale)
	m.raw(family+"_count", base, float64(cum))
}

// latencyMetrics renders one filter's per-op latency histograms plus
// precomputed p50/p99/p999 gauges walked over the full-resolution
// buckets. Series with zero observations are omitted so idle filters do
// not bloat the exposition.
func latencyMetrics(m *metricsWriter, name string, f *ShardedFilter) {
	for op := latOp(0); op < numLatOps; op++ {
		for c := latCodec(0); c < numLatCodecs; c++ {
			snap := f.lat[op][c].Read()
			if snap.Count == 0 {
				continue
			}
			base := []label{{"filter", name}, {"op", latOpNames[op]}, {"codec", latCodecNames[c]}}
			histogramFamily(m, "bloomrfd_op_latency_seconds",
				"Server-side latency of served requests by operation and codec: the phase-trace total, from before admission to response written (same count as bloomrfd_filter_traced_requests_total).",
				base, snap, 1e-9)
			m.sample("bloomrfd_op_latency_p50_seconds",
				"Median server-side latency (bucket upper bound).", "gauge", base, float64(snap.Quantile(0.50))*1e-9)
			m.sample("bloomrfd_op_latency_p99_seconds",
				"99th-percentile server-side latency (bucket upper bound).", "gauge", base, float64(snap.Quantile(0.99))*1e-9)
			m.sample("bloomrfd_op_latency_p999_seconds",
				"99.9th-percentile server-side latency (bucket upper bound).", "gauge", base, float64(snap.Quantile(0.999))*1e-9)
		}
	}
}

// phaseMetrics renders the API-global per-phase histograms — the
// Fig. 12.G-style decomposition of server-side latency into pipeline
// phases — plus p50/p99 gauges per series.
func (a *API) phaseMetrics(m *metricsWriter) {
	for p := 0; p < obs.NumPhases; p++ {
		for op := latOp(0); op < numLatOps; op++ {
			for c := latCodec(0); c < numLatCodecs; c++ {
				snap := a.phases.h[p][op][c].Read()
				if snap.Count == 0 {
					continue
				}
				base := []label{{"phase", obs.Phase(p).String()}, {"op", latOpNames[op]}, {"codec", latCodecNames[c]}}
				histogramFamily(m, "bloomrfd_phase_seconds",
					"Time spent in one request pipeline phase (decode, admission-wait, shard-dispatch, probe, wal-append, wal-fsync, encode), by operation and codec.",
					base, snap, 1e-9)
				m.sample("bloomrfd_phase_p50_seconds",
					"Median per-request time in the phase (bucket upper bound).", "gauge", base, float64(snap.Quantile(0.50))*1e-9)
				m.sample("bloomrfd_phase_p99_seconds",
					"99th-percentile per-request time in the phase (bucket upper bound).", "gauge", base, float64(snap.Quantile(0.99))*1e-9)
			}
		}
	}
}

// filterPhaseMetrics renders one filter's cumulative per-phase counters:
// coarser than the global histograms (no distribution) but attributable
// to a filter, which the pooled global table is not.
func filterPhaseMetrics(m *metricsWriter, name string, f *ShardedFilter) {
	count := f.traceCount.Load()
	if count == 0 {
		return
	}
	fl := []label{{"filter", name}}
	for p := 0; p < obs.NumPhases; p++ {
		if ns := f.phaseNs[p].Load(); ns > 0 {
			m.sample("bloomrfd_filter_phase_seconds_total",
				"Cumulative time the filter's traced requests spent in one pipeline phase.", "counter",
				[]label{{"filter", name}, {"phase", obs.Phase(p).String()}}, float64(ns)*1e-9)
		}
	}
	m.sample("bloomrfd_filter_traced_requests_total",
		"Requests whose phase trace completed (success responses).", "counter", fl, float64(count))
	m.sample("bloomrfd_filter_trace_unattributed_seconds_total",
		"Traced request time not attributed to any phase (should stay a small fraction).", "counter", fl,
		float64(f.traceUnattrNs.Load())*1e-9)
}

// goRuntimeMetrics exports process-health gauges from runtime/metrics,
// read fresh per scrape, the filter words mapped outside the Go heap, and
// the build-info gauge.
func goRuntimeMetrics(m *metricsWriter) {
	samples := []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/cpu/classes/gc/pause:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		m.sample("bloomrfd_go_goroutines", "Live goroutines.", "gauge", nil,
			float64(samples[0].Value.Uint64()))
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		m.sample("bloomrfd_go_heap_objects_bytes", "Bytes of live heap objects.", "gauge", nil,
			float64(samples[1].Value.Uint64()))
	}
	m.sample("bloomrfd_filter_mapped_bytes", "Bytes of filter words mapped outside the Go heap.", "gauge", nil,
		float64(core.MappedBytes()))
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		m.sample("bloomrfd_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter", nil,
			samples[2].Value.Float64())
	}
	m.sample("bloomrfd_build_info", "Build metadata; value is always 1.", "gauge",
		[]label{{"go_version", runtime.Version()}, {"os", runtime.GOOS}, {"arch", runtime.GOARCH}}, 1)
}

// leScaled formats a native-unit bucket bound as a Prometheus `le` label
// value in the exported unit.
func leScaled(bound int64, scale float64) string {
	return strconv.FormatFloat(float64(bound)*scale, 'g', -1, 64)
}

// skewCheckInterval throttles the mutation-path skew evaluation: computing
// key skew is an O(shards) atomic walk — trivial once a second, wasteful
// on every request of a 100k-QPS insert flood.
const skewCheckInterval = time.Second

// noteMutationSkew evaluates the partition-skew policies after a mutation
// on a range-partitioned filter, at most once per skewCheckInterval per
// filter: the once-per-episode alert (so the documented warning is
// scrape-independent — before this hook, noteSkew ran only from
// handleMetrics, and a deployment without a Prometheus scraper never got
// the log line at all) and the auto-split trigger.
func (a *API) noteMutationSkew(name string, f *ShardedFilter) {
	alerting := a.cfg.SkewAlertThreshold > 0
	splitting := a.cfg.AutoSplitSkewThreshold > 0
	if (!alerting && !splitting) || f.Partitioning() != PartitionRange {
		return
	}
	now := time.Now().UnixNano()
	a.skewMu.Lock()
	if last := a.skewChecked[name]; now-last < int64(skewCheckInterval) {
		a.skewMu.Unlock()
		return
	}
	a.skewChecked[name] = now
	a.skewMu.Unlock()
	skew := f.KeySkew()
	if alerting {
		a.noteSkew(name, skew)
	}
	if splitting {
		a.maybeAutoSplit(name, f, skew)
	}
}

// maybeAutoSplit starts one background auto-split episode when a filter's
// key_skew exceeds -auto-split-skew-threshold: split the hottest span,
// re-measure, repeat until the skew drops under the threshold or the
// episode budget (maxAutoSplitsPerTrigger) or shard ceiling is reached —
// or until the hottest span has no observed inserts to place a cut by, so
// every automatic cut is a real histogram median and convergence rides on
// sustained traffic rather than blind bisection.
// The CAS admits one episode per filter at a time, so a flood of skewed
// inserts triggers one loop, not one split attempt per request; the loop
// runs off the request path because a split costs a shard marshal +
// rebuild, which no insert should wait on. The API owns the episode: Close
// waits for it, and it stops splitting once Close has begun, so no split
// record lands after the final snapshot.
func (a *API) maybeAutoSplit(name string, f *ShardedFilter, skew float64) {
	thr := a.cfg.AutoSplitSkewThreshold
	if skew <= thr || f.NumShards() >= MaxShards {
		return
	}
	if !f.autoSplitting.CompareAndSwap(false, true) {
		return
	}
	episode := func() {
		defer f.autoSplitting.Store(false)
		for i := 0; i < maxAutoSplitsPerTrigger; i++ {
			if a.closing() || f.KeySkew() <= thr || f.NumShards() >= MaxShards {
				return
			}
			tab := f.tab.Load()
			h := hottestShard(tab)
			if h < 0 {
				return // every span is a single key; nothing left to divide
			}
			if _, total := tab.shards[h].histSnapshot(); total == 0 {
				// The hottest span has seen no inserts since it was created
				// (a freshly split replacement, or a restored shard without
				// traffic yet): a split now would cut blind at the span
				// midpoint and divide the key counters half/half on no
				// evidence, compounding into phantom counts on spans that
				// hold nothing. End the episode; the next insert wave
				// repopulates the histogram and re-triggers.
				return
			}
			if _, err := a.performSplit(name, f, SplitOptions{Shard: h}); err != nil {
				a.cfg.Logf("server: warn=auto_split_failed filter=%q err=%q", name, err.Error())
				return
			}
		}
	}
	if !a.spawn(episode) {
		f.autoSplitting.Store(false)
	}
}

// noteSkew evaluates the partition-skew alert for one range-partitioned
// filter, logging a structured warning when the filter crosses the
// threshold (and a recovery line when it drops back) so the alert fires
// once per episode, not once per scrape. Returns whether the alert is
// currently raised.
func (a *API) noteSkew(name string, skew float64) bool {
	alert := skew > a.cfg.SkewAlertThreshold
	a.skewMu.Lock()
	was := a.skewAlerted[name]
	if alert != was {
		if alert {
			a.skewAlerted[name] = true
		} else {
			delete(a.skewAlerted, name)
		}
	}
	a.skewMu.Unlock()
	if alert && !was {
		a.cfg.Logf("server: warn=key_skew_alert filter=%q partitioning=range key_skew=%.2f threshold=%.2f "+
			"hint=\"hot key span; consider hash partitioning or more shards\"",
			name, skew, a.cfg.SkewAlertThreshold)
	} else if !alert && was {
		a.cfg.Logf("server: info=key_skew_recovered filter=%q key_skew=%.2f threshold=%.2f",
			name, skew, a.cfg.SkewAlertThreshold)
	}
	return alert
}
