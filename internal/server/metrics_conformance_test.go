package server

import (
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Prometheus text-format conformance: render a /metrics payload from a
// server exercising every metric family — WAL, both codecs, snapshots, a
// split, phase traces, a replication-lag histogram — and parse the whole
// exposition line by line, checking the structural rules a real scraper
// relies on: every sample belongs to a family declared by exactly one
// HELP/TYPE pair appearing before its first sample, label values are
// properly escaped, and every histogram has nondecreasing cumulative
// buckets terminated by +Inf with consistent _sum/_count samples.

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   string
}

// parsePromLabels parses the {...} block of a sample line, failing on
// unescaped quotes or newlines inside values.
func parsePromLabels(t *testing.T, s, line string) map[string]string {
	t.Helper()
	out := map[string]string{}
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			t.Fatalf("label block %q malformed in %q", s, line)
		}
		name := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			t.Fatalf("label %q not quoted in %q", name, line)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				t.Fatalf("unterminated label value in %q", line)
			}
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					t.Fatalf("dangling escape in %q", line)
				}
				next := s[i+1]
				if next != '\\' && next != '"' && next != 'n' {
					t.Fatalf("invalid escape \\%c in %q", next, line)
				}
				val.WriteByte(next)
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			if c == '\n' {
				t.Fatalf("raw newline inside label value in %q", line)
			}
			val.WriteByte(c)
			i++
		}
		out[name] = val.String()
		if i < len(s) {
			if s[i] != ',' {
				t.Fatalf("expected ',' after label in %q", line)
			}
			i++
		}
	}
	return out
}

// labelKey serializes labels (minus `le`) into a stable grouping key.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// histFamily strips a histogram sample suffix, returning the family name
// and which kind of sample it is ("bucket", "sum", "count", or "").
func histSuffix(name string) (string, string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf), suf[1:]
		}
	}
	return name, ""
}

// conformanceAPI builds an API whose /metrics exposes every family the
// server can emit.
func conformanceAPI(t *testing.T) *API {
	t.Helper()
	dir := t.TempDir()
	store, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	wlog := openWALT(t, filepath.Join(dir, "wal"))
	store.SetWALSource(wlog)
	reg := NewRegistry()
	var lagHist obs.Hist
	for _, v := range []int64{0, 4096, 1 << 20, 1 << 24} {
		lagHist.Observe(v)
	}
	api := NewConfiguredAPI(reg, store, Config{
		WAL:                  wlog,
		MaxInflightBatches:   64,
		SkewAlertThreshold:   4,
		SlowRequestThreshold: 100 * time.Millisecond,
		Replication: func() ReplicationStatus {
			return ReplicationStatus{Primary: "http://primary:9  \"x\"", Connected: true,
				AppliedPos: 10, PrimaryPos: 10, LastFrameUnixNano: time.Now().UnixNano(), Reconnects: 2}
		},
		ReplicationLag: lagHist.Read,
	})
	t.Cleanup(func() { wlog.Close() })

	// A range-partitioned filter with traffic on both codecs, a snapshot
	// and a split; the name needs escaping on /metrics.
	name := `esc\ape"d`
	if _, err := reg.Create(name, FilterOptions{ExpectedKeys: 50_000, Shards: 2, Partitioning: PartitionRange}); err != nil {
		t.Fatal(err)
	}
	esc := strings.ReplaceAll(strings.ReplaceAll(name, "\\", "%5C"), "\"", "%22")
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = uint64(i) * 1_000_003
	}
	ins := wire.AppendKeysRequest(nil, wire.OpInsert, keys)
	for i := 0; i < 3; i++ {
		if rec := doBinReq(t, api, "POST", "/v1/filters/"+esc+"/insert", wire.ContentType, ins); rec.Code != http.StatusOK {
			t.Fatalf("insert: %d %s", rec.Code, rec.Body.String())
		}
		if rec := doBinReq(t, api, "POST", "/v1/filters/"+esc+"/query", wire.ContentType,
			wire.AppendKeysRequest(nil, wire.OpQuery, keys)); rec.Code != http.StatusOK {
			t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
		}
	}
	if code, body := doReq(t, api, "POST", "/v1/filters/"+esc+"/query-range", `{"ranges":[{"lo":1,"hi":100}]}`); code != http.StatusOK {
		t.Fatalf("query-range: %d %s", code, body)
	}
	if code, body := doReq(t, api, "POST", "/v1/filters/"+esc+"/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, body)
	}
	if code, body := doReq(t, api, "POST", "/v1/filters/"+esc+"/split", "{}"); code != http.StatusOK {
		t.Fatalf("split: %d %s", code, body)
	}
	return api
}

func TestMetricsPrometheusConformance(t *testing.T) {
	api := conformanceAPI(t)
	_, body := doReq(t, api, "GET", "/metrics", "")

	helped := map[string]bool{}
	typed := map[string]string{}
	sampled := map[string]bool{} // families that have emitted a sample
	var samples []promSample

	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("HELP without text: %q", line)
			}
			if helped[name] {
				t.Fatalf("duplicate HELP for %s", name)
			}
			helped[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE: %q", line)
			}
			name, typ := parts[0], parts[1]
			if _, dup := typed[name]; dup {
				t.Fatalf("duplicate TYPE for %s", name)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("unknown type %q: %q", typ, line)
			}
			if !helped[name] {
				t.Fatalf("TYPE before HELP for %s", name)
			}
			if sampled[name] {
				t.Fatalf("TYPE for %s appears after its first sample", name)
			}
			typed[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		head, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		s := promSample{value: val, line: line, labels: map[string]string{}}
		if br := strings.IndexByte(head, '{'); br >= 0 {
			if !strings.HasSuffix(head, "}") {
				t.Fatalf("unterminated label block in %q", line)
			}
			s.name = head[:br]
			s.labels = parsePromLabels(t, head[br+1:len(head)-1], line)
		} else {
			s.name = head
		}
		fam, _ := histSuffix(s.name)
		if typed[fam] == "histogram" {
			sampled[fam] = true
		} else {
			if _, ok := typed[s.name]; !ok {
				t.Fatalf("sample %q has no TYPE declaration", line)
			}
			sampled[s.name] = true
		}
		samples = append(samples, s)
	}

	for name := range typed {
		if !sampled[name] {
			t.Errorf("family %s declared but has no samples", name)
		}
	}

	// Histogram structure per (family, labelset): cumulative buckets
	// nondecreasing in exposition order, +Inf last and equal to _count,
	// _sum present, le bounds strictly increasing.
	type histState struct {
		lastCum  float64
		lastLE   float64
		infSeen  bool
		infValue float64
		sum, cnt *float64
	}
	hists := map[string]*histState{}
	for i := range samples {
		s := &samples[i]
		fam, kind := histSuffix(s.name)
		if typed[fam] != "histogram" {
			continue
		}
		key := fam + "|" + labelKey(s.labels)
		h := hists[key]
		if h == nil {
			h = &histState{lastLE: math.Inf(-1)}
			hists[key] = h
		}
		switch kind {
		case "bucket":
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("bucket without le: %q", s.line)
			}
			var bound float64
			if le == "+Inf" {
				bound = math.Inf(1)
				h.infSeen, h.infValue = true, s.value
			} else if bound, _ = strconv.ParseFloat(le, 64); bound <= 0 {
				t.Fatalf("non-positive le %q: %q", le, s.line)
			}
			if bound <= h.lastLE {
				t.Fatalf("le bounds not increasing at %q", s.line)
			}
			if s.value < h.lastCum {
				t.Fatalf("bucket not cumulative at %q (%g < %g)", s.line, s.value, h.lastCum)
			}
			h.lastLE, h.lastCum = bound, s.value
		case "sum":
			v := s.value
			h.sum = &v
		case "count":
			v := s.value
			h.cnt = &v
		}
	}
	if len(hists) == 0 {
		t.Fatal("no histogram series found")
	}
	for key, h := range hists {
		if !h.infSeen {
			t.Errorf("histogram %s has no +Inf bucket", key)
			continue
		}
		if h.cnt == nil || h.sum == nil {
			t.Errorf("histogram %s missing _sum or _count", key)
			continue
		}
		if *h.cnt != h.infValue {
			t.Errorf("histogram %s: _count %g != +Inf bucket %g", key, *h.cnt, h.infValue)
		}
	}

	// The families this PR introduces must all be present.
	for _, fam := range []string{
		"bloomrfd_phase_seconds", "bloomrfd_op_latency_seconds",
		"bloomrfd_filter_phase_seconds_total",
		"bloomrfd_wal_fsync_seconds", "bloomrfd_wal_commit_batch_records",
		"bloomrfd_wal_appends_total", "bloomrfd_wal_group_commits_total",
		"bloomrfd_replication_record_lag_bytes", "bloomrfd_replication_reconnects_total",
		"bloomrfd_filter_split_seconds_total", "bloomrfd_filter_snapshot_duration_seconds",
		"bloomrfd_go_goroutines", "bloomrfd_go_heap_objects_bytes",
		"bloomrfd_go_gc_pause_seconds_total", "bloomrfd_filter_mapped_bytes", "bloomrfd_build_info",
		"bloomrfd_role", "bloomrfd_epoch", "bloomrfd_promotions_total",
		"bloomrfd_fencing_rejections_total", "bloomrfd_readonly_mode",
		"bloomrfd_replication_primary_unreachable", "bloomrfd_replication_backoff_seconds",
	} {
		if !sampled[fam] {
			t.Errorf("expected family %s absent from /metrics", fam)
		}
	}

	// The escaped filter name survives a parse round-trip.
	found := false
	for i := range samples {
		if samples[i].labels["filter"] == `esc\ape"d` {
			found = true
			break
		}
	}
	if !found {
		t.Error(`filter label esc\ape"d not recovered from exposition`)
	}
}
