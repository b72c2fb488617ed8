package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/wal"
	"repro/internal/wire"
)

// newBinaryTestAPI builds an API with one filter for codec tests.
func newBinaryTestAPI(t testing.TB, opt FilterOptions) (*API, *ShardedFilter) {
	t.Helper()
	reg := NewRegistry()
	f, err := reg.Create("f", opt)
	if err != nil {
		t.Fatal(err)
	}
	return NewAPI(reg), f
}

func doBinReq(t testing.TB, a *API, method, path, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, req)
	return rec
}

// TestBinaryJSONEquivalence drives random workloads through the JSON and
// binary codecs on the same filters and requires bit-identical verdicts:
// keys inserted through one codec must be visible through the other, and
// every batch query must agree element-wise across codecs, for both
// partitioning modes and batch sizes straddling the insert fan-out
// threshold.
func TestBinaryJSONEquivalence(t *testing.T) {
	for _, mode := range []Partitioning{PartitionHash, PartitionRange} {
		t.Run(string(mode), func(t *testing.T) {
			a, _ := newBinaryTestAPI(t, FilterOptions{
				ExpectedKeys: 200_000, BitsPerKey: 16, Shards: 8, Partitioning: mode,
			})
			rng := rand.New(rand.NewSource(404))

			for round, n := range []int{3, fanOutMinKeys / 2, 3 * fanOutMinKeys} {
				insJSON := make([]uint64, n)
				insBin := make([]uint64, n)
				for i := range insJSON {
					insJSON[i] = rng.Uint64()
					insBin[i] = rng.Uint64()
				}

				// Insert one population per codec.
				body, _ := json.Marshal(map[string]any{"keys": insJSON})
				if rec := doBinReq(t, a, "POST", "/v1/filters/f/insert", "application/json", body); rec.Code != http.StatusOK {
					t.Fatalf("round %d: JSON insert: %d %s", round, rec.Code, rec.Body)
				}
				frame := wire.AppendKeysRequest(nil, wire.OpInsert, insBin)
				rec := doBinReq(t, a, "POST", "/v1/filters/f/insert", wire.ContentType, frame)
				if rec.Code != http.StatusOK {
					t.Fatalf("round %d: binary insert: %d %s", round, rec.Code, rec.Body)
				}
				h, err := wire.ParseHeader(rec.Body.Bytes())
				if err != nil || h.Op != wire.OpAck || int(h.Count) != n {
					t.Fatalf("round %d: binary insert ack %+v err %v", round, h, err)
				}

				// Query a mixed workload through both codecs.
				queries := make([]uint64, 2*n)
				for i := range queries {
					switch i % 3 {
					case 0:
						queries[i] = insJSON[rng.Intn(n)]
					case 1:
						queries[i] = insBin[rng.Intn(n)]
					default:
						queries[i] = rng.Uint64()
					}
				}
				jr := queryJSON(t, a, queries)
				br := queryBinary(t, a, queries)
				for i := range queries {
					if jr[i] != br[i] {
						t.Fatalf("round %d: query %d (%#x): json=%v binary=%v", round, i, queries[i], jr[i], br[i])
					}
					// Slots 0 and 1 mod 3 replay inserted keys (one codec
					// each); a filter never false-negatives, so both codecs
					// must report them present — codec-identical wrongness
					// would slip past the jr==br check alone.
					if i%3 != 2 && !br[i] {
						t.Fatalf("round %d: inserted key %#x (query %d) lost", round, queries[i], i)
					}
				}

				// Range queries through both codecs.
				ranges := make([][2]uint64, n)
				for i := range ranges {
					lo := rng.Uint64()
					ranges[i] = [2]uint64{lo, lo + uint64(rng.Intn(1<<30))}
					if i%4 == 0 { // anchor some ranges on inserted keys
						x := insBin[rng.Intn(n)]
						ranges[i] = [2]uint64{x - 50, x + 50}
					}
				}
				jrr := queryRangeJSON(t, a, ranges)
				brr := queryRangeBinary(t, a, ranges)
				for i := range ranges {
					if jrr[i] != brr[i] {
						t.Fatalf("round %d: range %d %v: json=%v binary=%v", round, i, ranges[i], jrr[i], brr[i])
					}
				}
			}
		})
	}
}

func queryJSON(t testing.TB, a *API, keys []uint64) []bool {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"keys": keys})
	rec := doBinReq(t, a, "POST", "/v1/filters/f/query", "application/json", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("JSON query: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Results []bool `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Results
}

func queryBinary(t testing.TB, a *API, keys []uint64) []bool {
	t.Helper()
	frame := wire.AppendKeysRequest(nil, wire.OpQuery, keys)
	rec := doBinReq(t, a, "POST", "/v1/filters/f/query", wire.ContentType, frame)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary query: %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("binary query response Content-Type = %q", ct)
	}
	return decodeResultFrame(t, rec.Body.Bytes(), len(keys))
}

func queryRangeJSON(t testing.TB, a *API, ranges [][2]uint64) []bool {
	t.Helper()
	rec := doBinReq(t, a, "POST", "/v1/filters/f/query-range", "application/json", jsonRangesBody(ranges))
	if rec.Code != http.StatusOK {
		t.Fatalf("JSON query-range: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Results []bool `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Results
}

func queryRangeBinary(t testing.TB, a *API, ranges [][2]uint64) []bool {
	t.Helper()
	frame := wire.AppendRangesRequest(nil, ranges)
	rec := doBinReq(t, a, "POST", "/v1/filters/f/query-range", wire.ContentType, frame)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary query-range: %d %s", rec.Code, rec.Body)
	}
	return decodeResultFrame(t, rec.Body.Bytes(), len(ranges))
}

func decodeResultFrame(t testing.TB, frame []byte, want int) []bool {
	t.Helper()
	h, err := wire.ParseHeader(frame)
	if err != nil {
		t.Fatalf("response header: %v", err)
	}
	out, err := wire.DecodeResult(h, frame[wire.HeaderSize:], nil)
	if err != nil {
		t.Fatalf("response payload: %v", err)
	}
	if len(out) != want {
		t.Fatalf("response carries %d verdicts, want %d", len(out), want)
	}
	return out
}

// TestBinaryBadFrames pins the rejection paths of the binary endpoints:
// wrong op for the endpoint, corrupted payloads, truncated bodies, and
// oversized counts all answer 400 with a JSON error body.
func TestBinaryBadFrames(t *testing.T) {
	a, _ := newBinaryTestAPI(t, FilterOptions{ExpectedKeys: 10_000, Shards: 4})
	keys := []uint64{1, 2, 3}
	good := wire.AppendKeysRequest(nil, wire.OpQuery, keys)

	cases := []struct {
		name string
		path string
		body []byte
	}{
		{"wrong-op", "/v1/filters/f/insert", good},
		{"range-frame-on-query", "/v1/filters/f/query", wire.AppendRangesRequest(nil, [][2]uint64{{1, 2}})},
		{"short-header", "/v1/filters/f/query", good[:wire.HeaderSize-2]},
		{"truncated-payload", "/v1/filters/f/query", good[:len(good)-3]},
		{"bad-version", "/v1/filters/f/query", append([]byte{9}, good[1:]...)},
		{"corrupt-crc", "/v1/filters/f/query", func() []byte {
			b := bytes.Clone(good)
			b[wire.HeaderSize] ^= 0xff
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := doBinReq(t, a, "POST", tc.path, wire.ContentType, tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: code %d, want 400 (body %s)", tc.name, rec.Code, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("%s: error Content-Type %q, want JSON", tc.name, ct)
			}
		})
	}

	// Sanity: the good frame still works after all the rejects.
	rec := doBinReq(t, a, "POST", "/v1/filters/f/query", wire.ContentType, good)
	if rec.Code != http.StatusOK {
		t.Fatalf("good frame after rejects: %d %s", rec.Code, rec.Body)
	}
}

// nullResponseWriter is the ResponseWriter for the allocation test: a
// pre-allocated header map and a discard body, so the measurement sees
// only the handler's own allocations.
type nullResponseWriter struct {
	h http.Header
	n int
}

func (w *nullResponseWriter) Header() http.Header { return w.h }
func (w *nullResponseWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}
func (w *nullResponseWriter) WriteHeader(int) {}

// rewindableBody replays the same frame bytes on every request without
// allocating a fresh reader.
type rewindableBody struct {
	data []byte
	off  int
}

func (b *rewindableBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}
func (b *rewindableBody) Close() error { return nil }

// TestBinaryBatchZeroAlloc and TestJSONBatchZeroAlloc are the allocation
// regression gates of the two codecs: once warm, a batch query, range query
// and insert (no WAL) through the full handler path — body read, decode,
// shard grouping, probe fan-in, response encode — must perform zero heap
// allocations. A nonzero count here means a pooled buffer regressed into a
// per-request allocation.
func TestBinaryBatchZeroAlloc(t *testing.T) {
	testBatchZeroAlloc(t, wire.ContentType, func(op latOp, keys []uint64, ranges [][2]uint64) []byte {
		if op == opQueryRange {
			return wire.AppendRangesRequest(nil, ranges)
		}
		return wire.AppendKeysRequest(nil, wireOps[op], keys)
	})
}

func TestJSONBatchZeroAlloc(t *testing.T) {
	testBatchZeroAlloc(t, "application/json", func(op latOp, keys []uint64, ranges [][2]uint64) []byte {
		if op == opQueryRange {
			return jsonRangesBody(ranges)
		}
		body, _ := json.Marshal(map[string]any{"keys": keys})
		return body
	})
}

// jsonRangesBody encodes ranges in the batch query-range shape.
func jsonRangesBody(ranges [][2]uint64) []byte {
	rs := make([]map[string]uint64, len(ranges))
	for i, r := range ranges {
		rs[i] = map[string]uint64{"lo": r[0], "hi": r[1]}
	}
	body, _ := json.Marshal(map[string]any{"ranges": rs})
	return body
}

// testBatchZeroAlloc serves each op's request, encoded by body in the given
// Content-Type, through a warm API with 1 and 8 hash shards and 8 range
// shards, and requires zero allocations per request. Point queries go in
// two sizes: 512 keys, and 4096, past the insert fan-out threshold (query
// batches never fan out). Range queries go in two sizes: 8 ranges, and
// 256, the shape of the range-json-cached benchmark workload. Inserts stay
// at 512 keys: larger ones fan out one goroutine per shard.
func testBatchZeroAlloc(t *testing.T, contentType string, body func(op latOp, keys []uint64, ranges [][2]uint64) []byte) {
	if raceEnabled {
		t.Skip("the race runtime allocates on the measured path; run without -race")
	}
	for _, fc := range []struct {
		shards int
		mode   Partitioning
	}{{1, PartitionHash}, {8, PartitionHash}, {8, PartitionRange}} {
		name := fmt.Sprintf("shards=%d", fc.shards)
		if fc.mode == PartitionRange {
			name = "range/" + name
		}
		t.Run(name, func(t *testing.T) {
			a, _ := newBinaryTestAPI(t, FilterOptions{
				ExpectedKeys: 100_000, BitsPerKey: 16, Shards: fc.shards, Partitioning: fc.mode,
			})
			rng := rand.New(rand.NewSource(7))
			keys := make([]uint64, 4096)
			for i := range keys {
				keys[i] = rng.Uint64()
			}
			ranges := make([][2]uint64, 256)
			for i := range ranges {
				lo := rng.Uint64()
				ranges[i] = [2]uint64{lo, lo + 1000}
			}
			for _, rq := range []struct {
				op     latOp
				keys   []uint64
				ranges [][2]uint64
			}{
				{opQuery, keys[:512], nil},
				{opQuery, keys, nil},
				{opQueryRange, nil, ranges[:8]},
				{opQueryRange, nil, ranges},
				{opInsert, keys[:512], nil},
			} {
				op := rq.op
				name := latOpNames[op]
				if op == opQueryRange {
					name = fmt.Sprintf("%s/ranges=%d", name, len(rq.ranges))
				} else {
					name = fmt.Sprintf("%s/keys=%d", name, len(rq.keys))
				}
				rb := &rewindableBody{data: body(op, rq.keys, rq.ranges)}
				req := httptest.NewRequest("POST", "/v1/filters/f/"+latOpNames[op], rb)
				req.Header.Set("Content-Type", contentType)
				req.Body = rb
				w := &nullResponseWriter{h: make(http.Header)}
				serve := func() {
					rb.off = 0
					w.n = 0
					a.ServeHTTP(w, req)
					if w.n == 0 {
						t.Fatalf("%s: handler wrote no response", name)
					}
				}
				serve() // warm the pools (and the mux's path-value machinery)
				serve()
				if allocs := testing.AllocsPerRun(50, serve); allocs != 0 {
					t.Errorf("%s: %v allocations per warm request, want 0", name, allocs)
				}
			}
		})
	}
}

// TestDurableInsertAllocBytes pins that a durable insert encodes its WAL
// record into the pooled request scratch, and that the log keeps its
// commit buffer: once warm, a 1024-key binary insert through a WAL-backed
// API (its record alone is over 8 KiB) allocates under 1 KiB per request —
// what remains is the log's per-append bookkeeping.
func TestDurableInsertAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on the measured path; run without -race")
	}
	// One P: the handler blocks on the log's writer goroutine and could
	// resume on another P, whose pool has no warm scratch yet.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wlog, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncNone, SegmentBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	reg := NewRegistry()
	if _, err := reg.Create("f", FilterOptions{ExpectedKeys: 100_000, BitsPerKey: 16, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	a := NewConfiguredAPI(reg, nil, Config{WAL: wlog})
	keys := make([]uint64, 1024)
	rng := rand.New(rand.NewSource(8))
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	rb := &rewindableBody{data: wire.AppendKeysRequest(nil, wire.OpInsert, keys)}
	req := httptest.NewRequest("POST", "/v1/filters/f/insert", rb)
	req.Header.Set("Content-Type", wire.ContentType)
	req.Body = rb
	w := &nullResponseWriter{h: make(http.Header)}
	serve := func() {
		rb.off = 0
		w.n = 0
		a.ServeHTTP(w, req)
		if w.n == 0 {
			t.Fatal("handler wrote no response")
		}
	}
	serve()
	serve()
	// Collect first: a cycle inside the measured loop would empty the
	// scratch pool and count a fresh scratch against the requests.
	runtime.GC()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per warm durable insert", got)
	if got >= 1<<10 {
		t.Fatalf("a warm durable 1024-key insert allocated %d bytes, want under 1 KiB", got)
	}
	if n := wlog.Stats().Appends; n != runs+2 {
		t.Fatalf("the log took %d appends, want %d", n, runs+2)
	}
}

// TestBinaryInsertAuthBeforeLookup pins the gate ordering on the fast
// route: an unauthenticated binary insert answers 401 whether or not the
// filter exists, so the 404/401 split cannot be used to enumerate filter
// names without the token (the JSON path has always gated first).
func TestBinaryInsertAuthBeforeLookup(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Create("exists", FilterOptions{ExpectedKeys: 1000}); err != nil {
		t.Fatal(err)
	}
	a := NewConfiguredAPI(reg, nil, Config{AuthToken: "tok"})
	frame := wire.AppendKeysRequest(nil, wire.OpInsert, []uint64{1})
	for _, name := range []string{"exists", "absent"} {
		rec := doBinReq(t, a, "POST", "/v1/filters/"+name+"/insert", wire.ContentType, frame)
		if rec.Code != http.StatusUnauthorized {
			t.Fatalf("unauthenticated binary insert on %q: %d, want 401", name, rec.Code)
		}
	}
	// Queries stay open and still see the existence split.
	q := wire.AppendKeysRequest(nil, wire.OpQuery, []uint64{1})
	if rec := doBinReq(t, a, "POST", "/v1/filters/exists/query", wire.ContentType, q); rec.Code != http.StatusOK {
		t.Fatalf("open binary query: %d", rec.Code)
	}
}

// TestBinaryContentTypeCaseInsensitive pins RFC 7231 §3.1.1.1: media
// types compare case-insensitively, with or without parameters.
func TestBinaryContentTypeCaseInsensitive(t *testing.T) {
	a, _ := newBinaryTestAPI(t, FilterOptions{ExpectedKeys: 1000})
	frame := wire.AppendKeysRequest(nil, wire.OpQuery, []uint64{1, 2})
	for _, ct := range []string{
		wire.ContentType,
		"Application/X-Bloomrf-Batch",
		"APPLICATION/X-BLOOMRF-BATCH; charset=binary",
	} {
		rec := doBinReq(t, a, "POST", "/v1/filters/f/query", ct, frame)
		if rec.Code != http.StatusOK {
			t.Fatalf("Content-Type %q: %d %s", ct, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("Content-Type"); got != wire.ContentType {
			t.Fatalf("Content-Type %q: response type %q, want binary", ct, got)
		}
	}
	// A foreign type still falls through to the JSON decoder.
	rec := doBinReq(t, a, "POST", "/v1/filters/f/query", "application/x-bloomrf-batch2", frame)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "invalid request body") {
		t.Fatalf("near-miss media type should hit the JSON decoder: %d %s", rec.Code, rec.Body)
	}
}
