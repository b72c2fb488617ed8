package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// opBody returns a well-formed request body for op in the given codec, or a
// malformed one: truncated JSON, or a frame shorter than its header.
func opBody(op latOp, c latCodec, malformed bool) []byte {
	keys := []uint64{1, 2, 3}
	switch {
	case malformed && c == codecJSON:
		return []byte(`{"keys":`)
	case malformed:
		return []byte{1, 2}
	case c == codecBinary && op == opQueryRange:
		return wire.AppendRangesRequest(nil, [][2]uint64{{1, 10}})
	case c == codecBinary:
		return wire.AppendKeysRequest(nil, wireOps[op], keys)
	case op == opQueryRange:
		return []byte(`{"ranges":[{"lo":1,"hi":10}]}`)
	default:
		return []byte(`{"keys":[1,2,3]}`)
	}
}

// serveOpReq sends one op request through the API's full routing.
func serveOpReq(a *API, filter string, op latOp, c latCodec, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/filters/"+filter+"/"+latOpNames[op], bytes.NewReader(body))
	if c == codecBinary {
		req.Header.Set("Content-Type", wire.ContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, req)
	return rec
}

// TestGateParityAcrossCodecs pins that every gate in front of the batch ops
// answers the same status whichever codec a request uses, including the
// ordering cases (an unauthenticated insert on an unknown filter is 401,
// not 404) and a slash-named filter reached through its escaped path.
func TestGateParityAcrossCodecs(t *testing.T) {
	const ok = http.StatusOK
	cases := []struct {
		name      string
		cfg       Config
		prep      func(a *API) // runs before every request
		filter    string
		hdr       map[string]string
		malformed bool
		want      [numLatOps]int // insert, query, query-range
	}{
		{name: "401-no-token", cfg: Config{AuthToken: "tok"}, filter: "f",
			want: [numLatOps]int{http.StatusUnauthorized, ok, ok}},
		{name: "401-before-404", cfg: Config{AuthToken: "tok"}, filter: "absent",
			want: [numLatOps]int{http.StatusUnauthorized, http.StatusNotFound, http.StatusNotFound}},
		{name: "403-read-only", cfg: Config{ReadOnly: true}, filter: "f",
			want: [numLatOps]int{http.StatusForbidden, ok, ok}},
		{name: "409-fenced", prep: func(a *API) { a.fenced.Store(true) }, filter: "f",
			want: [numLatOps]int{http.StatusConflict, ok, ok}},
		{name: "409-stale-epoch", cfg: Config{Epoch: 5}, filter: "f", hdr: map[string]string{epochHeader: "4"},
			want: [numLatOps]int{http.StatusConflict, ok, ok}},
		{name: "503-wal-degraded", filter: "f", prep: func(a *API) {
			a.walFailed.Store(true)
			a.probeAt.Store(time.Now().UnixNano()) // no recovery probe due
		}, want: [numLatOps]int{http.StatusServiceUnavailable, ok, ok}},
		{name: "404-unknown-filter", filter: "absent",
			want: [numLatOps]int{http.StatusNotFound, http.StatusNotFound, http.StatusNotFound}},
		{name: "429-admission-full", cfg: Config{MaxInflightBatches: 1}, filter: "f",
			prep: func(a *API) { a.adm.tryAcquire() }, // hold the one slot
			want: [numLatOps]int{http.StatusTooManyRequests, http.StatusTooManyRequests, http.StatusTooManyRequests}},
		{name: "400-malformed", filter: "f", malformed: true,
			want: [numLatOps]int{http.StatusBadRequest, http.StatusBadRequest, http.StatusBadRequest}},
		{name: "200-escaped-slash", filter: "a%2Fb",
			want: [numLatOps]int{ok, ok, ok}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			for _, name := range []string{"f", "a/b"} {
				if _, err := reg.Create(name, FilterOptions{ExpectedKeys: 1000, Shards: 2}); err != nil {
					t.Fatal(err)
				}
			}
			a := NewConfiguredAPI(reg, nil, tc.cfg)
			for op := latOp(0); op < numLatOps; op++ {
				for c := latCodec(0); c < numLatCodecs; c++ {
					if tc.prep != nil {
						tc.prep(a)
					}
					rec := serveOpReq(a, tc.filter, op, c, opBody(op, c, tc.malformed), tc.hdr)
					if tc.cfg.MaxInflightBatches > 0 {
						a.adm.release()
					}
					if rec.Code != tc.want[op] {
						t.Errorf("%s %s: status %d, want %d (body %s)",
							latCodecNames[c], latOpNames[op], rec.Code, tc.want[op], rec.Body)
					}
				}
			}
		})
	}
}

// TestOpLatencyCountsServedRequestsOnly is the regression test for the
// second request clock: malformed and shed requests used to add to
// bloomrfd_op_latency_seconds while the trace skipped them. Now the
// latency histograms are the trace totals, so across every op and codec
// their counts sum to bloomrfd_filter_traced_requests_total.
func TestOpLatencyCountsServedRequestsOnly(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Create("f", FilterOptions{ExpectedKeys: 1000, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	a := NewConfiguredAPI(reg, nil, Config{MaxInflightBatches: 1})
	served := 0
	for op := latOp(0); op < numLatOps; op++ {
		for c := latCodec(0); c < numLatCodecs; c++ {
			if rec := serveOpReq(a, "f", op, c, opBody(op, c, false), nil); rec.Code != http.StatusOK {
				t.Fatalf("%s %s: %d %s", latCodecNames[c], latOpNames[op], rec.Code, rec.Body)
			}
			served++
			if rec := serveOpReq(a, "f", op, c, opBody(op, c, true), nil); rec.Code != http.StatusBadRequest {
				t.Fatalf("malformed %s %s: %d, want 400", latCodecNames[c], latOpNames[op], rec.Code)
			}
			a.adm.tryAcquire()
			rec := serveOpReq(a, "f", op, c, opBody(op, c, false), nil)
			a.adm.release()
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("shed %s %s: %d, want 429", latCodecNames[c], latOpNames[op], rec.Code)
			}
		}
	}

	_, body := doReq(t, a, "GET", "/metrics", "")
	sum := func(prefix string) int {
		n := 0
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, prefix) {
				v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
				if err != nil {
					t.Fatalf("unparseable sample %q", line)
				}
				n += v
			}
		}
		return n
	}
	latCount := sum(`bloomrfd_op_latency_seconds_count{filter="f",`)
	traced := sum(`bloomrfd_filter_traced_requests_total{filter="f"}`)
	if latCount != traced || traced != served {
		t.Fatalf("op_latency count %d, traced requests %d, served %d: want all equal\n%s",
			latCount, traced, served, grepLines(body, "_count{filter"))
	}
}

// TestScanBatchAccepts pins the bodies the scanner decodes itself rather
// than declining to the reference: every documented shape, with whitespace
// between tokens, quoted numbers and either bound order.
// FuzzServerBatchJSON checks that it decodes them as the reference does.
func TestScanBatchAccepts(t *testing.T) {
	for _, tc := range []struct {
		op   latOp
		body string
	}{
		{opQuery, `{"key":0}`},
		{opInsert, ` {"key" : "18446744073709551615"} `},
		{opQuery, `{"keys":[]}`},
		{opInsert, "{\"keys\":[1,\t\"2\",\r\n3]}\n"},
		{opQueryRange, `{"lo":1,"hi":2}`},
		{opQueryRange, `{ "hi" : "2" , "lo" : 1 }`},
		{opQueryRange, `{"ranges":[]}`},
		{opQueryRange, `{"ranges":[{"lo":1,"hi":2}, {"hi":0,"lo":"9"}]}`},
	} {
		if _, ok := scanBatch([]byte(tc.body), tc.op, &batchScratch{}); !ok {
			t.Errorf("%s %s: declined", latOpNames[tc.op], tc.body)
		}
	}
}

// errAfterReader yields data, then fails every read with err.
type errAfterReader struct {
	data []byte
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestJSONCodecLargeAndFailingBodies extends FuzzServerBatchJSON's
// differential check to the declines that no small fuzz input reaches: a
// batch one item over MaxBatch (and one at it, which the scanner accepts),
// and a body whose read fails, before or after a complete value. For
// ranges, whose reference decode of a MaxBatch body is slow, it checks the
// scanner's limit alone. TestOversizedBody413 covers a body over the size
// limit.
func TestJSONCodecLargeAndFailingBodies(t *testing.T) {
	keysBody := func(n int) []byte {
		return []byte(`{"keys":[` + strings.Repeat("0,", n-1) + `0]}`)
	}
	atLimit, overLimit := keysBody(MaxBatch), keysBody(MaxBatch+1)
	reset := errors.New("connection reset by peer")
	cases := []struct {
		name string
		op   latOp
		body func() io.Reader
	}{
		{"MaxBatch-keys", opQuery, func() io.Reader { return bytes.NewReader(atLimit) }},
		{"over-MaxBatch-keys", opInsert, func() io.Reader { return bytes.NewReader(overLimit) }},
		{"read-error-mid-value", opQuery, func() io.Reader {
			return &errAfterReader{data: []byte(`{"keys":[1,2`), err: reset}
		}},
		{"read-error-after-value", opQueryRange, func() io.Reader {
			return &errAfterReader{data: []byte(`{"lo":1,"hi":2}`), err: reset}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { diffJSONCodec(t, tc.op, tc.body) })
	}
	for n, want := range map[int]bool{MaxBatch: true, MaxBatch + 1: false} {
		body := `{"ranges":[` + strings.Repeat(`{"lo":0,"hi":0},`, n-1) + `{"lo":0,"hi":0}]}`
		if _, ok := scanBatch([]byte(body), opQueryRange, &batchScratch{}); ok != want {
			t.Errorf("scanner on a batch of %d ranges: ok %v, want %v", n, ok, want)
		}
	}
}

// TestJSONBodyRefusals pins the refusals both JSON decoders share: data
// after the JSON value (once silently dropped, so an insert acknowledged
// keys it never applied) and a batch range missing a bound (once read as
// 0).
func TestJSONBodyRefusals(t *testing.T) {
	cases := []struct {
		path, body, want string
	}{
		{"/v1/filters/f/insert", `{"keys":[1,2]}{"keys":[3]}`, "unexpected data after the JSON value"},
		{"/v1/filters/f/insert", `{"key":3} 4`, "unexpected data after the JSON value"},
		{"/v1/filters/f/query", `{"keys":[1]}]`, "unexpected data after the JSON value"},
		{"/v1/filters/f/query-range", `{"lo":1,"hi":2},`, "unexpected data after the JSON value"},
		{"/v1/filters", `{"name":"g","expected_keys":1000} {}`, "unexpected data after the JSON value"},
		{"/v1/filters/f/split", `{} {}`, "unexpected data after the JSON value"},
		{"/v1/filters/f/query-range", `{"ranges":[{"lo":5}]}`, `range 0: both \"lo\" and \"hi\" are required`},
		{"/v1/filters/f/query-range", `{"ranges":[{"lo":1,"hi":2},{"hi":5}]}`, `range 1: both \"lo\" and \"hi\" are required`},
	}
	for _, tc := range cases {
		a, f := newBinaryTestAPI(t, FilterOptions{ExpectedKeys: 1000, Shards: 2, Partitioning: PartitionRange})
		code, body := doReq(t, a, "POST", tc.path, tc.body)
		if code != http.StatusBadRequest || !strings.Contains(body, tc.want) {
			t.Errorf("POST %s %s: %d %s, want 400 %q", tc.path, tc.body, code, body, tc.want)
		}
		if f.MayContain(3) {
			t.Errorf("POST %s %s: a refused body inserted key 3", tc.path, tc.body)
		}
	}
}
