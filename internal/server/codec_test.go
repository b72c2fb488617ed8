package server

import (
	"bytes"
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
