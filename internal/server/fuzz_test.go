package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
)

// fuzzAPI lazily builds one API with one small sharded filter ("fz") per
// fuzz worker process; every fuzz iteration reuses it, so iterations stay
// microseconds instead of re-sizing filters.
var (
	fuzzOnce sync.Once
	fuzzSrv  *API
)

func fuzzAPI(tb testing.TB) *API {
	fuzzOnce.Do(func() {
		reg := NewRegistry()
		if _, err := reg.Create("fz", FilterOptions{ExpectedKeys: 10_000, Shards: 4}); err != nil {
			tb.Fatal(err)
		}
		fuzzSrv = NewAPI(reg)
	})
	return fuzzSrv
}

// FuzzServerBatchJSON throws arbitrary request bodies at the three
// key-bearing endpoints. Through the whole server it checks the documented
// error matrix: the server answers 200 with the endpoint's success field or
// 400 with {"error": ...}, always valid JSON, and never panics (a panic
// would surface as a failed iteration via the recorder's 500 or a crash of
// the fuzz worker). Through the codec alone it is differential: the
// scanner-backed jsonCodec and the encoding/json reference must agree on
// every input (diffJSONCodec).
func FuzzServerBatchJSON(f *testing.F) {
	seeds := []string{
		`{"key":42}`,
		`{"keys":[1,2,3]}`,
		`{"keys":["18446744073709551615","0"]}`,
		`{"key":1,"keys":[2]}`,
		`{}`,
		`{"keys":[-1]}`,
		`{"keys":[1.5]}`,
		`{"lo":1,"hi":9}`,
		`{"ranges":[{"lo":1,"hi":9},{"lo":9,"hi":1}]}`,
		`{"lo":1}`,
		`{"ranges":[]}`,
		`{"unknown":true}`,
		`not json at all`,
		`[1,2,3]`,
		`{"keys":`,
		// Shapes the scanner accepts: whitespace anywhere, either bound
		// order, quoted numbers.
		" \t\n{ \"ranges\" : [ { \"hi\" : \"9\" , \"lo\" : 0 } , {\"lo\":7,\"hi\":7} ] } \r\n",
		`{"hi":18446744073709551615,"lo":"1"}`,
		`{"keys":[]}`,
		// Each class the scanner declines. Escapes:
		`{"ke\u0079s":[1]}`,
		`{"keys":["\u0031"]}`,
		// unknown, duplicate and case-folded names:
		`{"keys":[1],"extra":1}`,
		`{"keys":[1],"keys":[2]}`,
		`{"lo":1,"hi":2,"lo":3}`,
		`{"ranges":[{"lo":1,"lo":2}]}`,
		`{"KEYS":[1]}`,
		`{"Lo":1,"hI":2}`,
		`{"ranges":[{"LO":1,"hi":2}]}`,
		`{"lo":1,"hi":2,"ranges":[]}`,
		// null, signs, fractions, exponents:
		`{"keys":null}`,
		`{"key":null}`,
		`{"keys":[null]}`,
		`{"ranges":[null]}`,
		`{"keys":["+1"]}`,
		`{"keys":[-0]}`,
		`{"keys":[1.0]}`,
		`{"keys":[1e3]}`,
		`{"key":"1e3"}`,
		// leading zeros:
		`{"keys":[01]}`,
		`{"keys":["007"]}`,
		`{"lo":"00","hi":1}`,
		// uint64 overflow:
		`{"keys":[18446744073709551616]}`,
		`{"keys":["18446744073709551616"]}`,
		`{"key":99999999999999999999999}`,
		// truncated bodies:
		`{"keys":[1,2`,
		`{"ranges":[{"lo":1,"hi":`,
		`{"key":"12`,
		// trailing data:
		`{"keys":[1,2]}{"keys":[3]}`,
		`{"lo":1,"hi":2} x`,
		`{"key":1}]`,
		// a batch range missing a bound:
		`{"ranges":[{"lo":5}]}`,
		`{"ranges":[{"lo":1,"hi":2},{}]}`,
	}
	for _, body := range seeds {
		for ep := uint8(0); ep < 3; ep++ {
			f.Add(ep, []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		a := fuzzAPI(t)
		op := latOp(endpoint % 3)
		path := "/v1/filters/fz/" + latOpNames[op]
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		a.ServeHTTP(rec, req)
		code := rec.Code
		if code != 200 && code != 400 {
			t.Fatalf("%s %q: status %d outside the documented matrix {200,400}", path, body, code)
		}
		var resp map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s %q: non-JSON response %q: %v", path, body, rec.Body.String(), err)
		}
		diffJSONCodec(t, op, func() io.Reader { return bytes.NewReader(body) })
		if code == 400 {
			msg, ok := resp["error"].(string)
			if !ok || msg == "" {
				t.Fatalf("%s %q: 400 without error message: %v", path, body, resp)
			}
			return
		}
		// 200: the success field for the endpoint must be present.
		switch op {
		case opInsert:
			if _, ok := resp["inserted"]; !ok {
				t.Fatalf("insert 200 without inserted count: %v", resp)
			}
		default:
			_, single := resp["result"]
			_, batch := resp["results"]
			if !single && !batch {
				t.Fatalf("%s 200 without result(s): %v", path, resp)
			}
		}
	})
}

// diffJSONCodec decodes one op request body through jsonCodec and through
// the encoding/json reference, decodeReference, and fails unless the two
// agree on the verdict, the decoded values and the exact error response.
// When both accept, it also requires the codec's answer to be byte for byte
// what json.Encoder writes for the same verdicts. body returns a fresh
// reader of the request body on every call.
func diffJSONCodec(t *testing.T, op latOp, body func() io.Reader) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/filters/fz/"+latOpNames[op], body())
	gotRec, wantRec := httptest.NewRecorder(), httptest.NewRecorder()
	got, want := &batchScratch{}, &batchScratch{}
	gotSingle, gotOK := jsonBatch.decode(gotRec, req, op, got)
	wantSingle, wantOK := decodeReference(wantRec, io.NopCloser(body()), op, want)
	if gotOK != wantOK || gotSingle != wantSingle {
		t.Fatalf("%s: codec (single %v, ok %v) %s, reference (single %v, ok %v) %s",
			latOpNames[op], gotSingle, gotOK, gotRec.Body, wantSingle, wantOK, wantRec.Body)
	}
	sameResponse(t, "error response", gotRec, wantRec)
	if !gotOK {
		return
	}
	if !slices.Equal(got.keys, want.keys) || !slices.Equal(got.ranges, want.ranges) {
		t.Fatalf("%s: codec decoded keys %v ranges %v, reference %v %v",
			latOpNames[op], got.keys, got.ranges, want.keys, want.ranges)
	}

	// Answers, with verdicts that depend on the decoded values.
	gotRec, wantRec = httptest.NewRecorder(), httptest.NewRecorder()
	switch op {
	case opInsert:
		jsonBatch.ack(gotRec, len(got.keys), got)
		writeJSON(wantRec, http.StatusOK, map[string]any{"inserted": len(want.keys)})
	default:
		out := make([]bool, len(got.keys)+len(got.ranges))
		for i := range got.keys {
			out[i] = got.keys[i]&1 == 1
		}
		for i, r := range got.ranges {
			out[i] = r[0] <= r[1]
		}
		jsonBatch.verdicts(gotRec, out, gotSingle, got)
		if gotSingle {
			writeJSON(wantRec, http.StatusOK, map[string]any{"result": out[0]})
		} else {
			writeJSON(wantRec, http.StatusOK, map[string]any{"results": out})
		}
	}
	sameResponse(t, "answer", gotRec, wantRec)
}

// sameResponse fails unless two recorded responses have the same status,
// Content-Type and body bytes.
func sameResponse(t *testing.T, what string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
		!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s differs: codec %d %q %q, reference %d %q %q", what,
			got.Code, got.Header().Get("Content-Type"), got.Body,
			want.Code, want.Header().Get("Content-Type"), want.Body)
	}
}

// FuzzSplitRouting drives the span partitioner through randomized split
// sequences and checks the invariant every live split relies on: after any
// number of divisions, each uint64 key is owned by exactly one span. The
// routing answer from shardOf must agree with a linear scan of the start
// table, and the start table itself must stay sorted and anchored at 0.
func FuzzSplitRouting(f *testing.F) {
	f.Add(uint64(0), uint8(0), int64(1))
	f.Add(uint64(1)<<63, uint8(8), int64(42))
	f.Add(^uint64(0), uint8(32), int64(7))
	f.Add(uint64(4611686018427387903), uint8(3), int64(-9))
	f.Fuzz(func(t *testing.T, key uint64, nSplits uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		starts := []uint64{0}
		for i := 0; i < int(nSplits); i++ {
			// Divide a random span, as Split does: insert a cut key m+1 with
			// lo <= m < hi, skipping single-key spans.
			h := rng.Intn(len(starts))
			lo := starts[h]
			hi := ^uint64(0)
			if h+1 < len(starts) {
				hi = starts[h+1] - 1
			}
			if lo == hi {
				continue
			}
			m := lo + rng.Uint64()%(hi-lo) // in [lo, hi)
			starts = slices.Insert(starts, h+1, m+1)
		}
		p, err := newSpanPartitioner(starts)
		if err != nil {
			t.Fatalf("partitioner rejected the start table %v: %v", starts, err)
		}
		sh := int(p.shardOf(key))
		owners := 0
		want := -1
		for i := range starts {
			hi := ^uint64(0)
			if i+1 < len(starts) {
				hi = starts[i+1] - 1
			}
			if starts[i] <= key && key <= hi {
				owners++
				want = i
			}
		}
		if owners != 1 {
			t.Fatalf("key %#x owned by %d spans of %v, want exactly 1", key, owners, starts)
		}
		if sh != want {
			t.Fatalf("shardOf(%#x) = %d, linear scan says %d (starts %v)", key, sh, want, starts)
		}
	})
}
