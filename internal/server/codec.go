package server

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// The codec seam of the batch endpoints. serveOp (http.go) is the one
// handler behind insert, query and query-range; everything that depends on
// the body format sits behind batchCodec. Two implementations exist: JSON
// (this file and its scanner, jsonscan.go), the default, and the binary
// wire codec (binary.go), picked by a Content-Type of
// application/x-bloomrf-batch. Both decode into and encode from the
// request's pooled batchScratch, so a warm request allocates nothing: any
// binary one, and a JSON one the scanner accepts. Error responses are JSON
// for either codec.

// batchCodec decodes a batch request body and encodes its answer.
type batchCodec interface {
	// decode reads the body of an op request into sc.keys (insert, query)
	// or sc.ranges (query-range). single reports the JSON one-item shape,
	// {"key":..} or {"lo":..,"hi":..}, whose answer is a bare verdict. On
	// failure decode has written the error response and ok is false.
	decode(w http.ResponseWriter, r *http.Request, op latOp, sc *batchScratch) (single, ok bool)
	// verdicts writes the answers of a query or query-range request.
	verdicts(w http.ResponseWriter, out []bool, single bool, sc *batchScratch)
	// ack writes the answer of an insert of n keys.
	ack(w http.ResponseWriter, n int, sc *batchScratch)
	// latCodec names the codec in metrics, the stats endpoint and logs.
	latCodec() latCodec
}

// The codecs live in package-level interface values, so handing one to a
// handler costs no conversion on the hot path.
var (
	jsonBatch   batchCodec = jsonCodec{}
	binaryBatch batchCodec = binaryCodec{}
)

// codecFor picks the request's codec from its Content-Type. Media types are
// case-insensitive (RFC 7231 §3.1.1.1) and may carry parameters after a
// semicolon; EqualFold over the prefix handles both without allocating.
// Any other type, or none, selects JSON.
func codecFor(r *http.Request) batchCodec {
	ct := r.Header.Get("Content-Type")
	n := len(wire.ContentType)
	if len(ct) >= n && strings.EqualFold(ct[:n], wire.ContentType) &&
		(len(ct) == n || ct[n] == ';' || ct[n] == ' ') {
		return binaryBatch
	}
	return jsonBatch
}

// jsonCodec is the default codec: a single-item and a batch shape per op.
// Bodies go through the allocation-free scanner (jsonscan.go); a body it
// declines goes to decodeReference, which answers it as encoding/json
// always has. Answers are appended into sc.resp, byte for byte what
// json.Encoder writes for them.
type jsonCodec struct{}

func (jsonCodec) decode(w http.ResponseWriter, r *http.Request, op latOp, sc *batchScratch) (single, ok bool) {
	sc.body, ok = readBody(r.Body, sc.body)
	if ok {
		if single, ok = scanBatch(sc.body, op, sc); ok {
			return single, true
		}
	}
	// Declined: the reference reads the bytes already read, then the rest
	// of the body, so it sees the request as the client sent it.
	body := io.NopCloser(io.MultiReader(bytes.NewReader(sc.body), r.Body))
	return decodeReference(w, body, op, sc)
}

// keysReq is the shared single-or-batch key payload: exactly one of "key"
// and "keys" must be present.
type keysReq struct {
	Key  *U64  `json:"key"`
	Keys []U64 `json:"keys"`
}

// rangeReq is one inclusive [lo, hi] interval; both bounds are required,
// in either order.
type rangeReq struct {
	Lo *U64 `json:"lo"`
	Hi *U64 `json:"hi"`
}

// rangesReq is the single-or-batch range payload: either "lo"+"hi" at the
// top level, or "ranges".
type rangesReq struct {
	Lo     *U64       `json:"lo"`
	Hi     *U64       `json:"hi"`
	Ranges []rangeReq `json:"ranges"`
}

// decodeReference is jsonCodec.decode on encoding/json: the path for every
// body the scanner declines, and the reference the scanner is tested
// against.
func decodeReference(w http.ResponseWriter, body io.ReadCloser, op latOp, sc *batchScratch) (single, ok bool) {
	if op == opQueryRange {
		return decodeRanges(w, body, sc)
	}
	var req keysReq
	if !decode(w, body, &req) {
		return false, false
	}
	if (req.Key == nil) == (req.Keys == nil) {
		writeErr(w, http.StatusBadRequest, `provide exactly one of "key" and "keys"`)
		return false, false
	}
	if req.Key != nil {
		sc.keys = append(sc.keys[:0], uint64(*req.Key))
		return true, true
	}
	if len(req.Keys) > MaxBatch {
		writeErr(w, http.StatusBadRequest, "batch of %d keys exceeds limit %d", len(req.Keys), MaxBatch)
		return false, false
	}
	sc.keys = grown(sc.keys, len(req.Keys))
	for i, k := range req.Keys {
		sc.keys[i] = uint64(k)
	}
	return false, true
}

// decodeRanges is the query-range half of decodeReference.
func decodeRanges(w http.ResponseWriter, body io.ReadCloser, sc *batchScratch) (single, ok bool) {
	var req rangesReq
	if !decode(w, body, &req) {
		return false, false
	}
	single = req.Lo != nil || req.Hi != nil
	if single == (req.Ranges != nil) {
		writeErr(w, http.StatusBadRequest, `provide either "lo" and "hi", or "ranges"`)
		return false, false
	}
	if single {
		if req.Lo == nil || req.Hi == nil {
			writeErr(w, http.StatusBadRequest, `both "lo" and "hi" are required`)
			return false, false
		}
		sc.ranges = append(sc.ranges[:0], [2]uint64{uint64(*req.Lo), uint64(*req.Hi)})
		return true, true
	}
	if len(req.Ranges) > MaxBatch {
		writeErr(w, http.StatusBadRequest, "batch of %d ranges exceeds limit %d", len(req.Ranges), MaxBatch)
		return false, false
	}
	sc.ranges = grown(sc.ranges, len(req.Ranges))
	for i, rr := range req.Ranges {
		if rr.Lo == nil || rr.Hi == nil {
			writeErr(w, http.StatusBadRequest, `range %d: both "lo" and "hi" are required`, i)
			return false, false
		}
		sc.ranges[i] = [2]uint64{uint64(*rr.Lo), uint64(*rr.Hi)}
	}
	return false, true
}

func (jsonCodec) verdicts(w http.ResponseWriter, out []bool, single bool, sc *batchScratch) {
	b := sc.resp[:0]
	if single {
		b = append(b, `{"result":`...)
		b = strconv.AppendBool(b, out[0])
	} else {
		b = append(b, `{"results":[`...)
		for i, v := range out {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, v)
		}
		b = append(b, ']')
	}
	sc.resp = append(b, "}\n"...)
	writeJSONResponse(w, sc)
}

func (jsonCodec) ack(w http.ResponseWriter, n int, sc *batchScratch) {
	b := append(sc.resp[:0], `{"inserted":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	sc.resp = append(b, "}\n"...)
	writeJSONResponse(w, sc)
}

// jsonContentType is the response Content-Type header value, ready-made so
// the hot path assigns it without allocating.
var jsonContentType = []string{"application/json"}

// writeJSONResponse sends a 200 with the JSON answer in sc.resp.
func writeJSONResponse(w http.ResponseWriter, sc *batchScratch) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.resp)
}

func (jsonCodec) latCodec() latCodec { return codecJSON }
