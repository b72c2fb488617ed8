package server

import (
	"errors"
	"io"
	"net/http"

	"repro/internal/wire"
)

// The binary batch codec: the application/x-bloomrf-batch content type on
// the insert, query and query-range endpoints. The same per-op handler
// (serveOp, http.go) serves it as JSON; only decoding and encoding differ.
// The request payload is the wire package's framed little-endian
// keys/ranges, the response a verdict bitmap (or an ack), and every buffer
// comes from the request's pooled batchScratch, so a warm request
// allocates nothing on the heap. Error responses stay JSON (they are off
// the hot path, and a JSON body is strictly more debuggable than a binary
// one).
//
// The WAL insert path is the one deliberate exception to zero-allocation:
// encoding a durable record costs one buffer per request, which is the
// price of durability, not of the codec (serving-only deployments skip
// it entirely).

// binaryCodec implements batchCodec over internal/wire frames.
type binaryCodec struct{}

// binaryContentType is the response Content-Type header value, stored as
// a ready-made []string so the hot path assigns it into the header map
// without allocating.
var binaryContentType = []string{wire.ContentType}

// wireOps maps each endpoint to the frame op its requests must carry.
var wireOps = [numLatOps]wire.Op{wire.OpInsert, wire.OpQuery, wire.OpQueryRange}

func (binaryCodec) decode(w http.ResponseWriter, r *http.Request, op latOp, sc *batchScratch) (single, ok bool) {
	h, ok := readBinaryFrame(w, r, sc)
	if !ok {
		return false, false
	}
	if h.Op != wireOps[op] {
		writeErr(w, http.StatusBadRequest, "%s endpoint got a %s frame", latOpNames[op], h.Op)
		return false, false
	}
	var err error
	if op == opQueryRange {
		sc.ranges, err = wire.DecodeRanges(h, sc.body[:h.Len], sc.ranges)
	} else {
		sc.keys, err = wire.DecodeKeys(h, sc.body[:h.Len], sc.keys)
	}
	if err != nil {
		decodeBadFrame(w, err)
		return false, false
	}
	return false, true
}

// readBinaryFrame reads one request frame (header + payload) into sc.body
// and parses the header. On failure it writes the HTTP error response and
// returns ok = false.
func readBinaryFrame(w http.ResponseWriter, r *http.Request, sc *batchScratch) (h wire.Header, ok bool) {
	sc.body = grown(sc.body, wire.HeaderSize)
	if _, err := io.ReadFull(r.Body, sc.body[:wire.HeaderSize]); err != nil {
		writeErr(w, http.StatusBadRequest, "reading binary frame header: %v", err)
		return h, false
	}
	h, err := wire.ParseHeader(sc.body[:wire.HeaderSize])
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return h, false
	}
	if h.Count > MaxBatch {
		writeErr(w, http.StatusBadRequest, "batch of %d items exceeds limit %d", h.Count, MaxBatch)
		return h, false
	}
	// The header's Len is bounded by wire.MaxCount × 16 bytes, so this read
	// cannot be baited into buffering more than ~16 MiB.
	sc.body = grown(sc.body, int(h.Len))
	if _, err := io.ReadFull(r.Body, sc.body[:h.Len]); err != nil {
		writeErr(w, http.StatusBadRequest, "reading binary frame payload (%d bytes declared): %v", h.Len, err)
		return h, false
	}
	return h, true
}

// decodeBadFrame maps a payload decode failure to an HTTP error. Decode
// errors are always client-side framing mistakes (ErrBadFrame), but guard
// anyway so a future codec error cannot masquerade as a 400.
func decodeBadFrame(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if !errors.Is(err, wire.ErrBadFrame) {
		code = http.StatusInternalServerError
	}
	writeErr(w, code, "%v", err)
}

func (binaryCodec) verdicts(w http.ResponseWriter, out []bool, _ bool, sc *batchScratch) {
	sc.resp = wire.AppendResult(sc.resp[:0], out)
	writeBinaryResponse(w, sc)
}

func (binaryCodec) ack(w http.ResponseWriter, n int, sc *batchScratch) {
	sc.resp = wire.AppendAck(sc.resp[:0], uint32(n))
	writeBinaryResponse(w, sc)
}

// writeBinaryResponse sends a completed response frame from sc.resp.
func writeBinaryResponse(w http.ResponseWriter, sc *batchScratch) {
	w.Header()["Content-Type"] = binaryContentType
	_, _ = w.Write(sc.resp)
}

func (binaryCodec) latCodec() latCodec { return codecBinary }
