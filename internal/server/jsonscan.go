package server

import (
	"io"
	"math"
)

// The allocation-free fast path of the JSON batch codec. scanBatch parses
// the four documented request shapes,
//
//	{"key":N}  {"keys":[N,…]}  {"lo":N,"hi":N}  {"ranges":[{"lo":N,"hi":N},…]}
//
// straight into the pooled batchScratch, where N is a canonical JSON
// uint64 or the same digits in quotes, "lo" and "hi" come in either order,
// and JSON whitespace may appear between any two tokens. It never rejects a
// body: it either decodes it exactly as the encoding/json reference
// (decodeReference, codec.go) would, or declines it, and the reference then
// answers. Declined are escapes, unknown and duplicate names (including
// names that differ only in case, which encoding/json would match), null,
// signs, fractions, exponents, leading zeros, values above 2^64−1, truncated
// bodies, trailing data and batches over MaxBatch; oversized bodies and
// read errors never reach the scanner (readBody). Every refusal therefore
// keeps the reference's status and message. FuzzServerBatchJSON holds the
// two decoders to the same verdict, values and response on every input.

// readBody reads r to EOF into buf, reusing its capacity. ok is false on a
// read error, or once buf holds more than maxBodyBytes: it reads one byte
// past the limit and stops.
func readBody(r io.Reader, buf []byte) (_ []byte, ok bool) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), maxBodyBytes+1)])
		buf = buf[:len(buf)+n]
		switch {
		case err == io.EOF:
			return buf, true
		case err != nil, len(buf) > maxBodyBytes:
			return buf, false
		}
	}
}

// scanBatch decodes an op request body into sc.keys (insert, query) or
// sc.ranges (query-range). single reports the one-item shape; ok = false
// declines the body and leaves sc's payloads unspecified.
func scanBatch(body []byte, op latOp, sc *batchScratch) (single, ok bool) {
	s := jsonScanner{b: body}
	if !s.next('{') {
		return false, false
	}
	name, ok := s.member()
	if !ok {
		return false, false
	}
	switch {
	case op == opQueryRange && (name == "lo" || name == "hi"):
		var r [2]uint64
		r, ok = s.bounds(name)
		sc.ranges = append(sc.ranges[:0], r)
		single = true
	case op == opQueryRange && name == "ranges":
		sc.ranges, ok = s.ranges(sc.ranges[:0])
	case op != opQueryRange && name == "key":
		var k uint64
		k, ok = s.u64()
		sc.keys = append(sc.keys[:0], k)
		single = true
	case op != opQueryRange && name == "keys":
		sc.keys, ok = s.keys(sc.keys[:0])
	default:
		return false, false
	}
	return single, ok && s.next('}') && s.end()
}

// jsonScanner is a cursor over a JSON body. Each method consumes what it
// recognises, reports false on anything else, and skips the whitespace
// before its token.
type jsonScanner struct {
	b []byte
	i int
}

func (s *jsonScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes the byte c.
func (s *jsonScanner) next(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *jsonScanner) end() bool {
	s.skipSpace()
	return s.i == len(s.b)
}

// member consumes an object member's name and the colon after it, and
// returns the name if it is one of the batch shapes' names. Those hold no
// escapes, so a name with one needs no decoding to be declined.
func (s *jsonScanner) member() (string, bool) {
	if !s.next('"') {
		return "", false
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' {
		s.i++
	}
	if s.i == len(s.b) {
		return "", false
	}
	name := s.b[start:s.i]
	s.i++
	if !s.next(':') {
		return "", false
	}
	// Known names come back as constants, so callers compare them without
	// allocating; any other name, escaped or not, declines.
	for _, n := range memberNames {
		if string(name) == n {
			return n, true
		}
	}
	return "", false
}

var memberNames = [...]string{"key", "keys", "lo", "hi", "ranges"}

// u64 consumes a canonical unsigned integer — 0, or a nonzero digit and
// up to 19 more, at most 2^64−1 — bare or in quotes.
func (s *jsonScanner) u64() (uint64, bool) {
	s.skipSpace()
	b, i := s.b, s.i
	quoted := i < len(b) && b[i] == '"'
	if quoted {
		i++
	}
	start := i
	var v uint64
	for ; i < len(b); i++ {
		d := uint64(b[i] - '0')
		if d > 9 {
			break
		}
		// 19 digits cannot overflow; from the 20th on, check.
		if i-start >= 19 && v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	if n := i - start; n == 0 || n > 1 && b[start] == '0' {
		return 0, false
	}
	if quoted {
		if i == len(b) || b[i] != '"' {
			return 0, false
		}
		i++
	}
	s.i = i
	return v, true
}

// bounds consumes the rest of a two-member {"lo":N,"hi":N} object, in
// either order, whose first name has been read; the closing brace is left
// to the caller.
func (s *jsonScanner) bounds(first string) (r [2]uint64, ok bool) {
	i, j := 0, 1 // r's indexes of the first and the second member
	if first == "hi" {
		i, j = 1, 0
	}
	if r[i], ok = s.u64(); !ok || !s.next(',') {
		return r, false
	}
	second, ok := s.member()
	if !ok || second != boundNames[j] {
		return r, false
	}
	r[j], ok = s.u64()
	return r, ok
}

var boundNames = [2]string{"lo", "hi"}

// keys consumes an array of keys, appending them to dst.
func (s *jsonScanner) keys(dst []uint64) ([]uint64, bool) {
	if !s.next('[') {
		return dst, false
	}
	if s.next(']') {
		return dst, true
	}
	for len(dst) < MaxBatch {
		k, ok := s.u64()
		if !ok {
			return dst, false
		}
		dst = append(dst, k)
		if s.next(']') {
			return dst, true
		}
		if !s.next(',') {
			return dst, false
		}
	}
	return dst, false
}

// ranges consumes an array of {"lo":N,"hi":N} objects, appending them to
// dst.
func (s *jsonScanner) ranges(dst [][2]uint64) ([][2]uint64, bool) {
	if !s.next('[') {
		return dst, false
	}
	if s.next(']') {
		return dst, true
	}
	for len(dst) < MaxBatch {
		if !s.next('{') {
			return dst, false
		}
		first, ok := s.member()
		if !ok || first != "lo" && first != "hi" {
			return dst, false
		}
		r, ok := s.bounds(first)
		if !ok || !s.next('}') {
			return dst, false
		}
		dst = append(dst, r)
		if s.next(']') {
			return dst, true
		}
		if !s.next(',') {
			return dst, false
		}
	}
	return dst, false
}
