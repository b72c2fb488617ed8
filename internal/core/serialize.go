package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"

	"repro/internal/hashutil"
)

// Serialization format (little endian):
//
//	magic "bRF1" | version u8 | domain u8 | k u8 | flags u8
//	deltas k×u8 | replicas k×u8 | segmentOf k×u8
//	nsegs u8 | segBits nsegs×u64 | maxScan u32
//	exactWords u64 | exact payload | per-segment payload
//	checksum u64 (hash of everything before it)
//
// Hash seeds are derived deterministically from layer/replica indices, so
// they are not stored: a deserialized filter probes identical positions.
// This is the "filter block" format persisted in SSTables (paper §9).
const (
	serMagic   = "bRF1"
	serVersion = 1

	flagExact   = 1 << 0
	flagPermute = 1 << 1
)

// serChunkBytes is the size of the one buffer WriteTo and ReadFilter move a
// filter's bytes through; serMinChunk holds the largest header piece
// ReadFilter reads at once (8·255 segment sizes plus 12 bytes).
const (
	serChunkBytes = 64 << 10
	serMinChunk   = 4 << 10
)

// ErrCorrupt is returned when a filter block fails structural or checksum
// validation.
var ErrCorrupt = errors.New("core: corrupt filter block")

// MarshalBinary serializes the filter. Concurrent Insert calls during
// serialization yield a consistent-enough snapshot for filter semantics
// (bits may lag, never flip back), but callers that need an exact snapshot
// should quiesce writers first.
func (f *Filter) MarshalBinary() ([]byte, error) {
	size := 4 + 4 + 3*f.k + 1 + 8*len(f.segs) + 4 + 8
	size += 8 * len(f.exact.words)
	for i := range f.segs {
		size += 8 * len(f.segs[i].words)
	}
	size += 8 // checksum
	buf := f.appendHeader(make([]byte, 0, size))
	buf = f.exact.appendWords(buf, 0, len(f.exact.words))
	for i := range f.segs {
		buf = f.segs[i].appendWords(buf, 0, len(f.segs[i].words))
	}
	runtime.KeepAlive(f) // the words' owner (bitArray)
	buf = binary.LittleEndian.AppendUint64(buf, hashutil.HashBytes(buf, 0))
	return buf, nil
}

// appendHeader appends everything before the words: magic through
// exactWords.
func (f *Filter) appendHeader(buf []byte) []byte {
	buf = append(buf, serMagic...)
	flags := byte(0)
	if f.hasExact {
		flags |= flagExact
	}
	if f.permute {
		flags |= flagPermute
	}
	buf = append(buf, serVersion, byte(f.domain), byte(f.k), flags)
	for _, d := range f.cfg.Deltas {
		buf = append(buf, byte(d))
	}
	for i := 0; i < f.k; i++ {
		buf = append(buf, byte(f.replicas[i]))
	}
	for i := 0; i < f.k; i++ {
		buf = append(buf, byte(f.segID[i]))
	}
	buf = append(buf, byte(len(f.segs)))
	for i := range f.segs {
		buf = binary.LittleEndian.AppendUint64(buf, f.segs[i].size())
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.maxScan))
	return binary.LittleEndian.AppendUint64(buf, uint64(len(f.exact.words)))
}

// WriteTo writes exactly the bytes of MarshalBinary to w, through one
// buffer of serChunkBytes and checksumming as it goes, so no copy of the
// filter is held. Like MarshalBinary it reads each word with one atomic
// load: inserts may run meanwhile, and the bytes then hold every insert
// that completed before the call (bits only go from 0 to 1), plus any part
// of those that raced it. It implements io.WriterTo.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	cw := chunkWriter{w: w, sum: hashutil.NewBytesHasher(0), buf: make([]byte, 0, serChunkBytes)}
	cw.buf = f.appendHeader(cw.buf)
	cw.words(&f.exact)
	for i := range f.segs {
		cw.words(&f.segs[i])
	}
	runtime.KeepAlive(f) // the words' owner (bitArray)
	cw.flush()
	cw.buf = binary.LittleEndian.AppendUint64(cw.buf, cw.sum.Sum())
	cw.send()
	return cw.n, cw.err
}

// chunkWriter buffers WriteTo's output. After the first write error every
// call is a no-op and err holds the error.
type chunkWriter struct {
	w   io.Writer
	sum hashutil.BytesHasher
	buf []byte
	n   int64
	err error
}

// words appends b's words, flushing whenever the buffer fills.
func (cw *chunkWriter) words(b *bitArray) {
	for i := 0; i < len(b.words) && cw.err == nil; {
		room := (cap(cw.buf) - len(cw.buf)) / 8
		if room == 0 {
			cw.flush()
			continue
		}
		j := min(len(b.words), i+room)
		cw.buf = b.appendWords(cw.buf, i, j)
		i = j
	}
}

// flush checksums and writes the buffered bytes.
func (cw *chunkWriter) flush() {
	cw.sum.Update(cw.buf)
	cw.send()
}

// send writes the buffered bytes without checksumming them.
func (cw *chunkWriter) send() {
	if cw.err == nil {
		var n int
		n, cw.err = cw.w.Write(cw.buf)
		cw.n += int64(n)
	}
	cw.buf = cw.buf[:0]
}

// UnmarshalFilter reconstructs a filter from MarshalBinary output.
func UnmarshalFilter(data []byte) (*Filter, error) {
	return ReadFilter(bytes.NewReader(data), int64(len(data)))
}

// ReadFilter reconstructs a filter from r, which must yield exactly size
// bytes of MarshalBinary output and then end. It reads through one buffer
// of at most serChunkBytes, checksumming as it goes, and decodes the words
// straight into the new filter's arrays (mapped outside the Go heap for a
// large filter), so no copy of the blob is held. The header must account
// for exactly size bytes before any word array is allocated. A short, long,
// malformed or checksum-failing stream fails with ErrCorrupt; other read
// errors are returned as they are.
func ReadFilter(r io.Reader, size int64) (*Filter, error) {
	cr := chunkReader{r: r, sum: hashutil.NewBytesHasher(0), buf: make([]byte, min(max(size, serMinChunk), serChunkBytes))}
	head, err := cr.next(8)
	if err != nil {
		return nil, err
	}
	if string(head[:4]) != serMagic {
		return nil, ErrCorrupt
	}
	if head[4] != serVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, head[4])
	}
	k, flags := int(head[6]), head[7]
	if k == 0 {
		return nil, ErrCorrupt
	}
	cfg := Config{
		Domain:       int(head[5]),
		Exact:        flags&flagExact != 0,
		PermuteWords: flags&flagPermute != 0,
	}
	layers, err := cr.next(3*k + 1)
	if err != nil {
		return nil, err
	}
	cfg.Deltas, cfg.Replicas, cfg.SegmentOf = bytesToInts(layers[:k]), bytesToInts(layers[k:2*k]), bytesToInts(layers[2*k:3*k])
	nsegs := int(layers[3*k])
	if nsegs == 0 {
		return nil, ErrCorrupt
	}
	segs, err := cr.next(8*nsegs + 4 + 8)
	if err != nil {
		return nil, err
	}
	cfg.SegBits = make([]uint64, nsegs)
	for i := range cfg.SegBits {
		cfg.SegBits[i] = binary.LittleEndian.Uint64(segs[8*i:])
	}
	cfg.MaxScanGroups = int(binary.LittleEndian.Uint32(segs[8*nsegs:]))
	exactWords := binary.LittleEndian.Uint64(segs[8*nsegs+4:])
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if exactWords != (cfg.ExactBits()+63)/64 {
		return nil, ErrCorrupt
	}
	// Every word the header describes must fit in size, less the checksum;
	// the check runs before New allocates them.
	var room uint64
	if rest := size - cr.n - 8; rest >= 0 && rest%8 == 0 {
		room = uint64(rest / 8)
	}
	words := exactWords
	for _, b := range cfg.SegBits {
		if words > room || b/64 > room-words {
			return nil, fmt.Errorf("%w: header describes more than %d bytes", ErrCorrupt, size)
		}
		words += b / 64
	}
	if words != room {
		return nil, fmt.Errorf("%w: header describes %d bytes, blob has %d", ErrCorrupt, cr.n+8*int64(words)+8, size)
	}
	f, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := cr.words(f.exact.words); err != nil {
		return nil, err
	}
	for s := range f.segs {
		if err := cr.words(f.segs[s].words); err != nil {
			return nil, err
		}
	}
	var tail [8]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, cr.readErr(err)
	}
	if binary.LittleEndian.Uint64(tail[:]) != cr.sum.Sum() {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if n, _ := io.ReadFull(r, tail[:1]); n != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return f, nil
}

func bytesToInts(b []byte) []int {
	out := make([]int, len(b))
	for i, v := range b {
		out[i] = int(v)
	}
	return out
}

// chunkReader reads ReadFilter's input through one buffer, checksumming
// every byte it hands out.
type chunkReader struct {
	r   io.Reader
	sum hashutil.BytesHasher
	buf []byte
	n   int64 // bytes consumed
}

// next reads and checksums the next n bytes (n ≤ len(buf)). The slice is
// valid until the following call.
func (cr *chunkReader) next(n int) ([]byte, error) {
	b := cr.buf[:n]
	if _, err := io.ReadFull(cr.r, b); err != nil {
		return nil, cr.readErr(err)
	}
	cr.n += int64(n)
	cr.sum.Update(b)
	return b, nil
}

// words fills dst from the stream, a buffer at a time.
func (cr *chunkReader) words(dst []uint64) error {
	for len(dst) > 0 {
		m := min(len(dst), len(cr.buf)/8)
		b, err := cr.next(8 * m)
		if err != nil {
			return err
		}
		for i := range dst[:m] {
			dst[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		dst = dst[m:]
	}
	return nil
}

// readErr reports a stream that ended early as a truncated blob.
func (cr *chunkReader) readErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: truncated after %d bytes", ErrCorrupt, cr.n)
	}
	return err
}
