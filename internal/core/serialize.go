package core

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// ErrCorrupt is returned when a filter block fails structural or checksum
// validation.
var ErrCorrupt = errors.New("core: corrupt filter block")

// MarshalBinary serializes the filter. Concurrent Insert calls during
// serialization yield a consistent-enough snapshot for filter semantics
// (bits may lag, never flip back), but callers that need an exact snapshot
// should quiesce writers first.
func (f *Filter) MarshalBinary() ([]byte, error) {
	k := f.k
	size := 4 + 4 + 3*k + 1 + 8*len(f.segs) + 4 + 8
	size += 8 * len(f.exact.words)
	for i := range f.segs {
		size += 8 * len(f.segs[i].words)
	}
	size += 8 // checksum
	buf := make([]byte, 0, size)
	buf = append(buf, serMagic...)
	flags := byte(0)
	if f.hasExact {
		flags |= flagExact
	}
	if f.permute {
		flags |= flagPermute
	}
	buf = append(buf, serVersion, byte(f.domain), byte(k), flags)
	for _, d := range f.cfg.Deltas {
		buf = append(buf, byte(d))
	}
	for i := 0; i < k; i++ {
		buf = append(buf, byte(f.replicas[i]))
	}
	for i := 0; i < k; i++ {
		buf = append(buf, byte(f.segID[i]))
	}
	buf = append(buf, byte(len(f.segs)))
	for i := range f.segs {
		buf = binary.LittleEndian.AppendUint64(buf, f.segs[i].size())
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.maxScan))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(f.exact.words)))
	buf = f.exact.appendTo(buf)
	for i := range f.segs {
		buf = f.segs[i].appendTo(buf)
	}
	runtime.KeepAlive(f) // the words' owner (bitArray)
	buf = binary.LittleEndian.AppendUint64(buf, hashutil.HashBytes(buf, 0))
	return buf, nil
}

// UnmarshalFilter reconstructs a filter from MarshalBinary output.
func UnmarshalFilter(data []byte) (*Filter, error) {
	if len(data) < 16+8 || string(data[:4]) != serMagic {
		return nil, ErrCorrupt
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if hashutil.HashBytes(body, 0) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r := &byteReader{data: body[4:]}
	version, _ := r.u8()
	if version != serVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	domain, _ := r.u8()
	k, _ := r.u8()
	flags, err := r.u8()
	if err != nil || k == 0 {
		return nil, ErrCorrupt
	}
	cfg := Config{
		Domain:       int(domain),
		Exact:        flags&flagExact != 0,
		PermuteWords: flags&flagPermute != 0,
		Deltas:       make([]int, k),
		Replicas:     make([]int, k),
		SegmentOf:    make([]int, k),
	}
	for i := range cfg.Deltas {
		b, err := r.u8()
		if err != nil {
			return nil, ErrCorrupt
		}
		cfg.Deltas[i] = int(b)
	}
	for i := range cfg.Replicas {
		b, err := r.u8()
		if err != nil {
			return nil, ErrCorrupt
		}
		cfg.Replicas[i] = int(b)
	}
	for i := range cfg.SegmentOf {
		b, err := r.u8()
		if err != nil {
			return nil, ErrCorrupt
		}
		cfg.SegmentOf[i] = int(b)
	}
	nsegs, err := r.u8()
	if err != nil || nsegs == 0 {
		return nil, ErrCorrupt
	}
	cfg.SegBits = make([]uint64, nsegs)
	for i := range cfg.SegBits {
		if cfg.SegBits[i], err = r.u64(); err != nil {
			return nil, ErrCorrupt
		}
	}
	maxScan, err := r.u32()
	if err != nil {
		return nil, ErrCorrupt
	}
	cfg.MaxScanGroups = int(maxScan)
	f, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	exactWords, err := r.u64()
	if err != nil || exactWords != uint64(len(f.exact.words)) {
		return nil, ErrCorrupt
	}
	for i := uint64(0); i < exactWords; i++ {
		if f.exact.words[i], err = r.u64(); err != nil {
			return nil, ErrCorrupt
		}
	}
	for s := range f.segs {
		for i := range f.segs[s].words {
			if f.segs[s].words[i], err = r.u64(); err != nil {
				return nil, ErrCorrupt
			}
		}
	}
	if r.len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.len())
	}
	return f, nil
}

type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) len() int { return len(r.data) - r.off }

func (r *byteReader) u8() (byte, error) {
	if r.off >= len(r.data) {
		return 0, ErrCorrupt
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *byteReader) u32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *byteReader) u64() (uint64, error) {
	if r.off+8 > len(r.data) {
		return 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}
