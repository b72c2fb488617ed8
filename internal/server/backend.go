package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/rosetta"
	"repro/internal/surf"
)

// Filter backends. The serving layer was built around bloomRF, but the
// paper's evaluation compares it against the other point-range filters, so
// the create endpoint accepts a "backend" field and the registry serves any
// of the four behind the same sharding, batching, snapshot and WAL
// machinery. The seam is the shardFilter interface below: ShardedFilter
// holds shardFilter slots instead of concrete filter values, and everything
// above it (batchexec.go, persist.go, the HTTP and binary handlers) is
// backend-agnostic, with one exception: hash-routed range queries look
// through bloomrfShard to its *core.Filter, so that one range plan probes
// every shard (hashRanges in batchexec.go). Other backends take the
// interface's shard-by-shard path there.
//
// Concurrency contract: inserts run concurrently with each other, with
// queries and with snapshot streams on the same shard (a snapshot only
// drains the shard's inserts under its write lock, then writes the blob
// without it; MarshalShard, for splits, marshals under the write lock).
// bloomRF and the classic Bloom filter tolerate that (their writes are
// atomic bit sets, their marshals atomic loads); Rosetta's and SuRF's are
// not, so their adapters carry an internal lock.

// Backend names accepted by FilterOptions.Backend and the create endpoint.
const (
	BackendBloomRF = "bloomrf"
	BackendBloom   = "bloom"
	BackendRosetta = "rosetta"
	BackendSuRF    = "surf"
)

// Backends lists the servable backends in a fixed order.
func Backends() []string {
	return []string{BackendBloomRF, BackendBloom, BackendRosetta, BackendSuRF}
}

// validBackend reports whether b names a servable backend.
func validBackend(b string) bool {
	switch b {
	case BackendBloomRF, BackendBloom, BackendRosetta, BackendSuRF:
		return true
	}
	return false
}

// shardStats is the per-shard occupancy snapshot Stats aggregates. SetBits
// and K are zero for backends that do not expose them (Rosetta spreads bits
// over levels, SuRF is a trie).
type shardStats struct {
	SizeBits uint64
	SetBits  uint64
	K        int
}

// shardFilter is one shard's filter implementation: the method set the
// sharding, batching and snapshot layers need, satisfied by an adapter per
// backend. MayContain* answers are one-sided (false is definitive);
// MarshalBinary must produce a blob unmarshalShardFilter restores under the
// same backend name.
type shardFilter interface {
	InsertBatch(keys []uint64)
	MayContainBatch(keys []uint64, out []bool)
	MayContainRange(lo, hi uint64) bool
	MarshalBinary() ([]byte, error)
	stats() shardStats
}

// newShardFilter builds one empty shard for the validated options (opt has
// been through newShardedShell, so Backend is set and known).
func newShardFilter(opt FilterOptions, perShard uint64) (shardFilter, error) {
	switch opt.Backend {
	case BackendBloomRF:
		if opt.MaxRange > 0 {
			f, _, err := core.NewTuned(core.TuneOptions{
				N:          perShard,
				BitsPerKey: opt.BitsPerKey,
				MaxRange:   opt.MaxRange,
			})
			if err != nil {
				return nil, err
			}
			return bloomrfShard{f}, nil
		}
		return bloomrfShard{core.NewBasic(perShard, opt.BitsPerKey)}, nil
	case BackendBloom:
		return bloomShard{bloom.New(perShard, opt.BitsPerKey)}, nil
	case BackendRosetta:
		f, err := rosetta.New(rosetta.Options{
			N:          perShard,
			BitsPerKey: opt.BitsPerKey,
			MaxRange:   uint64(opt.MaxRange), // 0 = rosetta's 2^10 default
			Variant:    rosetta.VariantF,
		})
		if err != nil {
			return nil, err
		}
		return &rosettaShard{f: f}, nil
	case BackendSuRF:
		return &surfShard{bitsPerKey: opt.BitsPerKey}, nil
	}
	return nil, fmt.Errorf("server: unknown backend %q (have %s)", opt.Backend, strings.Join(Backends(), ", "))
}

// unmarshalShardFilter restores one shard from its snapshot blob. An empty
// backend means bloomRF: manifests from before the field existed (v1–v3)
// restore through here, and so do replication bootstrap payloads from
// pre-backend primaries.
func unmarshalShardFilter(backend string, blob []byte) (shardFilter, error) {
	switch backend {
	case BackendBloomRF, "":
		f, err := core.UnmarshalFilter(blob)
		if err != nil {
			return nil, err
		}
		return bloomrfShard{f}, nil
	case BackendBloom:
		f, err := bloom.Unmarshal(blob)
		if err != nil {
			return nil, err
		}
		return bloomShard{f}, nil
	case BackendRosetta:
		f, err := rosetta.Unmarshal(blob)
		if err != nil {
			return nil, err
		}
		return &rosettaShard{f: f}, nil
	case BackendSuRF:
		return unmarshalSurfShard(blob)
	}
	return nil, fmt.Errorf("server: unknown backend %q (have %s)", backend, strings.Join(Backends(), ", "))
}

// writeShard writes one shard's snapshot blob to w and returns its size:
// bloomRF streams its words (core.Filter.WriteTo) without a copy of the
// filter, the other backends marshal a blob and write it.
func writeShard(w io.Writer, f shardFilter) (int64, error) {
	if wt, ok := f.(io.WriterTo); ok {
		return wt.WriteTo(w)
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(blob)
	return int64(n), err
}

// readShardFilter restores one shard from r, which must yield exactly size
// bytes of snapshot blob: bloomRF reads straight into its word array
// (core.ReadFilter), the other backends read the blob whole and unmarshal
// it.
func readShardFilter(backend string, r io.Reader, size int64) (shardFilter, error) {
	if backend == BackendBloomRF || backend == "" {
		f, err := core.ReadFilter(r, size)
		if err != nil {
			return nil, err
		}
		return bloomrfShard{f}, nil
	}
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if int64(len(blob)) != size {
		return nil, fmt.Errorf("%d bytes, manifest says %d", len(blob), size)
	}
	return unmarshalShardFilter(backend, blob)
}

// ---------------------------------------------------------------- bloomRF

// bloomrfShard is the native backend: *core.Filter already has the whole
// method set (its bit writes are atomic, so no extra locking), only the
// stats accessor needs adapting. It holds the core filter rather than the
// root package's wrapper so that hash-routed range queries can probe every
// shard through one core.FilterSet (batchexec.go); the blobs are the same.
type bloomrfShard struct{ *core.Filter }

func (s bloomrfShard) stats() shardStats {
	st := s.Filter.Stats()
	return shardStats{SizeBits: st.SizeBits, SetBits: st.SetBits, K: st.K}
}

// ---------------------------------------------------------------- Bloom

// bloomShard wraps the classic Bloom filter. It is point-only: every range
// probe answers maybe, exactly like the RocksDB full-filter policy the
// paper benchmarks against — the server still serves range queries, they
// just never skip anything. Insert and MayContain are concurrency-safe in
// the underlying filter, so no adapter lock is needed.
type bloomShard struct{ f *bloom.Filter }

func (s bloomShard) InsertBatch(keys []uint64) {
	for _, k := range keys {
		s.f.Insert(k)
	}
}

func (s bloomShard) MayContainBatch(keys []uint64, out []bool) {
	for i, k := range keys {
		out[i] = s.f.MayContain(k)
	}
}

func (s bloomShard) MayContainRange(lo, hi uint64) bool { return true }

func (s bloomShard) MarshalBinary() ([]byte, error) { return s.f.MarshalBinary() }

func (s bloomShard) stats() shardStats {
	size := s.f.SizeBits()
	return shardStats{
		SizeBits: size,
		SetBits:  uint64(math.Round(s.f.FillRatio() * float64(size))),
		K:        s.f.K(),
	}
}

// ---------------------------------------------------------------- Rosetta

// rosettaShard wraps a Rosetta filter behind a reader–writer lock: Rosetta's
// per-level bit writes are not atomic, so concurrent inserts (which the
// shard-level locking permits) and insert-concurrent queries must serialize
// here.
type rosettaShard struct {
	mu sync.RWMutex
	f  *rosetta.Filter
}

func (s *rosettaShard) InsertBatch(keys []uint64) {
	s.mu.Lock()
	for _, k := range keys {
		s.f.Insert(k)
	}
	s.mu.Unlock()
}

func (s *rosettaShard) MayContainBatch(keys []uint64, out []bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, k := range keys {
		out[i] = s.f.MayContain(k)
	}
}

func (s *rosettaShard) MayContainRange(lo, hi uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.f.MayContainRange(lo, hi)
}

func (s *rosettaShard) MarshalBinary() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.f.MarshalBinary()
}

func (s *rosettaShard) stats() shardStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return shardStats{SizeBits: s.f.SizeBits()}
}

// ---------------------------------------------------------------- SuRF

// surfShard serves the static SuRF trie behind a mutable façade: inserts
// accumulate in a sorted key buffer, and the trie is rebuilt lazily on the
// first query after a mutation. This is the paper's Problem 2 (trie PRFs
// are offline structures) made concrete in the serving layer — insert-heavy
// workloads pay repeated O(n) rebuilds, which is the honest cost of serving
// SuRF online, not an implementation shortcut. The snapshot blob is the key
// buffer itself (the trie drops suffix bits, so it cannot reproduce the
// keys), at 8 bytes per key regardless of the bits-per-key budget.
type surfShard struct {
	bitsPerKey float64

	mu    sync.RWMutex
	keys  []uint64     // sorted, deduplicated
	trie  *surf.Filter // nil until first build, or when keys is empty
	dirty bool         // keys changed since trie was built
}

func (s *surfShard) InsertBatch(keys []uint64) {
	s.mu.Lock()
	for _, k := range keys {
		if i, ok := slices.BinarySearch(s.keys, k); !ok {
			s.keys = slices.Insert(s.keys, i, k)
			s.dirty = true
		}
	}
	s.mu.Unlock()
}

// reader returns the current trie and key count, rebuilding first when the
// buffer changed since the last build. The fast path is a read lock; only
// the first query after a mutation takes the write side.
func (s *surfShard) reader() (*surf.Filter, int) {
	s.mu.RLock()
	if !s.dirty {
		t, n := s.trie, len(s.keys)
		s.mu.RUnlock()
		return t, n
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty {
		s.rebuildLocked()
	}
	return s.trie, len(s.keys)
}

func (s *surfShard) rebuildLocked() {
	s.dirty = false
	if len(s.keys) == 0 {
		s.trie = nil
		return
	}
	enc := make([][]byte, len(s.keys))
	for i, k := range s.keys {
		enc[i] = surf.EncodeUint64(k)
	}
	f, _, err := surf.BuildBudget(enc, s.bitsPerKey, surf.SuffixReal)
	if err != nil {
		// Cannot happen for sorted unique keys; if it somehow does, a nil
		// trie over a non-empty buffer answers maybe (see the query paths),
		// which keeps the filter one-sided.
		s.trie = nil
		return
	}
	s.trie = f
}

func (s *surfShard) MayContainBatch(keys []uint64, out []bool) {
	t, n := s.reader()
	for i, k := range keys {
		switch {
		case n == 0:
			out[i] = false
		case t == nil:
			out[i] = true
		default:
			out[i] = t.MayContainUint64(k)
		}
	}
}

func (s *surfShard) MayContainRange(lo, hi uint64) bool {
	t, n := s.reader()
	if n == 0 {
		return false
	}
	if t == nil {
		return true
	}
	return t.MayContainRangeUint64(lo, hi)
}

// surfShard blob layout (all little-endian): magic u64 | version u32 |
// bitsPerKey f64 bits | count u64 | count × key u64, keys strictly
// increasing. The buffer is the durable state; the trie is rebuilt on the
// first query after restore.
const (
	surfShardMagic   = 0x735246536e617030 // "sRFSnap0"
	surfShardVersion = 1
	surfShardHdrLen  = 8 + 4 + 8 + 8
)

func (s *surfShard) MarshalBinary() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	buf := make([]byte, surfShardHdrLen+8*len(s.keys))
	binary.LittleEndian.PutUint64(buf[0:], surfShardMagic)
	binary.LittleEndian.PutUint32(buf[8:], surfShardVersion)
	binary.LittleEndian.PutUint64(buf[12:], math.Float64bits(s.bitsPerKey))
	binary.LittleEndian.PutUint64(buf[20:], uint64(len(s.keys)))
	off := surfShardHdrLen
	for _, k := range s.keys {
		binary.LittleEndian.PutUint64(buf[off:], k)
		off += 8
	}
	return buf, nil
}

func unmarshalSurfShard(blob []byte) (*surfShard, error) {
	if len(blob) < surfShardHdrLen {
		return nil, fmt.Errorf("server: surf shard blob of %d bytes is shorter than its header", len(blob))
	}
	if m := binary.LittleEndian.Uint64(blob[0:]); m != surfShardMagic {
		return nil, fmt.Errorf("server: surf shard blob has magic %#x, want %#x", m, uint64(surfShardMagic))
	}
	if v := binary.LittleEndian.Uint32(blob[8:]); v != surfShardVersion {
		return nil, fmt.Errorf("server: surf shard blob version %d not supported", v)
	}
	count := binary.LittleEndian.Uint64(blob[20:])
	rest := blob[surfShardHdrLen:]
	if uint64(len(rest)) != 8*count {
		return nil, fmt.Errorf("server: surf shard blob has %d key bytes, header says %d keys", len(rest), count)
	}
	s := &surfShard{
		bitsPerKey: math.Float64frombits(binary.LittleEndian.Uint64(blob[12:])),
		keys:       make([]uint64, count),
		dirty:      count > 0,
	}
	for i := range s.keys {
		s.keys[i] = binary.LittleEndian.Uint64(rest[8*i:])
		if i > 0 && s.keys[i] <= s.keys[i-1] {
			return nil, fmt.Errorf("server: surf shard blob keys not strictly increasing at index %d", i)
		}
	}
	return s, nil
}

func (s *surfShard) stats() shardStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.trie == nil {
		return shardStats{}
	}
	return shardStats{SizeBits: s.trie.SizeBits()}
}
