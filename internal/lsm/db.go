package lsm

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DBOptions configures a DB.
type DBOptions struct {
	// Dir holds the SSTable files.
	Dir string
	// Policy builds the filter block of every flushed SST.
	Policy FilterPolicy
	// Registry resolves policies when reopening tables; it must contain
	// Policy. Nil uses a registry of just Policy.
	Registry Registry
	// MemtableBytes triggers an automatic flush (0 = 4 MiB).
	MemtableBytes int
	// BlockSize is the SSTable data-block size (0 = 4 KiB).
	BlockSize int
	// SimulatedReadLatency is charged to IOStats per block read to emulate
	// the paper's disk-backed testbed (not slept).
	SimulatedReadLatency time.Duration
}

// DB is a minimal LSM store: one mutable memtable plus a set of immutable
// L0 SSTables searched newest-first. Compaction is disabled, matching the
// paper's RocksDB setup ("compaction-disabled SST file", §9).
//
// Reads take no lock: Get and Scan load the current readView once. A
// writer holds mu's read side while it adds to the memtable, and a flush
// holds its write side from taking the memtable's records until it has
// published the view with the new table and a fresh memtable, so that no
// acknowledged write lands in a memtable the flush has already copied.
type DB struct {
	opt         DBOptions
	reg         Registry
	mu          sync.RWMutex
	view        atomic.Pointer[readView]
	seq         int
	stats       IOStats
	quarantined []string
	// probeOps counts the Gets and Scans that probe the filters; timeOp
	// samples the probe clock by it.
	probeOps atomic.Uint64

	// readers counts the Gets and Scans in flight, each in the slot of
	// epoch's parity when it started (acquire). Close publishes a view
	// without tables, flips epoch and waits for the old slot to drain
	// before it unmaps the tables: a read that could hold the old view
	// counts in that slot, and one that starts after the flip loads the
	// new view.
	readers [2]atomic.Int64
	epoch   atomic.Uint32
}

// acquire registers a read and returns the view it reads and the slot
// that counts it, which the read decrements when it is done.
func (db *DB) acquire() (*readView, *atomic.Int64) {
	slot := &db.readers[db.epoch.Load()&1]
	slot.Add(1)
	return db.view.Load(), slot
}

// readView is what a read sees: the memtable, the tables newest last, and
// one FilterSet per 64 of them, sets[g] over tables[64g:64g+64]. A view is
// never modified once published; a flush publishes a new one.
type readView struct {
	mem    *memtable
	tables []*Table
	sets   []FilterSet
}

// withTable returns the view of v's tables and t under memtable mem. It
// rebuilds only the last set; the others cover the same tables as in v.
func (v *readView) withTable(t *Table, mem *memtable) *readView {
	tables := append(v.tables[:len(v.tables):len(v.tables)], t)
	g := (len(tables) - 1) / setSize
	rs := make([]FilterReader, len(tables)-g*setSize)
	for i, t := range tables[g*setSize:] {
		rs[i] = t.filter
	}
	sets := append(v.sets[:g:g], newFilterSet(rs))
	return &readView{mem: mem, tables: tables, sets: sets}
}

// setSize is the most tables one FilterSet covers.
const setSize = 64

// Open creates or reopens a DB in opt.Dir.
func Open(opt DBOptions) (*DB, error) {
	if opt.Policy == nil {
		return nil, fmt.Errorf("lsm: DBOptions.Policy is required")
	}
	if opt.MemtableBytes <= 0 {
		opt.MemtableBytes = 4 << 20
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	reg := opt.Registry
	if reg == nil {
		reg = Registry{opt.Policy.Name(): opt.Policy}
	} else if _, ok := reg[opt.Policy.Name()]; !ok {
		reg[opt.Policy.Name()] = opt.Policy
	}
	db := &DB{opt: opt, reg: reg}
	view := &readView{mem: newMemtable()}
	db.view.Store(view)
	// Sweep in-flight table files a crash left behind: they never reached
	// their commit rename, so they hold no acknowledged data.
	tmps, err := filepath.Glob(filepath.Join(opt.Dir, "*.sst"+tmpSuffix))
	if err != nil {
		return nil, err
	}
	for _, p := range tmps {
		os.Remove(p)
	}
	// Recover existing tables in sequence order. db.seq must exceed every
	// sequence number ever committed to this directory — including
	// quarantined *.sst.damaged leftovers the *.sst glob cannot see —
	// otherwise a future flush's tmp+rename would silently overwrite a
	// committed table.
	paths, err := filepath.Glob(filepath.Join(opt.Dir, "*.sst"))
	if err != nil {
		return nil, err
	}
	damaged, err := filepath.Glob(filepath.Join(opt.Dir, "*.sst"+quarantineSuffix))
	if err != nil {
		return nil, err
	}
	for _, p := range append(append([]string(nil), paths...), damaged...) {
		if n, ok := parseTableSeq(p); ok && n >= db.seq {
			db.seq = n + 1
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		t, err := OpenTable(p, reg, &db.stats, opt.SimulatedReadLatency)
		if errors.Is(err, ErrTornTable) {
			// No committed footer: a torn flush tail. Quarantine it under a
			// name the glob cannot pick up so it is never served, and keep
			// opening — the data was never acknowledged as durable.
			if renameErr := os.Rename(p, p+quarantineSuffix); renameErr != nil {
				db.Close()
				return nil, fmt.Errorf("lsm: quarantine %s: %w", p, renameErr)
			}
			db.quarantined = append(db.quarantined, p+quarantineSuffix)
			continue
		}
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("lsm: reopen %s: %w", p, err)
		}
		view = view.withTable(t, view.mem)
		db.view.Store(view)
	}
	return db, nil
}

// parseTableSeq extracts the sequence number from a table filename such
// as 000042.sst or 000042.sst.damaged.
func parseTableSeq(path string) (int, bool) {
	name := filepath.Base(path)
	name = strings.TrimSuffix(name, quarantineSuffix)
	name = strings.TrimSuffix(name, ".sst")
	n, err := strconv.Atoi(name)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// quarantineSuffix marks torn tables set aside by Open.
const quarantineSuffix = ".damaged"

// Quarantined lists torn table files Open set aside instead of serving.
func (db *DB) Quarantined() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]string(nil), db.quarantined...)
}

// Close releases all tables; later reads see the memtable alone. The
// memtable is not flushed implicitly; call Flush first for durability. A
// read that runs during Close finishes on the tables of the view it
// loaded: Close waits for it before it unmaps them, so that a table file
// is free to delete once Close returns.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	old := db.view.Load()
	db.view.Store(&readView{mem: old.mem})
	for slot := &db.readers[(db.epoch.Add(1)-1)&1]; slot.Load() != 0; {
		runtime.Gosched()
	}
	var first error
	for _, t := range old.tables {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats exposes the shared I/O counters.
func (db *DB) Stats() *IOStats { return &db.stats }

// Put inserts or overwrites a key. The memtable keeps its own copy of
// value.
func (db *DB) Put(key uint64, value []byte) error {
	if uint64(len(value)) > math.MaxUint32 {
		return fmt.Errorf("lsm: %d-byte value exceeds the table format's 4 GiB limit", len(value))
	}
	return db.write(key, value, false)
}

// Delete writes a tombstone.
func (db *DB) Delete(key uint64) error {
	return db.write(key, nil, true)
}

// write adds a record to the memtable under mu's read side, so that a
// flush cannot take the memtable's records in between, and flushes once
// the memtable is full.
func (db *DB) write(key uint64, value []byte, tomb bool) error {
	db.mu.RLock()
	full := db.view.Load().mem.put(key, value, tomb) >= db.opt.MemtableBytes
	db.mu.RUnlock()
	if !full {
		return nil
	}
	return db.Flush()
}

// Flush writes the memtable to a new L0 SSTable. The returned build time
// is the filter-construction component (Fig. 12.C).
func (db *DB) Flush() error {
	_, err := db.FlushWithTiming()
	return err
}

// FlushWithTiming flushes and reports the filter build time.
func (db *DB) FlushWithTiming() (time.Duration, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	view := db.view.Load()
	recs := view.mem.all()
	if len(recs) == 0 {
		return 0, nil
	}
	path := filepath.Join(db.opt.Dir, fmt.Sprintf("%06d.sst", db.seq))
	w, err := NewTableWriter(path, db.opt.Policy, db.opt.BlockSize)
	if err != nil {
		return 0, err
	}
	for _, r := range recs {
		if err := w.Add(r.key, r.value, r.tomb); err != nil {
			w.Abort()
			return 0, err
		}
	}
	if err := w.Finish(); err != nil {
		w.Abort()
		return 0, err
	}
	t, err := OpenTable(path, db.reg, &db.stats, db.opt.SimulatedReadLatency)
	if err != nil {
		return 0, err
	}
	db.seq++
	db.view.Store(view.withTable(t, newMemtable()))
	return w.FilterBuildTime, nil
}

// Get returns the newest value for key. It probes the filters of up to 64
// tables at once, timed on a sampled op (timeOp), then walks those tables
// newest-first and reads a block only behind a positive filter. It counts
// a probe, and a negative, only for the tables it walks.
func (db *DB) Get(key uint64) ([]byte, bool, error) {
	v, slot := db.acquire()
	defer slot.Add(-1)
	if val, tomb, found := v.mem.get(key); found {
		if tomb {
			return nil, false, nil
		}
		return val, true, nil
	}
	var probes, negatives uint64
	var probeTime, start time.Duration
	weight := db.timeOp()
	timed := weight != 0
	for g := len(v.sets) - 1; g >= 0; g-- {
		if timed {
			start = monotonic()
		}
		pass := v.sets[g].KeyMayMatch(key)
		if timed {
			probeTime += monotonic() - start
		}
		base := g * setSize
		for i := min(base+setSize, len(v.tables)) - 1; i >= base; i-- {
			probes++
			if pass&(1<<(i-base)) == 0 {
				negatives++
				continue
			}
			t := v.tables[i]
			b := t.findBlock(key)
			if b < 0 {
				continue
			}
			val, tomb, found, err := t.getInBlock(b, key)
			if err != nil || found {
				db.stats.addProbes(probes, negatives, weight, probeTime)
				if err != nil || tomb {
					return nil, false, err
				}
				return val, true, nil
			}
		}
	}
	db.stats.addProbes(probes, negatives, weight, probeTime)
	return nil, false, nil
}

// timeOp returns the weight in the probe-time estimate of the op that
// calls it, one that probes the filters, or 0 when the op reads no clock.
// The DB's first such op is timed and stands for itself alone, so that its
// cold caches are not multiplied; after it every 2^probeSampleShift-th op
// is timed and stands for the 2^probeSampleShift ops up to it.
func (db *DB) timeOp() uint64 {
	switch i := db.probeOps.Add(1) - 1; {
	case i == 0:
		return 1
	case i&(1<<probeSampleShift-1) == 0:
		return 1 << probeSampleShift
	}
	return 0
}

// clockBase anchors monotonic: time.Since on a time with a monotonic
// reading reads one clock, where time.Now reads two.
var clockBase = time.Now()

// monotonic returns the time since clockBase, for timing a span of an op.
func monotonic() time.Duration { return time.Since(clockBase) }

// KV is one key-value pair produced by Scan.
type KV struct {
	Key   uint64
	Value []byte
}

// Scan returns all live records with lo ≤ key ≤ hi, newest version per
// key, in ascending key order. Filters let the scan skip SSTables whose
// key ranges cannot intersect the query — the mechanism the paper's
// Workload E experiments measure end to end. The scan probes every
// table's filter first, timed once on a sampled op (timeOp), and only
// then reads the blocks of the tables that passed.
func (db *DB) Scan(lo, hi uint64) ([]KV, error) {
	if lo > hi {
		lo, hi = hi, lo
	}
	v, slot := db.acquire()
	defer slot.Add(-1)
	tables := v.tables
	var memRecs []record
	v.mem.scan(lo, hi, func(k uint64, val []byte, tomb bool) bool {
		memRecs = append(memRecs, record{key: k, value: val, tomb: tomb})
		return true
	})

	// Filter pass: bit i%64 of pass[i/64] is set when table i may hold a
	// key in [lo, hi].
	var passBuf [4]uint64
	pass := passBuf[:0]
	var start, probeTime time.Duration
	weight := db.timeOp()
	timed := weight != 0
	if timed {
		start = monotonic()
	}
	for _, set := range v.sets {
		pass = append(pass, set.RangeMayMatch(lo, hi))
	}
	if timed {
		probeTime = monotonic() - start
	}
	survivors := 0
	for _, m := range pass {
		survivors += bits.OnesCount64(m)
	}
	db.stats.addProbes(uint64(len(tables)), uint64(len(tables)-survivors), weight, probeTime)

	// Data pass: per-source sorted streams, memtable (newest) then the
	// surviving tables newest-first that yield a record. Priority = source
	// order. A scan that no table yields to, as after a false positive,
	// builds neither the sources nor the merge.
	var sources [][]record
	for i := len(tables) - 1; i >= 0 && survivors > 0; i-- {
		if pass[i/64]&(1<<(i%64)) == 0 {
			continue
		}
		survivors--
		var recs []record
		if err := tables[i].scan(lo, hi, func(r record) bool {
			recs = append(recs, r)
			return true
		}); err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			continue
		}
		if sources == nil {
			sources = append(make([][]record, 0, 2+survivors), memRecs)
		}
		sources = append(sources, recs)
	}
	if sources == nil {
		return liveKVs(memRecs), nil
	}
	return mergeNewestWins(sources), nil
}

// liveKVs drops the tombstones of one sorted, duplicate-free stream.
func liveKVs(recs []record) []KV {
	var out []KV
	for _, r := range recs {
		if !r.tomb {
			out = append(out, KV{Key: r.key, Value: r.value})
		}
	}
	return out
}

// ScanEmptyCheck reports whether the scan produced any live record — the
// probe the paper's empty-range workloads issue (the system only cares
// whether it must look further).
func (db *DB) ScanEmptyCheck(lo, hi uint64) (bool, error) {
	kvs, err := db.Scan(lo, hi)
	return len(kvs) > 0, err
}

// NumTables returns the number of L0 SSTables.
func (db *DB) NumTables() int { return len(db.view.Load().tables) }

// mergeNewestWins merges per-source sorted record streams; lower source
// index wins on key ties (sources are ordered newest first). Tombstones
// suppress older versions and are dropped from the output.
func mergeNewestWins(sources [][]record) []KV {
	h := &mergeHeap{}
	for i, recs := range sources {
		if len(recs) > 0 {
			heap.Push(h, mergeItem{recs: recs, src: i})
		}
	}
	var out []KV
	lastKey, haveLast := uint64(0), false
	for h.Len() > 0 {
		it := heap.Pop(h).(mergeItem)
		r := it.recs[0]
		if len(it.recs) > 1 {
			heap.Push(h, mergeItem{recs: it.recs[1:], src: it.src})
		}
		if haveLast && r.key == lastKey {
			continue // older version of an emitted (or tombstoned) key
		}
		lastKey, haveLast = r.key, true
		if !r.tomb {
			out = append(out, KV{Key: r.key, Value: r.value})
		}
	}
	return out
}

type mergeItem struct {
	recs []record
	src  int
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].recs[0].key != h[j].recs[0].key {
		return h[i].recs[0].key < h[j].recs[0].key
	}
	return h[i].src < h[j].src
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
