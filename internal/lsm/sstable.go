package lsm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/hashutil"
)

// SSTable layout (all little endian):
//
//	data blocks   — count u32, then per entry: key u64, flags u8, vlen u32, value
//	index block   — count u32, then per block: firstKey u64, lastKey u64, off u64, len u64
//	filter block  — nameLen u8, policy name, payload
//	footer        — indexOff u64, indexLen u64, filterOff u64, filterLen u64,
//	                numEntries u64, indexHash u64, filterHash u64,
//	                checksum u64 (keyed hash of the 56-byte prefix)
//
// indexHash/filterHash are keyed hashes of the index and filter blocks, so
// a byte flip inside either is detected at OpenTable even though the
// footer itself is intact. The writer streams to <path>.tmp and renames on
// Finish, making table creation atomic: any *.sst either carries a valid
// footer or was corrupted after commit.
const (
	tableMagic     = 0x62524c534d543032 // "bRLSMT02"
	footerSize     = 64
	flagTombstone  = 1 << 0
	defaultBlockSz = 4096

	// Previous on-disk format (48-byte footer, no per-block hashes).
	// Recognised only so that opening an old table fails with
	// ErrUnsupportedTableVersion instead of being misread as damage.
	tableMagicV1 = 0x62524c534d543031 // "bRLSMT01"
	footerSizeV1 = 48
)

// ErrCorruptTable reports a malformed SSTable: the footer committed it,
// but the interior bytes no longer match their checksums (bit rot, a
// damaged disk) — the table held data once and that data is now suspect,
// so opening it is a hard error.
var ErrCorruptTable = errors.New("lsm: corrupt sstable")

// ErrTornTable reports a file with no committed footer — the tail left by
// a crash mid-flush (SIGKILL between write and rename). Unlike
// ErrCorruptTable this is expected after a crash and never represents
// acknowledged data; DB.Open quarantines such files instead of failing.
var ErrTornTable = errors.New("lsm: torn sstable (no committed footer)")

// ErrUnsupportedTableVersion reports a table written by an older (or
// newer) on-disk format. The data may be perfectly intact — the reader
// just cannot parse it — so upgrades must fail loudly rather than let
// the file be quarantined or misdiagnosed as corruption.
var ErrUnsupportedTableVersion = errors.New("lsm: unsupported sstable format version")

// TableWriter streams sorted records into an SSTable file. The bytes go
// to <path>.tmp; Finish fsyncs and renames to the final path, so a crash
// at any earlier point leaves no *.sst behind.
type TableWriter struct {
	f         *os.File
	bw        *bufio.Writer // buffers every write to f
	hdr       [4]byte       // the block header being written
	path      string
	policy    FilterPolicy
	blockSize int
	buf       []byte
	blockBuf  []byte
	blockN    uint32
	firstKey  uint64
	lastKey   uint64
	haveFirst bool
	index     []indexEntry
	keys      []uint64
	entries   uint64
	off       uint64
	prevKey   uint64
	haveAny   bool
	// FilterBuildTime records how long CreateFilter took (Fig. 12.C).
	FilterBuildTime time.Duration
}

type indexEntry struct {
	firstKey, lastKey, off, length uint64
}

// NewTableWriter creates a writer; blockSize 0 means 4 KiB.
func NewTableWriter(path string, policy FilterPolicy, blockSize int) (*TableWriter, error) {
	if blockSize <= 0 {
		blockSize = defaultBlockSz
	}
	f, err := os.Create(path + tmpSuffix)
	if err != nil {
		return nil, err
	}
	return &TableWriter{f: f, bw: bufio.NewWriterSize(f, writeBufSize), path: path, policy: policy, blockSize: blockSize}, nil
}

// writeBufSize is the write buffer of a TableWriter: one write syscall
// per 16 default-size blocks.
const writeBufSize = 64 << 10

// tmpSuffix marks in-flight table files; DB.Open sweeps leftovers.
const tmpSuffix = ".tmp"

// Add appends a record; keys must be strictly increasing.
func (w *TableWriter) Add(key uint64, value []byte, tomb bool) error {
	if w.haveAny && key <= w.prevKey {
		return fmt.Errorf("lsm: keys not strictly increasing (%d after %d)", key, w.prevKey)
	}
	w.prevKey, w.haveAny = key, true
	if !w.haveFirst {
		w.firstKey = key
		w.haveFirst = true
	}
	w.lastKey = key
	flags := byte(0)
	if tomb {
		flags |= flagTombstone
	}
	w.blockBuf = binary.LittleEndian.AppendUint64(w.blockBuf, key)
	w.blockBuf = append(w.blockBuf, flags)
	w.blockBuf = binary.LittleEndian.AppendUint32(w.blockBuf, uint32(len(value)))
	w.blockBuf = append(w.blockBuf, value...)
	w.blockN++
	w.keys = append(w.keys, key)
	w.entries++
	if len(w.blockBuf) >= w.blockSize {
		return w.flushBlock()
	}
	return nil
}

func (w *TableWriter) flushBlock() error {
	if w.blockN == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(w.hdr[:], w.blockN)
	if _, err := w.bw.Write(w.hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(w.blockBuf); err != nil {
		return err
	}
	n := uint64(len(w.hdr) + len(w.blockBuf))
	w.index = append(w.index, indexEntry{w.firstKey, w.lastKey, w.off, n})
	w.off += n
	w.blockBuf = w.blockBuf[:0]
	w.blockN = 0
	w.haveFirst = false
	return nil
}

// Finish writes the index, filter block and footer, then closes the file.
func (w *TableWriter) Finish() error {
	if err := w.flushBlock(); err != nil {
		return err
	}
	// Index block.
	idx := binary.LittleEndian.AppendUint32(nil, uint32(len(w.index)))
	for _, e := range w.index {
		idx = binary.LittleEndian.AppendUint64(idx, e.firstKey)
		idx = binary.LittleEndian.AppendUint64(idx, e.lastKey)
		idx = binary.LittleEndian.AppendUint64(idx, e.off)
		idx = binary.LittleEndian.AppendUint64(idx, e.length)
	}
	indexOff := w.off
	if _, err := w.bw.Write(idx); err != nil {
		return err
	}
	w.off += uint64(len(idx))

	// Filter block.
	start := time.Now()
	payload, err := w.policy.CreateFilter(w.keys)
	w.FilterBuildTime = time.Since(start)
	if err != nil {
		return fmt.Errorf("lsm: filter build: %w", err)
	}
	name := w.policy.Name()
	fb := append([]byte{byte(len(name))}, name...)
	fb = append(fb, payload...)
	filterOff := w.off
	if _, err := w.bw.Write(fb); err != nil {
		return err
	}
	w.off += uint64(len(fb))

	// Footer.
	foot := make([]byte, 0, footerSize)
	foot = binary.LittleEndian.AppendUint64(foot, indexOff)
	foot = binary.LittleEndian.AppendUint64(foot, uint64(len(idx)))
	foot = binary.LittleEndian.AppendUint64(foot, filterOff)
	foot = binary.LittleEndian.AppendUint64(foot, uint64(len(fb)))
	foot = binary.LittleEndian.AppendUint64(foot, w.entries)
	foot = binary.LittleEndian.AppendUint64(foot, hashutil.HashBytes(idx, tableMagic))
	foot = binary.LittleEndian.AppendUint64(foot, hashutil.HashBytes(fb, tableMagic))
	foot = binary.LittleEndian.AppendUint64(foot, hashutil.HashBytes(foot, tableMagic))
	if _, err := w.bw.Write(foot); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	// Commit point: the table becomes visible under its final name only
	// with a complete, checksummed footer on disk.
	if err := os.Rename(w.path+tmpSuffix, w.path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(w.path))
}

// hasV1Footer reports whether the file ends in a valid bRLSMT01 footer,
// i.e. was committed by the previous format's writer.
func hasV1Footer(f *os.File, size int64) bool {
	if size < footerSizeV1 {
		return false
	}
	foot := make([]byte, footerSizeV1)
	if _, err := f.ReadAt(foot, size-footerSizeV1); err != nil {
		return false
	}
	return binary.LittleEndian.Uint64(foot[40:]) == hashutil.HashBytes(foot[:40], tableMagicV1)
}

// syncDir fsyncs a directory so a just-renamed table survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Abort closes and removes a partially written table.
func (w *TableWriter) Abort() {
	name := w.f.Name()
	w.f.Close()
	os.Remove(name)
}

// Table is an open SSTable.
type Table struct {
	f       *os.File
	path    string
	index   []indexEntry
	filter  FilterReader
	entries uint64
	stats   *IOStats
	// SimulatedReadLatency is charged (not slept) per block read.
	simLatency time.Duration
	// data is the data blocks, the file's bytes up to the index block: a
	// read-only mapping that mapping owns, or, where mapping is
	// unavailable or fails, a heap copy and a nil mapping. A pointer into
	// the mapping keeps nothing alive, so a read keeps the Table reachable
	// (runtime.KeepAlive) until its last use of data.
	data    []byte
	mapping *tableMapping
	// sound has one flag per data block, set once a read has walked the
	// whole block and found every record in bounds and the keys strictly
	// ascending. Later reads of a sound block stop at the first key past
	// the one they look for. A damaged block is never marked, so each of
	// its reads walks it whole and fails.
	sound []atomic.Bool
}

// tableMapping owns the mapping of one table's data blocks. Table.Close
// unmaps it; a table that is never closed is unmapped by the cleanup
// mapTable registers, once the owner is unreachable.
type tableMapping struct {
	mem     []byte
	cleanup runtime.Cleanup
}

// OpenTable opens an SSTable, resolving the filter policy by name through
// the registry and deserializing the filter block (the cost Fig. 12.G
// reports as "Deserialization"). Once the footer, index and filter block
// have checked out, it maps the data blocks read-only (mapTable), or
// reads them into the heap where it cannot. The file must not shrink
// while the table is open: a read of a mapped page past the end of the
// file faults the process. Tables are immutable after their commit
// rename, so only damage from outside truncates one.
func OpenTable(path string, reg Registry, stats *IOStats, simLatency time.Duration) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < footerSize {
		if hasV1Footer(f, st.Size()) {
			f.Close()
			return nil, fmt.Errorf("%w: bRLSMT01 (48-byte footer)", ErrUnsupportedTableVersion)
		}
		f.Close()
		return nil, fmt.Errorf("%w: %d-byte file", ErrTornTable, st.Size())
	}
	foot := make([]byte, footerSize)
	if _, err := f.ReadAt(foot, st.Size()-footerSize); err != nil {
		f.Close()
		return nil, err
	}
	if binary.LittleEndian.Uint64(foot[56:]) != hashutil.HashBytes(foot[:56], tableMagic) {
		if hasV1Footer(f, st.Size()) {
			f.Close()
			return nil, fmt.Errorf("%w: bRLSMT01 (48-byte footer)", ErrUnsupportedTableVersion)
		}
		f.Close()
		// Under the tmp+rename commit protocol every *.sst carries a
		// complete footer, so a full-size file whose footer checksum fails
		// is post-commit damage to acknowledged data — never a torn tail.
		return nil, fmt.Errorf("%w: bad footer checksum", ErrCorruptTable)
	}
	indexOff := binary.LittleEndian.Uint64(foot[0:])
	indexLen := binary.LittleEndian.Uint64(foot[8:])
	filterOff := binary.LittleEndian.Uint64(foot[16:])
	filterLen := binary.LittleEndian.Uint64(foot[24:])
	entries := binary.LittleEndian.Uint64(foot[32:])
	indexHash := binary.LittleEndian.Uint64(foot[40:])
	filterHash := binary.LittleEndian.Uint64(foot[48:])
	size := uint64(st.Size())
	if indexOff > size || indexLen > size-indexOff || filterOff > size || filterLen > size-filterOff {
		f.Close()
		return nil, ErrCorruptTable
	}

	t := &Table{f: f, path: path, entries: entries, stats: stats, simLatency: simLatency}
	idx := make([]byte, indexLen)
	if _, err := f.ReadAt(idx, int64(indexOff)); err != nil {
		f.Close()
		return nil, err
	}
	if hashutil.HashBytes(idx, tableMagic) != indexHash {
		f.Close()
		return nil, fmt.Errorf("%w: index block checksum mismatch", ErrCorruptTable)
	}
	if len(idx) < 4 {
		f.Close()
		return nil, ErrCorruptTable
	}
	n := binary.LittleEndian.Uint32(idx)
	if uint64(len(idx)) != 4+32*uint64(n) {
		f.Close()
		return nil, ErrCorruptTable
	}
	for i := uint32(0); i < n; i++ {
		off := 4 + 32*i
		t.index = append(t.index, indexEntry{
			firstKey: binary.LittleEndian.Uint64(idx[off:]),
			lastKey:  binary.LittleEndian.Uint64(idx[off+8:]),
			off:      binary.LittleEndian.Uint64(idx[off+16:]),
			length:   binary.LittleEndian.Uint64(idx[off+24:]),
		})
	}

	fb := make([]byte, filterLen)
	if _, err := f.ReadAt(fb, int64(filterOff)); err != nil {
		f.Close()
		return nil, err
	}
	if hashutil.HashBytes(fb, tableMagic) != filterHash {
		f.Close()
		return nil, fmt.Errorf("%w: filter block checksum mismatch", ErrCorruptTable)
	}
	if len(fb) < 1 || int(fb[0])+1 > len(fb) {
		f.Close()
		return nil, ErrCorruptTable
	}
	name := string(fb[1 : 1+fb[0]])
	policy, err := reg.lookup(name)
	if err != nil {
		f.Close()
		return nil, err
	}
	start := time.Now()
	reader, err := policy.NewReader(fb[1+fb[0]:])
	if stats != nil {
		stats.DeserNanos.Add(uint64(time.Since(start)))
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: filter block: %w", err)
	}
	t.filter = reader
	t.sound = make([]atomic.Bool, len(t.index))
	if t.data, t.mapping, err = tableData(f, indexOff); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// tableData returns the first n bytes of f: mapped where mapTable can,
// otherwise read into the heap once.
func tableData(f *os.File, n uint64) ([]byte, *tableMapping, error) {
	if n == 0 {
		return nil, nil, nil
	}
	if mem, owner := mapTable(f, n); owner != nil {
		return mem, owner, nil
	}
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, nil, err
	}
	return buf, nil, nil
}

// Close unmaps the data blocks and releases the file handle. No read of
// the table may run during or after Close; DB.Close waits for its reads
// before it closes their tables.
func (t *Table) Close() error {
	if m := t.mapping; m != nil {
		t.mapping, t.data = nil, nil
		m.cleanup.Stop()
		unmapTable(m.mem)
	}
	return t.f.Close()
}

// Entries returns the record count.
func (t *Table) Entries() uint64 { return t.entries }

// Path returns the backing file path.
func (t *Table) Path() string { return t.path }

// readBlock returns data block i, a slice of t.data that the caller reads
// while it keeps t reachable. An index entry that runs past the data
// blocks fails the read with ErrCorruptTable.
func (t *Table) readBlock(i int) ([]byte, error) {
	e := t.index[i]
	if e.off > uint64(len(t.data)) || e.length > uint64(len(t.data))-e.off {
		return nil, fmt.Errorf("%w: block %d at %d+%d runs past the data blocks (%d bytes)", ErrCorruptTable, i, e.off, e.length, len(t.data))
	}
	if t.stats != nil {
		t.stats.BlockReads.Add(1)
		t.stats.BytesRead.Add(e.length)
		t.stats.IOWaitNanos.Add(uint64(t.simLatency))
	}
	return t.data[e.off : e.off+e.length : e.off+e.length], nil
}

// blockRecords returns the record count of a data block and the offset of
// its first record.
func blockRecords(buf []byte) (n uint32, off int, err error) {
	if len(buf) < 4 {
		return 0, 0, ErrCorruptTable
	}
	return binary.LittleEndian.Uint32(buf), 4, nil
}

// recordAt parses the record at off of a data block: its key, tombstone
// flag and value buf[v:next], where next is the offset of the record after
// it. It reports false for a record whose header or value runs past the
// block end, as a record count past the end also yields.
func recordAt(buf []byte, off int) (key uint64, tomb bool, v, next int, ok bool) {
	if off+13 > len(buf) {
		return 0, false, 0, 0, false
	}
	v = off + 13
	next = v + int(binary.LittleEndian.Uint32(buf[off+9:]))
	return binary.LittleEndian.Uint64(buf[off:]), buf[off+8]&flagTombstone != 0, v, next, next <= len(buf)
}

// getInBlock looks key up in data block i, the one findBlock chose. The
// block's first read walks it whole and marks it sound when it found no
// damage; later reads stop at the first key at or past key.
func (t *Table) getInBlock(i int, key uint64) (value []byte, tomb, found bool, err error) {
	buf, err := t.readBlock(i)
	if err != nil {
		return nil, false, false, err
	}
	whole := !t.sound[i].Load()
	value, tomb, found, sound, err := getInBuf(buf, key, whole)
	runtime.KeepAlive(t) // the owner of buf's mapping
	if sound {
		t.sound[i].Store(true)
	}
	return value, tomb, found, err
}

// getInBuf looks key up in one data block and copies only the value it
// returns. With whole set it walks the whole block, so that damage after
// the key fails the read as well, and reports the block sound when every
// record parsed and the keys ascend strictly. Otherwise it stops at the
// first key at or past key, bounds-checking each record it reaches.
func getInBuf(buf []byte, key uint64, whole bool) (value []byte, tomb, found, sound bool, err error) {
	n, off, err := blockRecords(buf)
	if err != nil {
		return nil, false, false, false, err
	}
	var v, end int
	var prev uint64
	sorted := true
	for r := uint32(0); r < n; r++ {
		k, tmb, vOff, next, ok := recordAt(buf, off)
		if !ok {
			return nil, false, false, false, ErrCorruptTable
		}
		if !found && k == key {
			found, tomb, v, end = true, tmb, vOff, next
		}
		if !whole && k >= key {
			break
		}
		sorted = sorted && (r == 0 || k > prev)
		prev, off = k, next
	}
	sound = whole && sorted
	if !found || tomb {
		return nil, tomb, found, sound, nil
	}
	return bytes.Clone(buf[v:end]), false, true, sound, nil
}

// firstBlock returns the index of the first block whose last key is at
// least key, len(t.index) when there is none.
func (t *Table) firstBlock(key uint64) int {
	lo, hi := 0, len(t.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.index[mid].lastKey < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findBlock returns the index of the block that may hold key, or -1.
func (t *Table) findBlock(key uint64) int {
	if i := t.firstBlock(key); i < len(t.index) && t.index[i].firstKey <= key {
		return i
	}
	return -1
}

// scan invokes fn for records with lo ≤ key ≤ hi in key order; fn
// returns false to stop. Each record fn sees owns a copy of its value. It
// walks a block whole on its first read, as getInBlock does, and reads
// blocks without consulting the filter: DB.Scan probes every table's
// filter before it reads any block.
func (t *Table) scan(lo, hi uint64, fn func(record) bool) error {
	defer runtime.KeepAlive(t) // the owner of the blocks' mapping
	more := true
	for i := t.firstBlock(lo); more && i < len(t.index) && t.index[i].firstKey <= hi; i++ {
		buf, err := t.readBlock(i)
		if err != nil {
			return err
		}
		var sound bool
		if more, sound, err = scanBlock(buf, lo, hi, fn, !t.sound[i].Load()); err != nil {
			return err
		}
		if sound {
			t.sound[i].Store(true)
		}
	}
	return nil
}

// scanBlock walks one block for scan, passing fn the records in [lo, hi]
// until fn stops; it reports whether the scan goes on past the block.
// With whole set it walks the whole block and reports it sound as
// getInBuf does; otherwise it stops at the first key past hi or where fn
// stops.
func scanBlock(buf []byte, lo, hi uint64, fn func(record) bool, whole bool) (more, sound bool, err error) {
	n, off, err := blockRecords(buf)
	if err != nil {
		return false, false, err
	}
	more = true
	var prev uint64
	sorted := true
	for r := uint32(0); r < n && (more || whole); r++ {
		key, tomb, v, next, ok := recordAt(buf, off)
		if !ok {
			return false, false, ErrCorruptTable
		}
		sorted = sorted && (r == 0 || key > prev)
		prev, off = key, next
		if !more || key < lo {
			continue
		}
		if key > hi {
			more = false
			continue
		}
		more = fn(record{key: key, value: bytes.Clone(buf[v:next]), tomb: tomb})
	}
	return more, whole && sorted, nil
}
