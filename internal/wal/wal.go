// Package wal implements a segmented, CRC-checksummed append-only log of
// opaque records: the durability primitive that decouples persistence cost
// from filter size. Snapshots of a bloomRF filter scale with the bit array;
// the WAL scales with the insert rate, so the serving layer appends
// mutations here on the hot path and lets snapshots happen at leisure
// (restore = newest snapshot + replay of the log tail).
//
// Layout: a log directory holds segment files named wal-<base>.seg, where
// <base> is the segment's start offset in the logical byte stream. Positions
// are logical byte offsets: contiguous across segments, monotonically
// increasing, never reused — a position uniquely names a record for
// replay, snapshot manifests ("this snapshot covers everything below P")
// and replication ("stream me everything from P").
//
// Appends are group-committed: concurrent Append calls are batched by a
// single writer goroutine into one write (and, under SyncAlways, one
// fsync), so the per-insert durability cost amortizes across the batch —
// the classic group-commit latency/throughput trade. The fsync policy is
// configurable per log (SyncAlways / SyncInterval / SyncNone); Durable()
// reports the prefix guaranteed on disk, End() the prefix readable by
// tailing readers.
//
// Crash behaviour: a torn final record (crash mid-append) is detected by
// CRC at Open and dropped, truncating the log to its last clean record.
// An invalid record in a rotation-sealed segment is not a tear — data
// after it existed — so Open refuses with ErrCorrupt instead of silently
// replaying past it.
package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// SyncPolicy selects when appends are fsynced.
type SyncPolicy string

const (
	// SyncAlways fsyncs every group commit before acknowledging the
	// appends in it. No acknowledged record is ever lost; the group
	// commit amortizes the fsync across concurrent appenders.
	SyncAlways SyncPolicy = "always"
	// SyncInterval acknowledges after the OS write and fsyncs on a timer;
	// a crash loses at most the last interval's acknowledged records.
	SyncInterval SyncPolicy = "interval"
	// SyncNone never fsyncs during operation (only on Close); the OS
	// decides when pages reach disk. Fastest, weakest.
	SyncNone SyncPolicy = "none"
)

// Valid reports whether p is a known sync policy.
func (p SyncPolicy) Valid() bool {
	return p == SyncAlways || p == SyncInterval || p == SyncNone
}

// Defaults for zero Options fields.
const (
	DefaultSegmentBytes = 64 << 20
	DefaultSyncInterval = 100 * time.Millisecond
)

// Options configures a Log.
type Options struct {
	// Dir is the log directory, created if absent.
	Dir string
	// Policy is the fsync policy; empty means SyncInterval.
	Policy SyncPolicy
	// SyncInterval is the flush period under SyncInterval; 0 means
	// DefaultSyncInterval.
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment once it reaches this size;
	// 0 means DefaultSegmentBytes. One group commit may overshoot it.
	SegmentBytes int64
}

// segMeta describes one on-disk segment.
type segMeta struct {
	base   uint64 // logical offset of the segment's first byte
	size   int64  // bytes of valid records in the file
	sealed bool   // rotation finished; the file will never grow
}

// appendReq is one queued Append awaiting group commit.
type appendReq struct {
	rec     Record
	pos     uint64 // assigned by the writer goroutine
	fsyncNs int64  // fsync time of the group commit this record rode in
	err     error
	done    chan struct{}
}

// Log is an append-only record log. All methods are safe for concurrent
// use; Append may be called from any number of goroutines and is batched
// into group commits.
type Log struct {
	opt Options

	mu     sync.Mutex // guards segs, active file handle, notify channel
	segs   []segMeta  // ascending base; last entry is the active segment
	active *os.File
	notify chan struct{} // closed and replaced on every commit
	closed bool          // read and written only under mu

	committed atomic.Uint64 // logical end: bytes written and readable
	durable   atomic.Uint64 // prefix guaranteed on disk
	oldest    atomic.Uint64 // base of the oldest retained segment

	closeMu      sync.RWMutex // excludes Append vs Close
	appendClosed bool         // read and written only under closeMu
	appendCh     chan *appendReq
	written      chan struct{} // writer goroutine exited
	stopSync     chan struct{} // stops the interval-sync goroutine
	syncDone     chan struct{}

	// Instrumentation, all wait-free on the commit path.
	appends       atomic.Uint64 // records acknowledged
	groupCommits  atomic.Uint64 // batches written
	rotations     atomic.Uint64 // segments sealed by rotation
	truncatedSegs atomic.Uint64 // segments removed by TruncateBefore
	fsyncs        atomic.Uint64 // fsync calls (commit, interval, explicit, seal)
	fsyncHist     obs.Hist      // fsync latency, nanoseconds
	batchHist     [BatchBuckets]atomic.Uint64
}

// Group-commit batch-size histogram geometry: power-of-two buckets with
// upper bounds 1, 2, 4, ..., groupLimit (512), plus an overflow bucket.
// The obs.Hist geometry starts at 2^12 and would fold every batch size
// into its underflow bucket, so batch sizes get their own tiny layout.
const BatchBuckets = 11

// batchBucket maps a batch size (≥1) to its bucket: index i covers
// (2^(i-1), 2^i] so the le bounds are exact powers of two.
func batchBucket(n int) int {
	if n <= 1 {
		return 0
	}
	i := bits.Len(uint(n - 1)) // ceil(log2 n)
	if i >= BatchBuckets {
		return BatchBuckets - 1
	}
	return i
}

// BatchBucketLE returns the inclusive upper bound of batch-size bucket
// i, or -1 for the overflow bucket (rendered as +Inf).
func BatchBucketLE(i int) int {
	if i >= BatchBuckets-1 {
		return -1
	}
	return 1 << i
}

// noteFsync records one fsync and its duration.
func (l *Log) noteFsync(d time.Duration) {
	l.fsyncs.Add(1)
	l.fsyncHist.Observe(d.Nanoseconds())
}

// timedSync fsyncs the active segment and records the latency. Caller
// holds l.mu.
func (l *Log) timedSync() error {
	t0 := time.Now()
	err := l.active.Sync()
	l.noteFsync(time.Since(t0))
	return err
}

// segName formats a segment file name from its base offset.
func segName(base uint64) string { return fmt.Sprintf("wal-%020d.seg", base) }

// parseSegName extracts the base offset from a segment file name.
func parseSegName(name string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	s, ok = strings.CutSuffix(s, ".seg")
	if !ok {
		return 0, false
	}
	base, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// Open opens (creating if needed) the log in opt.Dir, validates every
// retained segment, truncates a torn tail off the newest one, and
// positions the log for appending. An invalid record anywhere but the
// newest segment's tail fails with ErrCorrupt.
func Open(opt Options) (*Log, error) {
	if opt.Dir == "" {
		return nil, errors.New("wal: directory must not be empty")
	}
	if opt.Policy == "" {
		opt.Policy = SyncInterval
	}
	if !opt.Policy.Valid() {
		return nil, fmt.Errorf("wal: unknown sync policy %q", opt.Policy)
	}
	if opt.SyncInterval <= 0 {
		opt.SyncInterval = DefaultSyncInterval
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating log dir: %w", err)
	}
	l := &Log{
		opt:      opt,
		notify:   make(chan struct{}),
		appendCh: make(chan *appendReq, 1024),
		written:  make(chan struct{}),
		stopSync: make(chan struct{}),
		syncDone: make(chan struct{}),
	}
	if err := l.scan(); err != nil {
		return nil, err
	}
	go l.writeLoop()
	if opt.Policy == SyncInterval {
		go l.syncLoop()
	} else {
		close(l.syncDone)
	}
	return l, nil
}

// scan discovers segments, validates them, repairs the newest one's tail
// and opens it for appending (creating the first segment if none exist).
func (l *Log) scan() error {
	ents, err := os.ReadDir(l.opt.Dir)
	if err != nil {
		return fmt.Errorf("wal: listing log dir: %w", err)
	}
	var bases []uint64
	for _, e := range ents {
		if base, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			bases = append(bases, base)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	var sc segScanner
	for i, base := range bases {
		path := filepath.Join(l.opt.Dir, segName(base))
		validEnd, size, err := sc.validPrefix(path)
		if err != nil {
			return fmt.Errorf("wal: reading segment %s: %w", segName(base), err)
		}
		last := i == len(bases)-1
		if validEnd != size {
			if !last {
				return fmt.Errorf("%w: %s at offset %d", ErrCorrupt, segName(base), validEnd)
			}
			// Torn tail on the newest segment: drop it.
			if err := os.Truncate(path, int64(validEnd)); err != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", segName(base), err)
			}
		}
		if i > 0 && l.segs[i-1].base+uint64(l.segs[i-1].size) != base {
			return fmt.Errorf("%w: gap between segments %s and %s",
				ErrCorrupt, segName(l.segs[i-1].base), segName(base))
		}
		l.segs = append(l.segs, segMeta{base: base, size: validEnd, sealed: !last})
	}
	if len(l.segs) == 0 {
		l.segs = []segMeta{{base: 0}}
		f, err := os.OpenFile(filepath.Join(l.opt.Dir, segName(0)), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("wal: creating first segment: %w", err)
		}
		l.active = f
		if err := syncDir(l.opt.Dir); err != nil {
			return fmt.Errorf("wal: syncing log dir: %w", err)
		}
	} else {
		tail := &l.segs[len(l.segs)-1]
		f, err := os.OpenFile(filepath.Join(l.opt.Dir, segName(tail.base)), os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("wal: opening active segment: %w", err)
		}
		if _, err := f.Seek(tail.size, io.SeekStart); err != nil {
			f.Close()
			return fmt.Errorf("wal: seeking active segment: %w", err)
		}
		l.active = f
	}
	end := l.segs[len(l.segs)-1].base + uint64(l.segs[len(l.segs)-1].size)
	l.committed.Store(end)
	l.durable.Store(end) // everything that survived the scan is on disk
	l.oldest.Store(l.segs[0].base)
	return nil
}

// segScanner validates segments at Open record by record, through one
// read buffer and one record buffer that grows to the largest record, both
// reused across segments: Open never holds a segment whole.
type segScanner struct {
	rd  *bufio.Reader
	rec []byte
}

// validPrefix returns the size of the segment file at path and the length
// of its valid prefix: the offset of the first record that is cut short,
// longer than MaxRecordBytes or fails its CRC, or the size when every
// record is clean.
func (sc *segScanner) validPrefix(path string) (validEnd, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size = st.Size()
	if sc.rd == nil {
		sc.rd = bufio.NewReaderSize(f, 64<<10)
	} else {
		sc.rd.Reset(f)
	}
	for validEnd < size {
		hdr, err := sc.rd.Peek(headerSize)
		if err != nil {
			if errors.Is(err, io.EOF) {
				break // a header cut short
			}
			return 0, 0, err
		}
		n := int64(binary.LittleEndian.Uint32(hdr[4:8]))
		if n > MaxRecordBytes || headerSize+n > size-validEnd {
			break
		}
		if int64(cap(sc.rec)) < headerSize+n {
			sc.rec = make([]byte, headerSize+n)
		}
		b := sc.rec[:headerSize+n]
		if _, err := io.ReadFull(sc.rd, b); err != nil {
			return 0, 0, err
		}
		if _, _, err := parseRecord(b); err != nil {
			break
		}
		validEnd += int64(len(b))
	}
	return validEnd, size, nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// End returns the log's logical end: the position the next record will be
// assigned, and the exclusive upper bound of what readers can see. A
// snapshot capturing End() before serializing state covers every record
// below it (see the serving layer's ordering contract).
func (l *Log) End() uint64 { return l.committed.Load() }

// Durable returns the position below which every byte is known to be
// fsynced. Under SyncAlways it equals End() between commits; under
// SyncInterval it lags by up to one interval; under SyncNone it only
// advances at rotation and Close.
func (l *Log) Durable() uint64 { return l.durable.Load() }

// OldestPos returns the start position of the oldest retained segment —
// the earliest position ReadFrom can serve.
func (l *Log) OldestPos() uint64 { return l.oldest.Load() }

// Stats is a point-in-time summary for metrics.
type Stats struct {
	End      uint64
	Durable  uint64
	Oldest   uint64
	Segments int

	// Cumulative instrumentation counters.
	Appends           uint64 // records acknowledged
	GroupCommits      uint64 // batches written (Appends/GroupCommits = mean batch)
	Rotations         uint64 // segments sealed by rotation
	TruncatedSegments uint64 // segments removed by TruncateBefore
	Fsyncs            uint64 // fsync calls

	// FsyncLatency is the fsync duration histogram (nanoseconds).
	FsyncLatency obs.HistSnapshot
	// CommitBatchRecords[i] counts group commits whose batch size fell
	// in bucket i (bounds via BatchBucketLE). The per-bucket counts sum
	// to GroupCommits; the batch sizes themselves sum to Appends.
	CommitBatchRecords [BatchBuckets]uint64
}

// Stats returns the log's current positions, segment count and
// instrumentation counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	n := len(l.segs)
	l.mu.Unlock()
	s := Stats{
		End: l.End(), Durable: l.Durable(), Oldest: l.OldestPos(), Segments: n,
		Appends:           l.appends.Load(),
		GroupCommits:      l.groupCommits.Load(),
		Rotations:         l.rotations.Load(),
		TruncatedSegments: l.truncatedSegs.Load(),
		Fsyncs:            l.fsyncs.Load(),
		FsyncLatency:      l.fsyncHist.Read(),
	}
	for i := range l.batchHist {
		s.CommitBatchRecords[i] = l.batchHist[i].Load()
	}
	return s
}

// Append queues rec for group commit and blocks until it is acknowledged
// per the sync policy (written and fsynced under SyncAlways; written under
// SyncInterval/SyncNone). It returns the record's start position.
func (l *Log) Append(rec Record) (uint64, error) {
	pos, _, err := l.AppendTraced(rec)
	return pos, err
}

// AppendTraced is Append plus attribution: it additionally returns the
// nanoseconds the acknowledging group commit spent in fsync (0 unless
// the policy is SyncAlways), so a request-scoped tracer can carve the
// fsync wait out of its opaque append interval.
func (l *Log) AppendTraced(rec Record) (pos uint64, fsyncNs int64, err error) {
	if len(rec.Data) > MaxRecordBytes {
		return 0, 0, fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(rec.Data), MaxRecordBytes)
	}
	req := &appendReq{rec: rec, done: make(chan struct{})}
	l.closeMu.RLock()
	if l.appendClosed {
		l.closeMu.RUnlock()
		return 0, 0, ErrClosed
	}
	l.appendCh <- req
	l.closeMu.RUnlock()
	<-req.done
	return req.pos, req.fsyncNs, req.err
}

// groupLimit bounds one group commit: at most this many records or
// groupBytes of encoded payload per write call, so one slow fsync does not
// build an unboundedly large in-memory batch behind it.
const (
	groupLimit = 512
	groupBytes = 4 << 20
)

// The writer encodes each group commit into one buffer, which it keeps for
// the next commit: commitBufBytes to start with, and whatever a commit grew
// it to, up to keepCommitBufBytes. A larger one (a batch of many big
// records) is dropped after its commit, so one burst does not pin its size
// for the life of the log.
const (
	commitBufBytes     = 64 << 10
	keepCommitBufBytes = 1 << 20
)

// writeLoop is the single writer goroutine: it drains queued appends into
// batches, writes each batch with one write call, fsyncs per policy and
// acknowledges the batch's appends.
func (l *Log) writeLoop() {
	defer close(l.written)
	batch := make([]*appendReq, 0, groupLimit)
	buf := make([]byte, 0, commitBufBytes)
	for first := range l.appendCh {
		batch = append(batch[:0], first)
		size := first.rec.EncodedLen()
	drain:
		for len(batch) < groupLimit && size < groupBytes {
			select {
			case req, ok := <-l.appendCh:
				if !ok {
					break drain
				}
				batch = append(batch, req)
				size += req.rec.EncodedLen()
			default:
				break drain
			}
		}
		if buf = l.commit(batch, buf[:0]); cap(buf) > keepCommitBufBytes {
			buf = make([]byte, 0, commitBufBytes)
		}
	}
	// Close drained the channel; flush state and close the file.
	l.mu.Lock()
	if l.active != nil {
		_ = l.active.Sync()
		l.durable.Store(l.committed.Load())
		_ = l.active.Close()
		l.active = nil
	}
	l.mu.Unlock()
}

// commit writes one batch: rotate if due, encode into buf, write, fsync per
// policy, assign positions, wake tailing readers and acknowledge the
// appends. It returns buf as the encoding grew it, for the next commit.
func (l *Log) commit(batch []*appendReq, buf []byte) []byte {
	l.mu.Lock()
	tail := &l.segs[len(l.segs)-1]
	if tail.size >= l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			l.fail(batch, err)
			return buf
		}
		tail = &l.segs[len(l.segs)-1]
	}
	pos := l.committed.Load()
	for _, req := range batch {
		req.pos = pos
		buf = appendRecord(buf, req.rec)
		pos += uint64(req.rec.EncodedLen())
	}
	// Failpoint for fault-injection tests: "wal.append" fails the batch
	// before any bytes hit the file.
	if ferr := faults.Do("wal.append"); ferr != nil {
		l.mu.Unlock()
		l.fail(batch, fmt.Errorf("wal: append: %w", ferr))
		return buf
	}
	// WriteAt at the tracked valid size, not sequential Write: a failed
	// partial write leaves garbage past tail.size, and the next commit
	// must overwrite it at the same offset or logical positions would
	// drift from file offsets.
	if _, err := l.active.WriteAt(buf, tail.size); err != nil {
		l.mu.Unlock()
		l.fail(batch, fmt.Errorf("wal: append: %w", err))
		return buf
	}
	if l.opt.Policy == SyncAlways {
		t0 := time.Now()
		err := l.active.Sync()
		d := time.Since(t0)
		l.noteFsync(d)
		if err != nil {
			l.mu.Unlock()
			l.fail(batch, fmt.Errorf("wal: fsync: %w", err))
			return buf
		}
		for _, req := range batch {
			req.fsyncNs = d.Nanoseconds()
		}
		l.durable.Store(pos)
	}
	tail.size += int64(len(buf))
	l.committed.Store(pos)
	l.appends.Add(uint64(len(batch)))
	l.groupCommits.Add(1)
	l.batchHist[batchBucket(len(batch))].Add(1)
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
	for _, req := range batch {
		close(req.done)
	}
	return buf
}

// fail acknowledges a batch with an error without advancing the log.
func (l *Log) fail(batch []*appendReq, err error) {
	for _, req := range batch {
		req.err = err
		close(req.done)
	}
}

// rotateLocked seals the active segment (fsync, close) and starts a new
// one at the current end. Caller holds l.mu.
func (l *Log) rotateLocked() error {
	if err := l.timedSync(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	end := l.committed.Load()
	if end > l.durable.Load() {
		l.durable.Store(end) // the seal fsync covered everything written
	}
	l.segs[len(l.segs)-1].sealed = true
	f, err := os.OpenFile(filepath.Join(l.opt.Dir, segName(end)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if err := syncDir(l.opt.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing log dir: %w", err)
	}
	l.active = f
	l.segs = append(l.segs, segMeta{base: end})
	l.rotations.Add(1)
	return nil
}

// syncLoop periodically fsyncs the active segment under SyncInterval.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opt.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.syncNow()
		case <-l.stopSync:
			return
		}
	}
}

// syncNow fsyncs the active segment and advances the durable mark to what
// was committed before the fsync started.
func (l *Log) syncNow() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return
	}
	c := l.committed.Load()
	if c == l.durable.Load() {
		return
	}
	if err := l.timedSync(); err == nil {
		l.durable.Store(c)
	}
}

// Sync forces an fsync of everything committed so far, whatever the
// policy. The serving layer calls it before a snapshot manifest records a
// WAL position, so the position never runs ahead of the log's durability.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.active == nil {
		return ErrClosed
	}
	c := l.committed.Load()
	if err := l.timedSync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	if c > l.durable.Load() {
		l.durable.Store(c)
	}
	return nil
}

// TruncateBefore removes sealed segments that end at or before pos —
// typically the lowest WAL position any live filter's latest snapshot
// covers, making those records dead weight. The active segment and any
// segment containing bytes at or after pos are kept. Removal is durable
// (directory fsync) before return.
func (l *Log) TruncateBefore(pos uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	removed := 0
	for _, s := range l.segs[:len(l.segs)-1] {
		if !s.sealed || s.base+uint64(s.size) > pos {
			break
		}
		if err := os.Remove(filepath.Join(l.opt.Dir, segName(s.base))); err != nil {
			return fmt.Errorf("wal: removing segment: %w", err)
		}
		removed++
	}
	if removed == 0 {
		return nil
	}
	l.truncatedSegs.Add(uint64(removed))
	l.segs = append(l.segs[:0], l.segs[removed:]...)
	l.oldest.Store(l.segs[0].base)
	return syncDir(l.opt.Dir)
}

// WaitFor blocks until the log end exceeds pos (new data for a tailing
// reader), the context is cancelled, or the log closes.
func (l *Log) WaitFor(ctx context.Context, pos uint64) error {
	for {
		if l.committed.Load() > pos {
			return nil
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return ErrClosed
		}
		if l.committed.Load() > pos {
			l.mu.Unlock()
			return nil
		}
		ch := l.notify
		l.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close stops accepting appends, flushes and fsyncs what was queued, and
// closes the active segment. Queued appends are committed, not dropped.
func (l *Log) Close() error {
	l.closeMu.Lock()
	if l.appendClosed {
		l.closeMu.Unlock()
		return nil
	}
	l.appendClosed = true
	close(l.appendCh)
	l.closeMu.Unlock()
	<-l.written
	if l.opt.Policy == SyncInterval {
		close(l.stopSync)
	}
	<-l.syncDone
	l.mu.Lock()
	l.closed = true
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
	return nil
}

// segmentFor returns the metadata of the segment containing pos and
// whether pos is retained at all. Caller holds l.mu.
func (l *Log) segmentForLocked(pos uint64) (segMeta, bool) {
	for _, s := range l.segs {
		if pos >= s.base && pos < s.base+uint64(s.size) {
			return s, true
		}
	}
	return segMeta{}, false
}

// Reader iterates committed records from a position. It is not safe for
// concurrent use; each consumer opens its own. A Reader sees records
// committed after it was opened (tailing): Next returns io.EOF at the
// current end, and the caller decides whether to WaitFor more.
type Reader struct {
	l    *Log
	pos  uint64
	f    *os.File
	base uint64
	hdr  [headerSize]byte
	data []byte
}

// ReadFrom opens a reader at pos. pos must be a record boundary at or
// after OldestPos() and at or before End(); ErrTooOld reports a position
// truncated away (callers fall back to a snapshot bootstrap).
func (l *Log) ReadFrom(pos uint64) (*Reader, error) {
	if pos < l.OldestPos() {
		return nil, fmt.Errorf("%w: %d < %d", ErrTooOld, pos, l.OldestPos())
	}
	if pos > l.End() {
		return nil, fmt.Errorf("wal: position %d beyond end %d", pos, l.End())
	}
	return &Reader{l: l, pos: pos, base: ^uint64(0)}, nil
}

// Pos returns the position of the next record Next will return.
func (r *Reader) Pos() uint64 { return r.pos }

// Close releases the reader's segment handle.
func (r *Reader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}

// open positions the reader's file handle on the segment containing r.pos.
func (r *Reader) open() error {
	r.l.mu.Lock()
	s, ok := r.l.segmentForLocked(r.pos)
	r.l.mu.Unlock()
	if !ok {
		if r.pos < r.l.OldestPos() {
			return fmt.Errorf("%w: reader at %d, oldest retained %d", ErrTooOld, r.pos, r.l.OldestPos())
		}
		return io.EOF // pos == End() and the next segment does not exist yet
	}
	f, err := os.Open(filepath.Join(r.l.opt.Dir, segName(s.base)))
	if err != nil {
		return fmt.Errorf("wal: opening segment for read: %w", err)
	}
	if r.f != nil {
		r.f.Close()
	}
	r.f, r.base = f, s.base
	return nil
}

// Next returns the record at the reader's position and advances past it.
// It returns io.EOF when the reader has caught up with End() — the log may
// still grow; WaitFor blocks until it does. The returned record's Data is
// only valid until the next call.
func (r *Reader) Next() (uint64, Record, error) {
	end := r.l.End()
	if r.pos >= end {
		return 0, Record{}, io.EOF
	}
	// Advance to the segment containing pos. Segment boundaries are
	// contiguous, so a reader at a sealed segment's end re-opens at the
	// next segment's base without changing pos.
	if r.f == nil || r.pos < r.base || !r.inSegment() {
		if err := r.open(); err != nil {
			return 0, Record{}, err
		}
	}
	off := int64(r.pos - r.base)
	if _, err := r.f.ReadAt(r.hdr[:], off); err != nil {
		return 0, Record{}, fmt.Errorf("wal: reading record header at %d: %w", r.pos, err)
	}
	n := int(binary.LittleEndian.Uint32(r.hdr[4:8]))
	if n > MaxRecordBytes {
		return 0, Record{}, fmt.Errorf("%w: impossible length %d at %d", ErrCorrupt, n, r.pos)
	}
	if cap(r.data) < headerSize+n {
		r.data = make([]byte, headerSize+n)
	}
	buf := r.data[:headerSize+n]
	if _, err := r.f.ReadAt(buf, off); err != nil {
		return 0, Record{}, fmt.Errorf("wal: reading record at %d: %w", r.pos, err)
	}
	rec, size, err := parseRecord(buf)
	if err != nil {
		return 0, Record{}, fmt.Errorf("%w: checksum failure at %d", ErrCorrupt, r.pos)
	}
	pos := r.pos
	r.pos += uint64(size)
	return pos, rec, nil
}

// inSegment reports whether the reader's current segment still contains
// r.pos (it stops containing it when pos crosses into the next segment).
func (r *Reader) inSegment() bool {
	r.l.mu.Lock()
	defer r.l.mu.Unlock()
	for _, s := range r.l.segs {
		if s.base == r.base {
			return r.pos < s.base+uint64(s.size) || !s.sealed
		}
	}
	return false
}
