package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// openT opens a log in dir with test-friendly small segments.
func openT(t *testing.T, dir string, opts ...func(*Options)) *Log {
	t.Helper()
	opt := Options{Dir: dir, Policy: SyncAlways, SegmentBytes: 1 << 10}
	for _, f := range opts {
		f(&opt)
	}
	l, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// collect replays the whole retained log into a slice.
func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	r, err := l.ReadFrom(l.OldestPos())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out []Record
	for {
		_, rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Record{Type: rec.Type, Data: append([]byte(nil), rec.Data...)})
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	want := make([]Record, 100)
	for i := range want {
		want[i] = Record{Type: byte(i % 7), Data: []byte(fmt.Sprintf("record-%d", i))}
		if _, err := l.Append(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same content, positions preserved.
	l2 := openT(t, dir)
	defer l2.Close()
	got = collect(t, l2)
	if len(got) != len(want) {
		t.Fatalf("after reopen: %d records, want %d", len(got), len(want))
	}
}

func TestPositionsAreContiguousAcrossSegments(t *testing.T) {
	l := openT(t, t.TempDir()) // 1 KiB segments force several rotations
	payload := bytes.Repeat([]byte("x"), 100)
	var wantPos []uint64
	next := uint64(0)
	for i := 0; i < 50; i++ {
		pos, err := l.Append(Record{Type: 1, Data: payload})
		if err != nil {
			t.Fatal(err)
		}
		wantPos = append(wantPos, pos)
		if pos != next {
			t.Fatalf("append %d at pos %d, want contiguous %d", i, pos, next)
		}
		next = pos + uint64(headerSize+len(payload))
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("expected several segments, got %d", st.Segments)
	}
	r, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; ; i++ {
		pos, _, err := r.Next()
		if errors.Is(err, io.EOF) {
			if i != len(wantPos) {
				t.Fatalf("reader saw %d records, want %d", i, len(wantPos))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if pos != wantPos[i] {
			t.Fatalf("reader record %d at pos %d, want %d", i, pos, wantPos[i])
		}
	}
	l.Close()
}

// TestTornTailTruncation pins the crash contract: an append cut off
// mid-record (any prefix of it) is dropped at Open and every record before
// it survives.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, func(o *Options) { o.SegmentBytes = 1 << 20 })
	for i := 0; i < 10; i++ {
		if _, err := l.Append(Record{Type: 2, Data: []byte(fmt.Sprintf("keep-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	end := l.End()
	if _, err := l.Append(Record{Type: 2, Data: []byte("the-final-doomed-record")}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	seg := filepath.Join(dir, segName(0))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the final record at every possible tear point: inside the
	// header, inside the payload, zero bytes of it.
	for cut := int(end); cut < len(full); cut += 3 {
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2 := openT(t, dir, func(o *Options) { o.SegmentBytes = 1 << 20 })
		if got := l2.End(); got != end {
			t.Fatalf("cut at %d: End() = %d, want torn tail dropped back to %d", cut, got, end)
		}
		recs := collect(t, l2)
		if len(recs) != 10 {
			t.Fatalf("cut at %d: %d records survive, want 10", cut, len(recs))
		}
		// The log must be appendable after repair.
		if _, err := l2.Append(Record{Type: 3, Data: []byte("after-repair")}); err != nil {
			t.Fatal(err)
		}
		if got := collect(t, l2); len(got) != 11 || string(got[10].Data) != "after-repair" {
			t.Fatalf("cut at %d: append after repair not visible", cut)
		}
		l2.Close()
	}
}

// TestByteFlipRejected pins the corruption contract: a flipped bit inside a
// committed record is never replayed as valid data. In the newest segment
// the log truncates at the flip; in a sealed segment Open refuses.
func TestByteFlipRejected(t *testing.T) {
	t.Run("newest segment", func(t *testing.T) {
		dir := t.TempDir()
		l := openT(t, dir, func(o *Options) { o.SegmentBytes = 1 << 20 })
		var firstEnd uint64
		for i := 0; i < 5; i++ {
			if _, err := l.Append(Record{Type: 1, Data: []byte(fmt.Sprintf("rec-%d", i))}); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				firstEnd = l.End()
			}
		}
		l.Close()
		seg := filepath.Join(dir, segName(0))
		body, _ := os.ReadFile(seg)
		body[firstEnd+headerSize] ^= 0x40 // flip a payload bit of record 1
		if err := os.WriteFile(seg, body, 0o644); err != nil {
			t.Fatal(err)
		}
		l2 := openT(t, dir, func(o *Options) { o.SegmentBytes = 1 << 20 })
		defer l2.Close()
		recs := collect(t, l2)
		if len(recs) != 1 || string(recs[0].Data) != "rec-0" {
			t.Fatalf("flip in newest segment: %d records replayed, want only the clean prefix (1)", len(recs))
		}
	})

	t.Run("sealed segment", func(t *testing.T) {
		dir := t.TempDir()
		l := openT(t, dir) // 1 KiB segments
		payload := bytes.Repeat([]byte("y"), 200)
		for i := 0; i < 20; i++ {
			if _, err := l.Append(Record{Type: 1, Data: payload}); err != nil {
				t.Fatal(err)
			}
		}
		if st := l.Stats(); st.Segments < 2 {
			t.Fatalf("need a sealed segment, have %d", st.Segments)
		}
		l.Close()
		seg := filepath.Join(dir, segName(0))
		body, _ := os.ReadFile(seg)
		body[headerSize+10] ^= 0x01
		if err := os.WriteFile(seg, body, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Dir: dir, Policy: SyncAlways, SegmentBytes: 1 << 10}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open over flipped sealed segment = %v, want ErrCorrupt", err)
		}
	})
}

func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	payload := bytes.Repeat([]byte("z"), 200)
	var positions []uint64
	for i := 0; i < 30; i++ {
		pos, err := l.Append(Record{Type: 1, Data: payload})
		if err != nil {
			t.Fatal(err)
		}
		positions = append(positions, pos)
	}
	st := l.Stats()
	if st.Segments < 4 {
		t.Fatalf("need several segments, have %d", st.Segments)
	}
	mid := positions[15]
	if err := l.TruncateBefore(mid); err != nil {
		t.Fatal(err)
	}
	st2 := l.Stats()
	if st2.Oldest == 0 || st2.Oldest > mid {
		t.Fatalf("oldest after truncate = %d, want in (0, %d]", st2.Oldest, mid)
	}
	if st2.Segments >= st.Segments {
		t.Fatalf("no segments removed: %d -> %d", st.Segments, st2.Segments)
	}
	// Reading from the truncated region is refused; from the retained
	// region it still yields every record.
	if _, err := l.ReadFrom(0); !errors.Is(err, ErrTooOld) {
		t.Fatalf("ReadFrom(0) = %v, want ErrTooOld", err)
	}
	r, err := l.ReadFrom(st2.Oldest)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		pos, _, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if pos < st2.Oldest {
			t.Fatalf("reader yielded truncated pos %d", pos)
		}
		n++
	}
	r.Close()
	if n == 0 || n >= 30 {
		t.Fatalf("retained record count %d not in (0, 30)", n)
	}
	l.Close()
	// Truncation survives reopen.
	l2 := openT(t, dir)
	defer l2.Close()
	if got := l2.OldestPos(); got != st2.Oldest {
		t.Fatalf("oldest after reopen = %d, want %d", got, st2.Oldest)
	}
}

func TestConcurrentAppendGroupCommit(t *testing.T) {
	l := openT(t, t.TempDir(), func(o *Options) { o.SegmentBytes = 1 << 20 })
	defer l.Close()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append(Record{Type: byte(w), Data: []byte(fmt.Sprintf("w%d-%d", w, i))}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	recs := collect(t, l)
	if len(recs) != workers*per {
		t.Fatalf("replayed %d records, want %d", len(recs), workers*per)
	}
	// Per-writer order is preserved (appends are acked in commit order).
	next := make(map[byte]int)
	for _, rec := range recs {
		want := fmt.Sprintf("w%d-%d", rec.Type, next[rec.Type])
		if string(rec.Data) != want {
			t.Fatalf("writer %d order broken: got %q want %q", rec.Type, rec.Data, want)
		}
		next[rec.Type]++
	}
	if l.Durable() != l.End() {
		t.Fatalf("SyncAlways: durable %d != end %d", l.Durable(), l.End())
	}
}

func TestTailingReaderSeesLiveAppends(t *testing.T) {
	l := openT(t, t.TempDir())
	defer l.Close()
	if _, err := l.Append(Record{Type: 1, Data: []byte("first")}); err != nil {
		t.Fatal(err)
	}
	r, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, rec, err := r.Next(); err != nil || string(rec.Data) != "first" {
		t.Fatalf("Next = %v %v", rec, err)
	}
	if _, _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next at end = %v, want EOF", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := l.WaitFor(ctx, r.Pos()); err != nil {
			t.Errorf("WaitFor: %v", err)
			return
		}
		if _, rec, err := r.Next(); err != nil || string(rec.Data) != "second" {
			t.Errorf("tail Next = %v %v", rec, err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := l.Append(Record{Type: 1, Data: []byte("second")}); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestSyncPolicies(t *testing.T) {
	t.Run("interval advances durable", func(t *testing.T) {
		l := openT(t, t.TempDir(), func(o *Options) {
			o.Policy = SyncInterval
			o.SyncInterval = 5 * time.Millisecond
		})
		defer l.Close()
		if _, err := l.Append(Record{Type: 1, Data: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for l.Durable() != l.End() {
			if time.Now().After(deadline) {
				t.Fatalf("durable %d never caught end %d", l.Durable(), l.End())
			}
			time.Sleep(time.Millisecond)
		}
	})
	t.Run("none still readable and close-flushed", func(t *testing.T) {
		dir := t.TempDir()
		l := openT(t, dir, func(o *Options) { o.Policy = SyncNone })
		if _, err := l.Append(Record{Type: 1, Data: []byte("y")}); err != nil {
			t.Fatal(err)
		}
		if got := collect(t, l); len(got) != 1 {
			t.Fatalf("got %d records", len(got))
		}
		l.Close()
		l2 := openT(t, dir)
		defer l2.Close()
		if got := collect(t, l2); len(got) != 1 {
			t.Fatalf("after close+reopen: %d records", len(got))
		}
	})
	t.Run("explicit Sync", func(t *testing.T) {
		l := openT(t, t.TempDir(), func(o *Options) { o.Policy = SyncNone })
		defer l.Close()
		if _, err := l.Append(Record{Type: 1, Data: []byte("z")}); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if l.Durable() != l.End() {
			t.Fatalf("after Sync: durable %d != end %d", l.Durable(), l.End())
		}
	})
}

func TestAppendAfterClose(t *testing.T) {
	l := openT(t, t.TempDir())
	l.Close()
	if _, err := l.Append(Record{Type: 1, Data: []byte("late")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
}

// FuzzWALReplay feeds arbitrary bytes as a segment file: Open must never
// panic, never invent records past the first invalid byte, and always
// leave the log appendable (the repaired tail accepts new records).
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, 64))
	valid := appendRecord(nil, Record{Type: 7, Data: []byte("seed-record")})
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), valid[:5]...)) // torn second record
	flipped := append([]byte{}, valid...)
	flipped[headerSize+3] ^= 0x10
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), seg, 0o644); err != nil {
			t.Skip()
		}
		l, err := Open(Options{Dir: dir, Policy: SyncNone, SegmentBytes: 1 << 20})
		if err != nil {
			return // rejected outright is fine; panics are not
		}
		before := collect2(t, l)
		if _, err := l.Append(Record{Type: 9, Data: []byte("appended-after-repair")}); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		after := collect2(t, l)
		if len(after) != len(before)+1 {
			t.Fatalf("append not visible: %d -> %d records", len(before), len(after))
		}
		last := after[len(after)-1]
		if last.Type != 9 || string(last.Data) != "appended-after-repair" {
			t.Fatalf("appended record corrupted: %+v", last)
		}
		l.Close()
		// Reopen replays the same records (repair is durable and stable).
		l2, err := Open(Options{Dir: dir, Policy: SyncNone, SegmentBytes: 1 << 20})
		if err != nil {
			t.Fatalf("reopen after repair: %v", err)
		}
		if again := collect2(t, l2); len(again) != len(after) {
			t.Fatalf("reopen changed record count: %d -> %d", len(after), len(again))
		}
		l2.Close()
	})
}

// collect2 is collect for fuzzing: corruption mid-read is a test failure
// there, so errors just fail.
func collect2(t *testing.T, l *Log) []Record {
	t.Helper()
	r, err := l.ReadFrom(l.OldestPos())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out []Record
	for {
		_, rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Record{Type: rec.Type, Data: append([]byte(nil), rec.Data...)})
	}
}

// TestStatsInstrumentation exercises the commit/rotation/truncation
// counters and the fsync + batch-size histograms added for /metrics.
func TestStatsInstrumentation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir) // SyncAlways, 1KiB segments
	const n = 40
	payload := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < n; i++ {
		if _, err := l.Append(Record{Type: 1, Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Appends != n {
		t.Fatalf("Appends = %d, want %d", st.Appends, n)
	}
	if st.GroupCommits == 0 || st.GroupCommits > n {
		t.Fatalf("GroupCommits = %d, want in [1, %d]", st.GroupCommits, n)
	}
	// 40 × ~76-byte records across 1KiB segments forces rotations.
	if st.Rotations == 0 {
		t.Fatal("no rotations despite overflowing the segment size")
	}
	if st.Fsyncs == 0 || st.FsyncLatency.Count == 0 {
		t.Fatalf("fsyncs = %d, hist count = %d, want > 0 under SyncAlways", st.Fsyncs, st.FsyncLatency.Count)
	}
	var batches uint64
	for _, c := range st.CommitBatchRecords {
		batches += c
	}
	if batches != st.GroupCommits {
		t.Fatalf("batch-size buckets sum to %d, want GroupCommits %d", batches, st.GroupCommits)
	}
	if err := l.TruncateBefore(l.End()); err != nil {
		t.Fatal(err)
	}
	if st = l.Stats(); st.TruncatedSegments == 0 {
		t.Fatal("TruncateBefore removed no segments despite sealed prefix")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendTracedFsyncAttribution pins that under SyncAlways an append
// reports a positive fsync share no larger than plausible, and that
// non-fsync policies report zero.
func TestAppendTracedFsyncAttribution(t *testing.T) {
	l := openT(t, t.TempDir())
	_, fsyncNs, err := l.AppendTraced(Record{Type: 1, Data: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	if fsyncNs <= 0 {
		t.Fatalf("fsyncNs = %d under SyncAlways, want > 0", fsyncNs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	ln := openT(t, t.TempDir(), func(o *Options) { o.Policy = SyncNone })
	_, fsyncNs, err = ln.AppendTraced(Record{Type: 1, Data: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	if fsyncNs != 0 {
		t.Fatalf("fsyncNs = %d under SyncNone, want 0", fsyncNs)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchBucketLayout pins the power-of-two batch-size geometry.
func TestBatchBucketLayout(t *testing.T) {
	for _, tc := range []struct{ n, bucket int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{512, 9}, {513, 10}, {100000, 10},
	} {
		if got := batchBucket(tc.n); got != tc.bucket {
			t.Errorf("batchBucket(%d) = %d, want %d", tc.n, got, tc.bucket)
		}
	}
	if got := BatchBucketLE(0); got != 1 {
		t.Errorf("BatchBucketLE(0) = %d, want 1", got)
	}
	if got := BatchBucketLE(9); got != 512 {
		t.Errorf("BatchBucketLE(9) = %d, want 512", got)
	}
	if got := BatchBucketLE(BatchBuckets - 1); got != -1 {
		t.Errorf("overflow bucket LE = %d, want -1 (+Inf)", got)
	}
}

// heapAllocated returns the bytes the Go heap allocated while fn ran, on
// any goroutine (the log's writer included).
func heapAllocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOpenStreamsSegments pins that Open validates a segment record by
// record instead of reading it whole: opening a log whose segment holds
// 16 MiB and more allocates a small fraction of that.
func TestOpenStreamsSegments(t *testing.T) {
	dir := t.TempDir()
	big := func(o *Options) { o.SegmentBytes = 64 << 20; o.Policy = SyncNone }
	l := openT(t, dir, big)
	rec := Record{Type: 2, Data: bytes.Repeat([]byte{0xa5}, 64<<10)}
	for l.End() < 16<<20 {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	end := l.End()
	l.Close()
	var l2 *Log
	got := heapAllocated(func() { l2 = openT(t, dir, big) })
	defer l2.Close()
	if l2.End() != end {
		t.Fatalf("reopened log ends at %d, want %d", l2.End(), end)
	}
	if got > 1<<20 {
		t.Fatalf("Open of a %d-byte segment allocated %d bytes, want under 1 MiB", end, got)
	}
}

// TestCommitKeepsBuffer pins that the writer keeps the buffer a group
// commit grew: once warm, appending a record larger than the initial
// buffer allocates far less than the record's size.
func TestCommitKeepsBuffer(t *testing.T) {
	l := openT(t, t.TempDir(), func(o *Options) { o.SegmentBytes = 64 << 20; o.Policy = SyncNone })
	defer l.Close()
	rec := Record{Type: 2, Data: bytes.Repeat([]byte{0x5a}, 4*commitBufBytes)}
	appendOnce := func() {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	appendOnce() // grows the buffer
	const n = 20
	got := heapAllocated(func() {
		for i := 0; i < n; i++ {
			appendOnce()
		}
	}) / n
	if got > 4<<10 {
		t.Fatalf("a warm append of a %d-byte record allocated %d bytes, want under 4 KiB", len(rec.Data), got)
	}
}
