package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/hashutil"
)

// blockValue is the 8-byte value stored under k, so that every record of
// blockTable's tables has the same size.
func blockValue(k uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, k*0x9e3779b97f4a7c15)
}

// blockRecordSize is the size of one blockTable record: key, flags and
// value length, then the value.
const blockRecordSize = 13 + 8

// corruptDB writes one table of keys 1..1000 and applies damage to its
// first data block (bytes [0, length)), then opens a DB over it. Data
// blocks carry no checksum, so the damage shows only when a read walks
// the block.
func corruptDB(t *testing.T, damage func(block []byte)) (db *DB, firstKey, lastKey uint64) {
	t.Helper()
	return damagedDB(t, func(file []byte, e indexEntry) { damage(file[e.off : e.off+e.length]) })
}

// damagedDB writes one table of keys 1..1000, applies damage to the whole
// file, given the index entry of its first data block, and opens a DB
// over it.
func damagedDB(t *testing.T, damage func(file []byte, e indexEntry)) (db *DB, firstKey, lastKey uint64) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "000000.sst")
	w, err := NewTableWriter(path, exactPolicy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 1000; k++ {
		if err := w.Add(k, blockValue(k), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	tb, err := OpenTable(path, testRegistry(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := tb.index[0]
	tb.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage(data, e)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(DBOptions{Dir: dir, Policy: exactPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, e.firstKey, e.lastKey
}

// TestDataBlockCorruption damages a data block in the two ways a walk can
// run past its end — a record count past the last record, and a value
// length past the block end — and checks that a Get and a Scan that read
// the block fail with ErrCorruptTable, also when the damage lies after the
// key they look for.
func TestDataBlockCorruption(t *testing.T) {
	count := func(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
	// vlenAt returns the value-length field of record r.
	vlenAt := func(b []byte, r uint32) []byte { return b[4+int(r)*blockRecordSize+9:] }
	for _, c := range []struct {
		name   string
		damage func(b []byte)
	}{
		{"count past the end", func(b []byte) { binary.LittleEndian.PutUint32(b, count(b)+1) }},
		{"count far past the end", func(b []byte) { binary.LittleEndian.PutUint32(b, 1<<31) }},
		{"last value past the end", func(b []byte) { binary.LittleEndian.PutUint32(vlenAt(b, count(b)-1), 9) }},
		{"middle value past the end", func(b []byte) { binary.LittleEndian.PutUint32(vlenAt(b, count(b)/2), 1<<20) }},
		{"value length wraps", func(b []byte) { binary.LittleEndian.PutUint32(vlenAt(b, count(b)/2), ^uint32(0)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, first, last := corruptDB(t, c.damage)
			// first is before every damaged record; last is the block's
			// last key.
			for _, k := range []uint64{first, first + 1, last} {
				if _, _, err := db.Get(k); !errors.Is(err, ErrCorruptTable) {
					t.Errorf("Get(%d): err = %v, want ErrCorruptTable", k, err)
				}
				if _, err := db.Scan(k, k); !errors.Is(err, ErrCorruptTable) {
					t.Errorf("Scan(%d, %d): err = %v, want ErrCorruptTable", k, k, err)
				}
			}
			if _, err := db.Scan(first, last+10); !errors.Is(err, ErrCorruptTable) {
				t.Errorf("Scan(%d, %d): err = %v, want ErrCorruptTable", first, last+10, err)
			}
			// The next block is intact, and its read marks it sound.
			if v, found, err := db.Get(last + 1); err != nil || !found || !bytes.Equal(v, blockValue(last+1)) {
				t.Errorf("Get(%d) past the damaged block = %x, %v, %v", last+1, v, found, err)
			}
			tb := db.view.Load().tables[0]
			if !tb.sound[1].Load() || tb.sound[0].Load() {
				t.Fatalf("block soundness after the reads: damaged %v, intact %v", tb.sound[0].Load(), tb.sound[1].Load())
			}
			// A second read of the damaged block, after a sound block of
			// its table was read, fails as the first did, also where it
			// could stop before the damage.
			for _, k := range []uint64{first, first + 1} {
				if _, _, err := db.Get(k); !errors.Is(err, ErrCorruptTable) {
					t.Errorf("second Get(%d): err = %v, want ErrCorruptTable", k, err)
				}
				if _, err := db.Scan(k, k); !errors.Is(err, ErrCorruptTable) {
					t.Errorf("second Scan(%d, %d): err = %v, want ErrCorruptTable", k, k, err)
				}
			}
		})
	}
}

// TestSoundBlockReads reads every block of a table of the keys 1..4000
// that are not multiples of 4 three times: a Get of each block's first,
// middle and last key and of the keys beside them, and Scans within a
// block, across a block boundary and of absent keys. The first pass walks
// each block whole and marks it sound; the later passes, which stop at the
// first key past the target, must give the same answers, and all must
// match what is stored.
func TestSoundBlockReads(t *testing.T) {
	// The lossy filter passes the absent keys too, so that their reads
	// walk the blocks.
	db, err := Open(DBOptions{Dir: t.TempDir(), Policy: coarsePolicy{}, MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stored := func(k uint64) bool { return k >= 1 && k <= 4000 && k%4 != 0 }
	for k := uint64(1); k <= 4000; k++ {
		if !stored(k) {
			continue
		}
		if err := db.Put(k, blockValue(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	tb := db.view.Load().tables[0]
	if len(tb.index) < 3 {
		t.Fatalf("%d blocks, want several", len(tb.index))
	}
	var gets []uint64
	var scans [][2]uint64
	for i, e := range tb.index {
		mid := (e.firstKey + e.lastKey) / 2
		for _, k := range []uint64{e.firstKey, mid, e.lastKey} {
			gets = append(gets, k-1, k, k+1)
		}
		scans = append(scans, [2]uint64{e.firstKey, e.firstKey}, [2]uint64{mid - 3, mid + 3},
			[2]uint64{mid &^ 3, mid &^ 3}, [2]uint64{e.firstKey, e.lastKey})
		if i+1 < len(tb.index) {
			scans = append(scans, [2]uint64{e.lastKey - 4, tb.index[i+1].firstKey + 4})
		}
	}
	type answer struct {
		val   []byte
		found bool
		kvs   []KV
	}
	pass := func() []answer {
		var out []answer
		for _, k := range gets {
			v, found, err := db.Get(k)
			if err != nil {
				t.Fatalf("Get(%d): %v", k, err)
			}
			if want := stored(k); found != want || found && !bytes.Equal(v, blockValue(k)) {
				t.Fatalf("Get(%d) = %x, %v; stored %v", k, v, found, want)
			}
			out = append(out, answer{val: v, found: found})
		}
		for _, r := range scans {
			kvs, err := db.Scan(r[0], r[1])
			if err != nil {
				t.Fatalf("Scan(%d, %d): %v", r[0], r[1], err)
			}
			var want []uint64
			for k := r[0]; k <= r[1]; k++ {
				if stored(k) {
					want = append(want, k)
				}
			}
			if len(kvs) != len(want) {
				t.Fatalf("Scan(%d, %d) = %d records, %d stored", r[0], r[1], len(kvs), len(want))
			}
			for j, kv := range kvs {
				if kv.Key != want[j] || !bytes.Equal(kv.Value, blockValue(kv.Key)) {
					t.Fatalf("Scan(%d, %d) record %d = %d:%x, want %d", r[0], r[1], j, kv.Key, kv.Value, want[j])
				}
			}
			out = append(out, answer{kvs: kvs})
		}
		return out
	}
	// Every Scan reads a block, and so does every Get of a key inside a
	// block's span.
	want := uint64(len(scans))
	for _, k := range gets {
		if tb.findBlock(k) >= 0 {
			want++
		}
	}
	reads := db.Stats().BlockReads.Load()
	whole := pass()
	if n := db.Stats().BlockReads.Load() - reads; n < want {
		t.Fatalf("a pass read %d blocks, want at least %d", n, want)
	}
	for i := range tb.index {
		if !tb.sound[i].Load() {
			t.Fatalf("block %d is not marked sound after its reads", i)
		}
	}
	for p := 0; p < 2; p++ {
		if later := pass(); !reflect.DeepEqual(later, whole) {
			t.Fatalf("pass %d over sound blocks answers otherwise than the whole walks", p+2)
		}
	}
}

// TestFreshBlocksRaceReads starts readers at once on tables no read has
// touched, so that several first reads walk the same blocks whole and mark
// them sound together; every answer must be what is stored. Run it under
// the race detector.
func TestFreshBlocksRaceReads(t *testing.T) {
	db := readsDB(t)
	const readers = 4
	start := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			<-start
			for i := uint64(0); i < 400; i++ {
				x := i * 10 % 3900 // every reader reads the same keys in the same order
				if _, _, err := heldReads(db, x); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	close(start)
	for range readers {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for _, tb := range db.view.Load().tables {
		for i := range tb.index {
			if !tb.sound[i].Load() {
				t.Errorf("%s block %d is not marked sound", tb.Path(), i)
			}
		}
	}
}

// TestIndexEntryPastEOF points the first index entry of a table past the
// end of its data blocks, in three ways, and restamps the index and footer
// checksums so that the table opens: a Get and a Scan that reach the
// block must fail with ErrCorruptTable, and must not panic.
func TestIndexEntryPastEOF(t *testing.T) {
	for _, c := range []struct {
		name        string
		off, length func(size uint64) uint64
	}{
		{"offset past the end", func(size uint64) uint64 { return size + 4096 }, nil},
		{"length past the end", nil, func(size uint64) uint64 { return size }},
		{"offset plus length wraps", nil, func(uint64) uint64 { return ^uint64(0) - 8 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, first, last := damagedDB(t, func(file []byte, _ indexEntry) {
				foot := file[len(file)-footerSize:]
				indexOff := binary.LittleEndian.Uint64(foot)
				idx := file[indexOff : indexOff+binary.LittleEndian.Uint64(foot[8:])]
				size := uint64(len(file))
				if c.off != nil {
					binary.LittleEndian.PutUint64(idx[4+16:], c.off(size))
				}
				if c.length != nil {
					binary.LittleEndian.PutUint64(idx[4+24:], c.length(size))
				}
				binary.LittleEndian.PutUint64(foot[40:], hashutil.HashBytes(idx, tableMagic))
				binary.LittleEndian.PutUint64(foot[56:], hashutil.HashBytes(foot[:56], tableMagic))
			})
			for _, k := range []uint64{first, last} {
				if _, _, err := db.Get(k); !errors.Is(err, ErrCorruptTable) {
					t.Errorf("Get(%d): err = %v, want ErrCorruptTable", k, err)
				}
				if _, err := db.Scan(k, k); !errors.Is(err, ErrCorruptTable) {
					t.Errorf("Scan(%d, %d): err = %v, want ErrCorruptTable", k, k, err)
				}
			}
			if v, found, err := db.Get(last + 1); err != nil || !found || !bytes.Equal(v, blockValue(last+1)) {
				t.Errorf("Get(%d) past the damaged entry = %x, %v, %v", last+1, v, found, err)
			}
		})
	}
}

// readsDB fills a DB with 8 tables of 500 keys each; table i holds the
// keys congruent to i mod 8, so that every read visits several tables.
func readsDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(DBOptions{Dir: t.TempDir(), Policy: exactPolicy{}, MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for tbl := uint64(0); tbl < 8; tbl++ {
		for k := tbl; k < 4000; k += 8 {
			if err := db.Put(k, blockValue(k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// heldReads returns the values of a Get and a Scan started at x, which
// the caller keeps while it issues further reads.
func heldReads(db *DB, x uint64) (get []byte, scan []KV, err error) {
	v, found, err := db.Get(x)
	if err != nil || !found {
		return nil, nil, fmt.Errorf("Get(%d) = %v, %v", x, found, err)
	}
	kvs, err := db.Scan(x, x+40)
	if err != nil || len(kvs) != 41 {
		return nil, nil, fmt.Errorf("Scan(%d, %d) = %d records, %v", x, x+40, len(kvs), err)
	}
	return v, kvs, nil
}

// checkHeld reports a held value that no longer matches what is stored.
func checkHeld(x uint64, get []byte, scan []KV) error {
	if !bytes.Equal(get, blockValue(x)) {
		return fmt.Errorf("value of Get(%d) changed to %x", x, get)
	}
	for _, kv := range scan {
		if !bytes.Equal(kv.Value, blockValue(kv.Key)) {
			return fmt.Errorf("value of key %d from Scan(%d, ...) changed to %x", kv.Key, x, kv.Value)
		}
	}
	return nil
}

// TestReadValuesOutliveBlockBuffer holds the values of a Get and a Scan
// while 10k later reads walk the same mapped blocks, and then across
// DB.Close: the values must stay as stored.
func TestReadValuesOutliveBlockBuffer(t *testing.T) {
	db := readsDB(t)
	get, scan, err := heldReads(db, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10000; i++ {
		x := i * 7919 % 3900
		if _, _, err := heldReads(db, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkHeld(1000, get, scan); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := checkHeld(1000, get, scan); err != nil {
		t.Fatalf("after Close: %v", err)
	}
}

// TestConcurrentReadValuesOutliveBlockBuffer is the concurrent form of
// TestReadValuesOutliveBlockBuffer: readers across all tables check the
// values they hold after every read, and once more after DB.Close. Run it
// under the race detector.
func TestConcurrentReadValuesOutliveBlockBuffer(t *testing.T) {
	db := readsDB(t)
	const readers, reads = 4, 2500
	type held struct {
		x    uint64
		get  []byte
		scan []KV
		err  error
	}
	results := make(chan held, readers)
	var wg sync.WaitGroup
	for r := uint64(0); r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := held{x: 100 + 900*r}
			h.get, h.scan, h.err = heldReads(db, h.x)
			for i := uint64(0); h.err == nil && i < reads; i++ {
				if _, _, h.err = heldReads(db, (i*7919+r*131)%3900); h.err == nil {
					h.err = checkHeld(h.x, h.get, h.scan)
				}
			}
			results <- h
		}()
	}
	wg.Wait()
	close(results)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for h := range results {
		if h.err == nil {
			h.err = checkHeld(h.x, h.get, h.scan)
		}
		if h.err != nil {
			t.Error(h.err)
		}
	}
}

// TestReadsRaceClose closes a DB under readers across its tables. A read
// that loaded the view before Close finishes on that view's tables, which
// Close unmaps only once the read is done, so it answers as stored; a read
// after Close sees only the empty memtable. No read may fail or fault.
// Run it under the race detector.
func TestReadsRaceClose(t *testing.T) {
	db := readsDB(t)
	const readers = 4
	errs := make(chan error, readers)
	started := make(chan struct{}, readers)
	for r := uint64(0); r < readers; r++ {
		go func() {
			for i := uint64(0); ; i++ {
				if i == 100 {
					started <- struct{}{}
				}
				x := (i*7919 + r*131) % 3900
				v, found, err := db.Get(x)
				if err != nil || found && !bytes.Equal(v, blockValue(x)) {
					errs <- fmt.Errorf("Get(%d) = %x, %v, %v", x, v, found, err)
					return
				}
				kvs, err := db.Scan(x, x+40)
				if err == nil && len(kvs) != 0 {
					err = checkHeld(x, blockValue(x), kvs)
				}
				if err != nil {
					errs <- fmt.Errorf("Scan(%d, %d): %v", x, x+40, err)
					return
				}
				if !found && len(kvs) == 0 {
					errs <- nil // the view after Close
					return
				}
			}
		}()
	}
	for range readers {
		<-started
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for range readers {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestWritesRaceFlush checks that no acknowledged write is lost to a
// concurrent flush: one writer beside a goroutine that flushes up to 4
// times while the writer runs, then two writers whose puts fill the
// memtable and flush it themselves. Every key put must be found
// afterwards. Run it under the race detector.
func TestWritesRaceFlush(t *testing.T) {
	check := func(t *testing.T, db *DB, n uint64) {
		t.Helper()
		for k := uint64(0); k < n; k++ {
			if v, found, err := db.Get(k); err != nil || !found || !bytes.Equal(v, blockValue(k)) {
				t.Fatalf("Get(%d) = %x, %v, %v after %d puts and %d tables", k, v, found, err, n, db.NumTables())
			}
		}
	}
	t.Run("flush loop", func(t *testing.T) {
		db, err := Open(DBOptions{Dir: t.TempDir(), Policy: exactPolicy{}, MemtableBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		const n = 20000
		done := make(chan struct{})
		flushed := make(chan error, 1)
		go func() {
			// Each flush syncs its table and directory, which can take a
			// tenth of a second on a slow disk, so the flushes are few.
			for i := 0; i < 4; i++ {
				select {
				case <-done:
					flushed <- nil
					return
				case <-time.After(200 * time.Microsecond):
				}
				if err := db.Flush(); err != nil {
					flushed <- err
					return
				}
			}
			flushed <- nil
		}()
		for k := uint64(0); k < n; k++ {
			if err := db.Put(k, blockValue(k)); err != nil {
				t.Fatal(err)
			}
		}
		close(done)
		if err := <-flushed; err != nil {
			t.Fatal(err)
		}
		check(t, db, n)
	})
	t.Run("two writers, automatic flushes", func(t *testing.T) {
		db, err := Open(DBOptions{Dir: t.TempDir(), Policy: exactPolicy{}, MemtableBytes: 128 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		const n = 20000
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for w := uint64(0); w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := w; k < n; k += 2 {
					if err := db.Put(k, blockValue(k)); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		check(t, db, n)
	})
}
