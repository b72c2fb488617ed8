package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
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
	damage(data[e.off : e.off+e.length])
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
			// The next block is intact.
			if v, found, err := db.Get(last + 1); err != nil || !found || !bytes.Equal(v, blockValue(last+1)) {
				t.Errorf("Get(%d) past the damaged block = %x, %v, %v", last+1, v, found, err)
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
// while 10k later reads reuse the pooled block buffers they were read
// through: the values must stay as stored.
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
}

// TestConcurrentReadValuesOutliveBlockBuffer is the concurrent form of
// TestReadValuesOutliveBlockBuffer: readers across all tables share the
// buffer pool, and each checks the values it holds after every read. Run
// it under the race detector.
func TestConcurrentReadValuesOutliveBlockBuffer(t *testing.T) {
	db := readsDB(t)
	const readers, reads = 4, 2500
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := uint64(0); r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := 100 + 900*r
			get, scan, err := heldReads(db, x)
			for i := uint64(0); err == nil && i < reads; i++ {
				if _, _, err = heldReads(db, (i*7919+r*131)%3900); err == nil {
					err = checkHeld(x, get, scan)
				}
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
