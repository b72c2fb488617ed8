package lsm

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// exactPolicy is a test-only FilterPolicy with perfect recall and zero
// false positives: the "filter" is the sorted key list itself. The engine
// tests use it so package lsm needs no concrete policy (those live in the
// policies subpackage, which imports this one).
type exactPolicy struct{}

func (exactPolicy) Name() string { return "exact" }

func (exactPolicy) CreateFilter(keys []uint64) ([]byte, error) {
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(sorted)))
	for _, k := range sorted {
		out = binary.LittleEndian.AppendUint64(out, k)
	}
	return out, nil
}

func (exactPolicy) NewReader(data []byte) (FilterReader, error) {
	if len(data) < 8 {
		return nil, errors.New("exact: short block")
	}
	n := binary.LittleEndian.Uint64(data)
	if uint64(len(data)) != 8+8*n {
		return nil, errors.New("exact: truncated block")
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint64(data[8+8*i:])
	}
	return exactReader{keys}, nil
}

type exactReader struct{ keys []uint64 }

func (r exactReader) KeyMayMatch(key uint64) bool {
	i := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] >= key })
	return i < len(r.keys) && r.keys[i] == key
}

func (r exactReader) RangeMayMatch(lo, hi uint64) bool {
	i := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] >= lo })
	return i < len(r.keys) && r.keys[i] <= hi
}

func testRegistry() Registry { return Registry{"exact": exactPolicy{}} }

func openTestDB(t *testing.T, policy FilterPolicy) *DB {
	t.Helper()
	db, err := Open(DBOptions{
		Dir:           t.TempDir(),
		Policy:        policy,
		MemtableBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestMemtableBasics(t *testing.T) {
	s := newMemtable()
	rng := rand.New(rand.NewSource(1))
	ref := map[uint64][]byte{}
	for i := 0; i < 5000; i++ {
		k := rng.Uint64() % 10000
		v := []byte(fmt.Sprintf("v%d", i))
		ref[k] = v
		s.put(k, v, false)
	}
	if s.length() != len(ref) {
		t.Fatalf("length = %d, want %d", s.length(), len(ref))
	}
	for k, v := range ref {
		got, tomb, found := s.get(k)
		if !found || tomb || string(got) != string(v) {
			t.Fatalf("get(%d) = %q,%v,%v want %q", k, got, tomb, found, v)
		}
	}
	// Ordered iteration.
	prev := uint64(0)
	first := true
	s.scan(0, ^uint64(0), func(k uint64, v []byte, tomb bool) bool {
		if !first && k <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		prev, first = k, false
		return true
	})
	// Bounded scan.
	count := 0
	s.scan(100, 200, func(k uint64, _ []byte, _ bool) bool {
		if k < 100 || k > 200 {
			t.Fatalf("scan out of bounds: %d", k)
		}
		count++
		return true
	})
	want := 0
	for k := range ref {
		if k >= 100 && k <= 200 {
			want++
		}
	}
	if count != want {
		t.Fatalf("bounded scan saw %d keys, want %d", count, want)
	}
}

// tableGet looks key up in one table's data blocks.
func tableGet(tb *Table, key uint64) (value []byte, tomb, found bool, err error) {
	i := tb.findBlock(key)
	if i < 0 {
		return nil, false, false, nil
	}
	return tb.getInBlock(i, key)
}

func TestSSTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	w, err := NewTableWriter(path, exactPolicy{}, 256)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := uint64(0); i < n; i++ {
		if err := w.Add(i*10, []byte(fmt.Sprintf("value-%d", i)), i%100 == 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	var stats IOStats
	tb, err := OpenTable(path, testRegistry(), &stats, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if tb.Entries() != n {
		t.Fatalf("entries = %d, want %d", tb.Entries(), n)
	}
	for i := uint64(0); i < n; i += 37 {
		v, tomb, found, err := tableGet(tb, i*10)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("key %d not found", i*10)
		}
		if tomb != (i%100 == 7) {
			t.Fatalf("key %d tombstone mismatch", i*10)
		}
		if !tomb && string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("key %d value %q", i*10, v)
		}
	}
	// Missing keys come back not-found without error.
	if _, _, found, _ := tableGet(tb, 5); found {
		t.Error("key 5 should be absent")
	}
	// Scan over a sub-range.
	var got []uint64
	if err := tb.scan(100, 200, func(r record) bool {
		got = append(got, r.key)
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	want := []uint64{100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200}
	if len(got) != len(want) {
		t.Fatalf("scan got %v, want %v", got, want)
	}
	// I/O accounting moved.
	snap := stats.Snapshot()
	if snap.BlockReads == 0 || snap.BytesRead == 0 || snap.IOWaitTime == 0 {
		t.Errorf("I/O accounting empty: %+v", snap)
	}
	if snap.DeserTime == 0 {
		t.Error("deserialization time not recorded")
	}
}

func TestTableWriterRejectsUnsorted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	w, err := NewTableWriter(path, exactPolicy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Add(10, nil, false); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(10, nil, false); err == nil {
		t.Error("duplicate key accepted")
	}
	if err := w.Add(5, nil, false); err == nil {
		t.Error("descending key accepted")
	}
}

// TestTableWriterAtomicCommit: no *.sst exists until Finish completes, and
// Abort leaves nothing behind.
func TestTableWriterAtomicCommit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	w, err := NewTableWriter(path, exactPolicy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Add(1, []byte("v"), false)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("final path visible before Finish: %v", err)
	}
	if _, err := os.Stat(path + tmpSuffix); err != nil {
		t.Fatalf("tmp file missing mid-write: %v", err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("final path missing after Finish: %v", err)
	}
	if _, err := os.Stat(path + tmpSuffix); !os.IsNotExist(err) {
		t.Fatal("tmp file left after Finish")
	}

	w2, err := NewTableWriter(filepath.Join(dir, "u.sst"), exactPolicy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	w2.Add(1, nil, false)
	w2.Abort()
	if _, err := os.Stat(filepath.Join(dir, "u.sst") + tmpSuffix); !os.IsNotExist(err) {
		t.Fatal("tmp file left after Abort")
	}
}

func TestOpenTableUnknownPolicy(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	w, err := NewTableWriter(path, exactPolicy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Add(1, nil, false)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTable(path, Registry{}, nil, 0); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("unknown policy: err = %v, want ErrUnknownPolicy", err)
	}
}

func TestOpenTableCorruptFooter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	w, _ := NewTableWriter(path, exactPolicy{}, 0)
	w.Add(1, []byte("v"), false)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	// Flip a footer byte. Under the tmp+rename protocol a committed *.sst
	// always has a complete footer, so this is post-commit corruption of
	// acknowledged data — a hard error, never a quarantinable torn tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-12] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenTable(path, testRegistry(), nil, 0)
	if !errors.Is(err, ErrCorruptTable) {
		t.Errorf("corrupt footer: err = %v, want ErrCorruptTable", err)
	}
	if errors.Is(err, ErrTornTable) {
		t.Error("corrupt footer misclassified as torn table")
	}
}

// TestTableBytesStable pins the table format byte for byte: a seeded
// store of puts, overwrites and deletes with values of 0 to 23 bytes
// flushes three tables of 4 KiB blocks, whose SHA-256 digests must equal
// those of the tables the previous writer produced from the same ops.
func TestTableBytesStable(t *testing.T) {
	want := []string{
		"d67fa7296f0fa2b65fb743268da801256e0770c422b3c3473747d1e5b7ae79f1",
		"fc8dc1b27816b2f484ce77e8312cf32a4bdc3c07a1abfa2009269dc12ddd8ec4",
		"bd2d3deb794015bc1970260da857c74ee4cbd730896716e158204d5fd5841116",
	}
	dir := t.TempDir()
	db, err := Open(DBOptions{Dir: dir, Policy: exactPolicy{}, MemtableBytes: 1 << 30, BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(40))
	for i := 1; i <= 51000; i++ {
		k := uint64(rng.Intn(20000)) * 0x9e3779b97f4a7c15
		if rng.Intn(5) == 0 {
			err = db.Delete(k)
		} else {
			v := make([]byte, rng.Intn(24))
			rng.Read(v)
			err = db.Put(k, v)
		}
		if err == nil && i%17000 == 0 {
			err = db.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%06d.sst", i)))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != w {
			t.Errorf("table %d (%d bytes): SHA-256 %s, want %s", i, len(b), got, w)
		}
	}
}
