package lsm

import (
	"encoding/binary"
	"sync"
	"testing"
)

// coarsePolicy is a lossy test filter: it keeps keys>>4, so a probe near a
// stored key is a false positive that makes the read path open a block.
type coarsePolicy struct{}

func (coarsePolicy) Name() string { return "coarse" }

func (coarsePolicy) CreateFilter(keys []uint64) ([]byte, error) {
	prefixes := make([]uint64, len(keys))
	for i, k := range keys {
		prefixes[i] = k >> 4
	}
	return exactPolicy{}.CreateFilter(prefixes)
}

func (coarsePolicy) NewReader(data []byte) (FilterReader, error) {
	r, err := exactPolicy{}.NewReader(data)
	if err != nil {
		return nil, err
	}
	return coarseReader{r.(exactReader)}, nil
}

type coarseReader struct{ exact exactReader }

func (r coarseReader) KeyMayMatch(key uint64) bool { return r.exact.KeyMayMatch(key >> 4) }
func (r coarseReader) RangeMayMatch(lo, hi uint64) bool {
	return r.exact.RangeMayMatch(lo>>4, hi>>4)
}

// TestReadPathAccounting checks IOStats against per-table ground truth
// over a fixed op list: every Get probes the tables newest-first until one
// holds the key, every Scan probes every table, and a block is read only
// behind a positive filter and only where the table's index says the key
// range lies.
func TestReadPathAccounting(t *testing.T) {
	db, err := Open(DBOptions{Dir: t.TempDir(), Policy: coarsePolicy{}, MemtableBytes: 1 << 30, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Three tables over [0, 3000): table 0 holds multiples of 100, table 1
	// rewrites every other one of them and adds multiples of 100 plus 50,
	// table 2 deletes 500 and adds 2999.
	var stored [3][]uint64
	put := func(tbl int, k uint64, tomb bool) {
		var err error
		if tomb {
			err = db.Delete(k)
		} else {
			err = db.Put(k, binary.LittleEndian.AppendUint64(nil, uint64(tbl)))
		}
		if err != nil {
			t.Fatal(err)
		}
		stored[tbl] = append(stored[tbl], k)
	}
	for k := uint64(0); k < 3000; k += 100 {
		put(0, k, false)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 3000; k += 50 {
		if k%100 == 50 || k%200 == 0 {
			put(1, k, false)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	put(2, 500, true)
	put(2, 2999, false)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	holds := func(tbl int, k uint64) bool {
		for _, s := range stored[tbl] {
			if s == k {
				return true
			}
		}
		return false
	}
	// blocksOver counts the data blocks of a table whose key span meets
	// [lo, hi].
	blocksOver := func(tb *Table, lo, hi uint64) uint64 {
		var n uint64
		for _, e := range tb.index {
			if e.lastKey >= lo && e.firstKey <= hi {
				n++
			}
		}
		return n
	}
	var want Snapshot
	tables := db.view.Load().tables
	getTruth := func(k uint64) {
		for i := len(tables) - 1; i >= 0; i-- {
			tb := tables[i]
			want.FilterProbes++
			if !tb.filter.KeyMayMatch(k) {
				want.FilterNegatives++
				continue
			}
			want.BlockReads += blocksOver(tb, k, k)
			if holds(i, k) {
				return // a newer table answers; older ones are not probed
			}
		}
	}
	scanTruth := func(lo, hi uint64) {
		for _, tb := range tables {
			want.FilterProbes++
			if !tb.filter.RangeMayMatch(lo, hi) {
				want.FilterNegatives++
				continue
			}
			want.BlockReads += blocksOver(tb, lo, hi)
		}
	}

	before := db.Stats().Snapshot()
	for _, k := range []uint64{
		2999, // newest table: one probe
		400,  // rewritten in table 1: stops there
		500,  // deleted in table 2: stops at the tombstone
		300,  // only in table 0
		150,  // only in table 1
		7,    // absent; a false positive in tables 0 and 1
		1234, // absent everywhere
		5000, // beyond every table
	} {
		if _, _, err := db.Get(k); err != nil {
			t.Fatal(err)
		}
		getTruth(k)
	}
	for _, r := range [][2]uint64{{0, 2999}, {101, 149}, {1001, 1010}, {3000, 4000}, {2990, 3010}, {260, 240}} {
		if _, err := db.Scan(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
		scanTruth(min(r[0], r[1]), max(r[0], r[1]))
	}
	got := db.Stats().Snapshot().Sub(before)
	if got.FilterProbes != want.FilterProbes || got.FilterNegatives != want.FilterNegatives || got.BlockReads != want.BlockReads {
		t.Errorf("probes/negatives/block reads = %d/%d/%d, want %d/%d/%d",
			got.FilterProbes, got.FilterNegatives, got.BlockReads,
			want.FilterProbes, want.FilterNegatives, want.BlockReads)
	}
	if got.FilterProbeTime <= 0 {
		t.Errorf("filter probe time %v, want > 0", got.FilterProbeTime)
	}
	// The op list must exercise what it claims to: negatives, positives
	// that read a block, and Gets that stop before the oldest table.
	if want.FilterNegatives == 0 || want.BlockReads == 0 || want.FilterProbes >= 3*14 {
		t.Fatalf("op list too weak: %+v", want)
	}
}

// TestProbeClockSampling runs a fixed mix of Gets and Scans that all probe
// the filters and checks the sampled probe clock: the first op and one op
// in 64 after it are timed, so N ops give ⌈N/64⌉ timed ops, the estimated
// probe time is positive, and the probe counts stay exact.
func TestProbeClockSampling(t *testing.T) {
	db, err := Open(DBOptions{Dir: t.TempDir(), Policy: exactPolicy{}, MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for tbl := uint64(0); tbl < 3; tbl++ {
		for k := tbl; k < 3000; k += 3 {
			if err := db.Put(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	const tables = 3
	// After the runs, 1, 63, 64, 65 and 1000 ops have run in all.
	var ops uint64
	for _, n := range []uint64{1, 62, 1, 1, 935} {
		for i := ops; i < ops+n; i++ {
			if i%3 == 0 {
				if _, err := db.Scan(5000+i, 5100+i); err != nil {
					t.Fatal(err)
				}
			} else if _, _, err := db.Get(5000 + i); err != nil {
				t.Fatal(err)
			}
		}
		ops += n
		got := db.Stats().Snapshot()
		if want := (ops + 63) / 64; got.TimedOps != want {
			t.Errorf("%d ops: %d timed, want %d", ops, got.TimedOps, want)
		}
		if got.FilterProbes != ops*tables || got.FilterNegatives != ops*tables {
			t.Errorf("%d ops: probes/negatives = %d/%d, want %d each", ops, got.FilterProbes, got.FilterNegatives, ops*tables)
		}
		if got.FilterProbeTime <= 0 {
			t.Errorf("%d ops: estimated probe time %v, want > 0", ops, got.FilterProbeTime)
		}
	}
}

// TestProbeClockWeights checks the weight timeOp gives each op's probe
// span: the DB's first op counts once, so that its cold caches are not
// multiplied, every 64th op after it 64 times, and the others not at all.
func TestProbeClockWeights(t *testing.T) {
	var db DB
	for i := uint64(0); i < 200; i++ {
		var want uint64
		switch {
		case i == 0:
			want = 1
		case i%64 == 0:
			want = 64
		}
		if got := db.timeOp(); got != want {
			t.Fatalf("op %d: weight %d, want %d", i, got, want)
		}
	}
}

// TestConcurrentReadsDuringFlush runs Gets and Scans while another
// goroutine writes and flushes tables: reads share the table list without
// copying it, so every key flushed before the readers started must stay
// visible throughout.
func TestConcurrentReadsDuringFlush(t *testing.T) {
	db, err := Open(DBOptions{Dir: t.TempDir(), Policy: exactPolicy{}, MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := uint64(0); k < 1000; k += 10 {
		if err := db.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-done:
					return
				default:
				}
				k := i * 10 % 1000
				if _, found, err := db.Get(k); err != nil || !found {
					t.Errorf("Get(%d) = %v, %v", k, found, err)
					return
				}
				if kvs, err := db.Scan(k, k+9); err != nil || len(kvs) == 0 || kvs[0].Key != k {
					t.Errorf("Scan(%d, %d) = %v, %v", k, k+9, kvs, err)
					return
				}
			}
		}()
	}
	for n := 0; n < 20; n++ {
		for k := uint64(1); k < 1000; k += 10 {
			if err := db.Put(k+uint64(n)*1000, []byte("w")); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
