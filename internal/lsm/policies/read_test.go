package policies_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lsm"
	"repro/internal/lsm/policies"
)

// TestLSMReadZeroAlloc pins the warm read path of the paper's LSM
// scenario over 25 tables with bloomRF filter blocks: a Get and a Scan
// whose every filter answers no allocate nothing, and neither do a Get
// and an empty Scan that a false positive sends to a data block; a Get
// that finds its key allocates its value alone.
func TestLSMReadZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on the measured path")
	}
	const tables, perTable, span = 25, 2000, 1 << 10
	db := openTestDB(t, &policies.BloomRF{BitsPerKey: 16, MaxRange: span})
	rng := rand.New(rand.NewSource(21))
	var stored uint64
	for i := 0; i < tables; i++ {
		for j := 0; j < perTable; j++ {
			stored = rng.Uint64()
			if err := db.Put(stored, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.NumTables(); n != tables {
		t.Fatalf("%d tables, want %d", n, tables)
	}
	// emptyOp finds an argument for which op finds nothing and reads a
	// block (a false positive) or none (every filter answered no).
	emptyOp := func(op func(x uint64), reads bool) uint64 {
		for i := 0; i < 100000; i++ {
			x := rng.Uint64()
			before := db.Stats().BlockReads.Load()
			op(x)
			if read := db.Stats().BlockReads.Load() != before; read == reads {
				return x
			}
		}
		t.Fatalf("no op with block reads %v in 100000 tries", reads)
		return 0
	}
	get := func(x uint64) {
		if _, found, err := db.Get(x); err != nil || found {
			t.Fatalf("Get(%#x) = %v, %v on an absent key", x, found, err)
		}
	}
	scan := func(x uint64) {
		if kvs, err := db.Scan(x, x+span-1); err != nil || len(kvs) != 0 {
			t.Fatalf("Scan(%#x) = %d records, %v", x, len(kvs), err)
		}
	}
	for _, c := range []struct {
		name  string
		op    func(x uint64)
		reads bool
	}{
		{"empty Get", get, false}, {"empty Scan", scan, false},
		{"false-positive Get", get, true}, {"false-positive Scan", scan, true},
	} {
		x := emptyOp(c.op, c.reads)
		if a := testing.AllocsPerRun(200, func() { c.op(x) }); a != 0 {
			t.Errorf("warm %s allocates %.1f times per op, want 0", c.name, a)
		}
	}
	found := func() {
		if v, found, err := db.Get(stored); err != nil || !found || string(v) != "v" {
			t.Fatalf("Get(%#x) = %q, %v, %v on a stored key", stored, v, found, err)
		}
	}
	if a := testing.AllocsPerRun(200, found); a > 1 {
		t.Errorf("warm Get of a stored key allocates %.1f times per op, want at most 1 (its value)", a)
	}
}

// TestRangeMayMatchSet checks the set a bloomRF reader builds against
// each reader's own KeyMayMatch and RangeMayMatch, over bloomRF readers of
// mixed layouts, the newest one last as DB passes them, and over readers
// of mixed policies. The tables of 3500 and 13000 keys get tuned layouts
// that differ only in one layer's delta (exact levels 50 and 48).
func TestRangeMayMatchSet(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var readers []lsm.FilterReader
	var keys []uint64 // some stored keys of every table
	for _, c := range []struct {
		p lsm.FilterPolicy
		n int
	}{
		{&policies.BloomRF{BitsPerKey: 16, MaxRange: 1 << 10}, 3500},
		{&policies.Bloom{BitsPerKey: 10}, 3000},
		{&policies.BloomRF{BitsPerKey: 16, MaxRange: 1 << 10}, 13000},
		{&policies.BloomRF{BitsPerKey: 16, MaxRange: 1 << 30}, 3000},
		{&policies.Fence{ZoneSize: 64}, 3000},
		{&policies.BloomRF{BitsPerKey: 16, MaxRange: 1 << 10}, 3000},
	} {
		tk := make([]uint64, c.n)
		for i := range tk {
			tk[i] = rng.Uint64() >> 8
		}
		keys = append(keys, tk[:100]...)
		slices.Sort(tk)
		block, err := c.p.CreateFilter(tk)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.p.NewReader(block)
		if err != nil {
			t.Fatal(err)
		}
		readers = append(readers, r)
	}
	newest, ok := readers[len(readers)-1].(lsm.SetReader)
	if !ok {
		t.Fatal("the bloomRF reader does not implement lsm.SetReader")
	}
	bloomRF := []lsm.FilterReader{readers[0], readers[2], readers[3], readers[5]}
	for _, rs := range [][]lsm.FilterReader{readers, bloomRF} {
		set := newest.NewSet(rs)
		positives := 0
		for i := 0; i < 20000; i++ {
			lo := rng.Uint64() >> 8
			hi := lo + rng.Uint64()%(1<<uint(rng.Intn(40)))
			if got, want := set.RangeMayMatch(lo, hi), lsm.ReaderSet(rs).RangeMayMatch(lo, hi); got != want {
				t.Fatalf("%d readers: RangeMayMatch(%#x, %#x) = %06b, want %06b", len(rs), lo, hi, got, want)
			}
			x := lo
			if i%2 == 1 {
				x = keys[i%len(keys)]
			}
			got, want := set.KeyMayMatch(x), lsm.ReaderSet(rs).KeyMayMatch(x)
			if got != want {
				t.Fatalf("%d readers: KeyMayMatch(%#x) = %06b, want %06b", len(rs), x, got, want)
			}
			if want != 0 {
				positives++
			}
		}
		if positives == 0 {
			t.Fatalf("%d readers: no reader ever answered maybe", len(rs))
		}
	}
}
