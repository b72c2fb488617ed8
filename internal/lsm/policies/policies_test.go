package policies_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/lsm/policies"
)

func openTestDB(t *testing.T, policy lsm.FilterPolicy) *lsm.DB {
	t.Helper()
	db, err := lsm.Open(lsm.DBOptions{
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

func TestDBPutGetFlush(t *testing.T) {
	db := openTestDB(t, &policies.BloomRF{BitsPerKey: 16, MaxRange: 1 << 16})
	rng := rand.New(rand.NewSource(2))
	ref := map[uint64]string{}
	for i := 0; i < 20000; i++ {
		k := rng.Uint64() % 100000
		v := fmt.Sprintf("v%d", i)
		ref[k] = v
		if err := db.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		if i%5000 == 4999 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if db.NumTables() == 0 {
		t.Fatal("no flushes happened")
	}
	for k, v := range ref {
		got, found, err := db.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !found || string(got) != v {
			t.Fatalf("Get(%d) = %q,%v want %q", k, got, found, v)
		}
	}
	// Overwrites across flush boundaries: newest wins.
	if err := db.Put(42, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, found, _ := db.Get(42)
	if !found || string(got) != "new" {
		t.Fatalf("overwrite lost: %q %v", got, found)
	}
}

func TestDBDeleteTombstone(t *testing.T) {
	db := openTestDB(t, &policies.Bloom{BitsPerKey: 10})
	if err := db.Put(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := db.Get(1); found {
		t.Error("deleted key still visible (memtable tombstone)")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := db.Get(1); found {
		t.Error("deleted key visible after tombstone flush")
	}
	kvs, err := db.Scan(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 0 {
		t.Errorf("scan sees deleted key: %v", kvs)
	}
}

func TestDBScanMergesNewestWins(t *testing.T) {
	db := openTestDB(t, &policies.BloomRF{BitsPerKey: 16, MaxRange: 1 << 16, Basic: true})
	// Old version in an SST, new version in a newer SST, newest in mem.
	for i := uint64(0); i < 100; i++ {
		db.Put(i, []byte("old"))
	}
	db.Flush()
	for i := uint64(0); i < 100; i += 2 {
		db.Put(i, []byte("mid"))
	}
	db.Flush()
	db.Put(0, []byte("mem"))
	kvs, err := db.Scan(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("scan returned %d keys, want 10", len(kvs))
	}
	wantVals := map[uint64]string{0: "mem", 1: "old", 2: "mid", 3: "old", 4: "mid"}
	for _, kv := range kvs[:5] {
		if want := wantVals[kv.Key]; string(kv.Value) != want {
			t.Errorf("key %d = %q, want %q", kv.Key, kv.Value, want)
		}
	}
	// Ascending order.
	for i := 1; i < len(kvs); i++ {
		if kvs[i].Key <= kvs[i-1].Key {
			t.Fatal("scan output not sorted")
		}
	}
}

func TestDBReopen(t *testing.T) {
	dir := t.TempDir()
	policy := &policies.BloomRF{BitsPerKey: 16, MaxRange: 1 << 16}
	db, err := lsm.Open(lsm.DBOptions{Dir: dir, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		db.Put(i, []byte("x"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := lsm.Open(lsm.DBOptions{Dir: dir, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.NumTables() != 1 {
		t.Fatalf("reopened tables = %d, want 1", db2.NumTables())
	}
	if _, found, _ := db2.Get(500); !found {
		t.Error("key lost across reopen")
	}
}

// TestDBReopenWithDefaultRegistry: a DB flushed under one policy reopens
// under another as long as the registry can resolve the old blocks.
func TestDBReopenWithDefaultRegistry(t *testing.T) {
	dir := t.TempDir()
	db, err := lsm.Open(lsm.DBOptions{Dir: dir, Policy: &policies.SuRF{BitsPerKey: 16}})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		db.Put(i*3, []byte("x"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := lsm.Open(lsm.DBOptions{
		Dir:      dir,
		Policy:   &policies.BloomRF{BitsPerKey: 16},
		Registry: policies.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, found, _ := db2.Get(300); !found {
		t.Error("key written under surf policy lost after bloomrf reopen")
	}
}

// TestFilterPoliciesEndToEnd runs the same workload through every policy:
// identical query answers (full recall), different filter effectiveness.
func TestFilterPoliciesEndToEnd(t *testing.T) {
	matrix := map[string]lsm.FilterPolicy{
		"bloomrf":  &policies.BloomRF{BitsPerKey: 18, MaxRange: 1 << 24},
		"basicrf":  &policies.BloomRF{BitsPerKey: 18, Basic: true},
		"bloom":    &policies.Bloom{BitsPerKey: 18},
		"prefixbf": &policies.PrefixBloom{BitsPerKey: 18, Level: 12},
		"fence":    &policies.Fence{ZoneSize: 256},
		"rosetta":  &policies.Rosetta{BitsPerKey: 18, MaxRange: 1 << 10},
		"surf":     &policies.SuRF{BitsPerKey: 18},
	}
	for name, policy := range matrix {
		t.Run(name, func(t *testing.T) {
			db := openTestDB(t, policy)
			rng := rand.New(rand.NewSource(3))
			keys := make([]uint64, 3000)
			for i := range keys {
				keys[i] = rng.Uint64() >> 20
				db.Put(keys[i], []byte("v"))
				if i%1000 == 999 {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			// Point recall.
			for _, k := range keys[:300] {
				if _, found, err := db.Get(k); err != nil || !found {
					t.Fatalf("Get(%d) = %v, %v", k, found, err)
				}
			}
			// Range recall.
			for i := 0; i < 300; i++ {
				k := keys[rng.Intn(len(keys))]
				nonEmpty, err := db.ScanEmptyCheck(k-min(k, 50), k+50)
				if err != nil {
					t.Fatal(err)
				}
				if !nonEmpty {
					t.Fatalf("scan around key %d came back empty", k)
				}
			}
			// Filter probes must have been recorded.
			if db.Stats().Snapshot().FilterProbes == 0 {
				t.Error("no filter probes recorded")
			}
		})
	}
}

// TestFilterEffectiveness: on empty point gets, bloomRF must avoid most
// block reads, and the fence policy must avoid none (inside the key span).
func TestFilterEffectiveness(t *testing.T) {
	run := func(policy lsm.FilterPolicy) (blockReads uint64) {
		db := openTestDB(t, policy)
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 5000; i++ {
			db.Put(rng.Uint64(), []byte("v"))
		}
		db.Flush()
		before := db.Stats().Snapshot()
		for i := 0; i < 2000; i++ {
			db.Get(rng.Uint64())
		}
		return db.Stats().Snapshot().Sub(before).BlockReads
	}
	brf := run(&policies.BloomRF{BitsPerKey: 18, MaxRange: 1 << 16})
	fen := run(&policies.Fence{})
	if brf > 200 {
		t.Errorf("bloomRF let %d/2000 empty gets through", brf)
	}
	if fen < 1500 {
		t.Errorf("single-zone fence should pass almost all: %d/2000", fen)
	}
}

// TestForBackend pins the served-backend constructor: the four serving
// backends resolve, junk does not.
func TestForBackend(t *testing.T) {
	for _, b := range []string{"bloomrf", "bloom", "rosetta", "surf"} {
		p, err := policies.ForBackend(b, 16, 1<<10)
		if err != nil {
			t.Fatalf("ForBackend(%q): %v", b, err)
		}
		if p.Name() != b {
			t.Fatalf("ForBackend(%q).Name() = %q", b, p.Name())
		}
		// Policies must build and read back an empty and non-empty block.
		for _, keys := range [][]uint64{nil, {1, 5, 9}} {
			blk, err := p.CreateFilter(keys)
			if err != nil {
				t.Fatalf("%s CreateFilter: %v", b, err)
			}
			if _, err := p.NewReader(blk); err != nil {
				t.Fatalf("%s NewReader: %v", b, err)
			}
		}
	}
	for _, b := range []string{"", "cuckoo", "BLOOMRF", "prefixbf"} {
		if _, err := policies.ForBackend(b, 16, 0); err == nil {
			t.Fatalf("ForBackend(%q) accepted", b)
		}
	}
}

// TestCreateFilterMatchesInsert holds the batched bloomRF build to the
// per-key one byte for byte, over basic and tuned layouts, table sizes
// from one key to one lsm-empty-scan table, point and range tunings and
// two filter sizes.
func TestCreateFilterMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, basic := range []bool{false, true} {
		for _, n := range []int{1, 64, 20972} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64()
			}
			for _, maxRange := range []float64{0, 1 << 10, 1 << 20} {
				for _, bpk := range []float64{10, 16} {
					p := &policies.BloomRF{BitsPerKey: bpk, MaxRange: maxRange, Basic: basic}
					got, err := p.CreateFilter(keys)
					if err != nil {
						t.Fatal(err)
					}
					var f *core.Filter
					if basic {
						f = core.NewBasic(uint64(n), bpk)
					} else if f, _, err = core.NewTuned(core.TuneOptions{N: uint64(n), BitsPerKey: bpk, MaxRange: maxRange}); err != nil {
						t.Fatal(err)
					}
					for _, k := range keys {
						f.Insert(k)
					}
					want, err := f.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("basic=%v n=%d R=%g bits/key=%g: CreateFilter's %d bytes differ from the per-key Insert's %d", basic, n, maxRange, bpk, len(got), len(want))
					}
				}
			}
		}
	}
}
