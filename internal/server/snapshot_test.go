package server

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestSnapshotterPeriodic runs the API's background snapshot loop at a
// short Config.SnapshotInterval and checks every registered filter gains
// durable snapshots that keep advancing, then that Close halts the loop.
func TestSnapshotterPeriodic(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	for _, name := range []string{"a", "b"} {
		if _, err := reg.Create(name, FilterOptions{ExpectedKeys: 1_000, Shards: 2}); err != nil {
			t.Fatal(err)
		}
	}
	api := NewConfiguredAPI(reg, st, Config{
		WAL:              openWALT(t, filepath.Join(dir, "wal")),
		SnapshotInterval: 5 * time.Millisecond,
	})
	deadline := time.After(5 * time.Second)
	for {
		fa, _ := reg.Get("a")
		fb, _ := reg.Get("b")
		if sa, sb := fa.LastSnapshot(), fb.LastSnapshot(); sa != nil && sb != nil && sa.Seq >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("snapshot loop produced no advancing snapshots within 5s")
		case <-time.After(5 * time.Millisecond):
		}
	}
	api.Close()
	fa, _ := reg.Get("a")
	seqAfterStop := fa.LastSnapshot().Seq
	time.Sleep(30 * time.Millisecond)
	if got := fa.LastSnapshot().Seq; got != seqAfterStop {
		t.Fatalf("snapshot loop still running after Close: seq %d -> %d", seqAfterStop, got)
	}
	// Close twice is fine.
	api.Close()
}

// TestSnapshotInsertQueryRace is the crash-consistency hammer: one filter
// under concurrent single/batch inserts, batch point queries, batch range
// queries and repeated snapshots (as the HTTP endpoint and the periodic
// snapshot loop would issue). Under -race this validates the per-shard
// lock discipline; afterwards, a restore of the final snapshot must
// contain every key whose insert completed before that snapshot started.
func TestSnapshotInsertQueryRace(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSharded(FilterOptions{ExpectedKeys: 500_000, BitsPerKey: 14, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	base := make([]uint64, 10_000)
	rng := rand.New(rand.NewSource(61))
	for i := range base {
		base[i] = rng.Uint64()
	}
	f.InsertBatch(base)

	const writers, readers, snappers, iters = 4, 3, 2, 400
	var wg sync.WaitGroup
	written := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			batch := make([]uint64, 64)
			for i := 0; i < iters; i++ {
				if i%8 == 0 {
					for j := range batch {
						batch[j] = r.Uint64()
					}
					f.InsertBatch(batch)
					written[w] = append(written[w], batch...)
				} else {
					k := r.Uint64()
					f.Insert(k)
					written[w] = append(written[w], k)
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(200 + g)))
			keys := make([]uint64, 4096) // a large batch: grouped across every shard
			out := make([]bool, len(keys))
			ranges := make([][2]uint64, 64)
			rout := make([]bool, len(ranges))
			for i := 0; i < iters/8; i++ {
				for j := range keys {
					keys[j] = base[r.Intn(len(base))]
				}
				f.MayContainBatch(keys, out)
				for j := range out {
					if !out[j] {
						t.Errorf("false negative for pre-inserted key %#x", keys[j])
						return
					}
				}
				for j := range ranges {
					x := base[r.Intn(len(base))]
					ranges[j] = [2]uint64{x, x}
				}
				f.MayContainRangeBatch(ranges, rout)
				for j := range rout {
					if !rout[j] {
						t.Errorf("range false negative for %#x", ranges[j][0])
						return
					}
				}
			}
		}(g)
	}
	for s := 0; s < snappers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := st.Snapshot("hammer", f); err != nil {
					t.Errorf("snapshot under load: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced now: one more snapshot, then the restore must contain every
	// key every writer recorded.
	if _, err := st.Snapshot("hammer", f); err != nil {
		t.Fatal(err)
	}
	g, _, err := st.Restore("hammer")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range base {
		if !g.MayContain(k) {
			t.Fatalf("restored filter lost base key %#x", k)
		}
	}
	for w := range written {
		for _, k := range written[w] {
			if !g.MayContain(k) {
				t.Fatalf("restored filter lost concurrently written key %#x", k)
			}
		}
	}
}
