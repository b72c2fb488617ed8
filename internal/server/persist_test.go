package server

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fillRandom inserts n random keys and returns them.
func fillRandom(s *ShardedFilter, n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	s.InsertBatch(keys)
	return keys
}

// assertIdenticalAnswers compares two filters on every inserted key plus
// random absent points and random ranges: the answers must be bit-identical
// (same positives and same negatives, not merely no false negatives).
func assertIdenticalAnswers(t *testing.T, want, got *ShardedFilter, keys []uint64, seed int64) {
	t.Helper()
	for _, k := range keys {
		if !got.MayContain(k) {
			t.Fatalf("restored filter lost key %#x", k)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	probes := make([]uint64, 5000)
	for i := range probes {
		probes[i] = rng.Uint64()
	}
	wout := make([]bool, len(probes))
	gout := make([]bool, len(probes))
	want.MayContainBatch(probes, wout)
	got.MayContainBatch(probes, gout)
	for i := range probes {
		if wout[i] != gout[i] {
			t.Fatalf("point %#x: original %v, restored %v", probes[i], wout[i], gout[i])
		}
	}
	ranges := make([][2]uint64, 2000)
	for i := range ranges {
		lo := rng.Uint64()
		hi := lo + rng.Uint64()%(1<<24)
		if hi < lo {
			hi = ^uint64(0)
		}
		ranges[i] = [2]uint64{lo, hi}
	}
	wr := make([]bool, len(ranges))
	gr := make([]bool, len(ranges))
	want.MayContainRangeBatch(ranges, wr)
	got.MayContainRangeBatch(ranges, gr)
	for i := range ranges {
		if wr[i] != gr[i] {
			t.Fatalf("range [%#x,%#x]: original %v, restored %v", ranges[i][0], ranges[i][1], wr[i], gr[i])
		}
	}
}

// TestSnapshotRestoreRoundTrip is the end-to-end durability proof: a
// sharded filter restored from disk answers every point and range query
// bit-identically to the in-memory original.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewSharded(FilterOptions{ExpectedKeys: 50_000, BitsPerKey: 16, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			keys := fillRandom(f, 20_000, 21)
			man, err := st.Snapshot("users", f)
			if err != nil {
				t.Fatal(err)
			}
			if man.Seq != 1 || man.InsertedKeys != 20_000 || len(man.Shards) != shards {
				t.Fatalf("manifest = %+v", man)
			}
			g, man2, err := st.Restore("users")
			if err != nil {
				t.Fatal(err)
			}
			if man2.Seq != man.Seq {
				t.Fatalf("restored seq %d, want %d", man2.Seq, man.Seq)
			}
			if g.Stats().InsertedKeys != 20_000 || g.NumShards() != shards {
				t.Fatalf("restored stats = %+v", g.Stats())
			}
			if g.LastSnapshot() == nil || g.LastSnapshot().Seq != man.Seq {
				t.Fatalf("restored snapshot info = %+v", g.LastSnapshot())
			}
			assertIdenticalAnswers(t, f, g, keys, 22)
		})
	}
}

// TestRestoreFallsBackAfterCrash kills the snapshot writer mid-write (via
// the temp-file injection hook) and asserts restore serves the last
// complete snapshot, unaffected by the torn one.
func TestRestoreFallsBackAfterCrash(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSharded(FilterOptions{ExpectedKeys: 20_000, BitsPerKey: 16, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	keys := fillRandom(f, 5_000, 31)
	if _, err := st.Snapshot("users", f); err != nil {
		t.Fatal(err)
	}
	// Freeze the answers of the committed state before mutating further.
	frozen, _, err := st.Restore("users")
	if err != nil {
		t.Fatal(err)
	}

	// More inserts, then a snapshot that dies after two shard blobs.
	fillRandom(f, 5_000, 32)
	boom := errors.New("injected crash")
	st.afterShardWrite = func(shard int) error {
		if shard == 1 {
			return boom
		}
		return nil
	}
	if _, err := st.Snapshot("users", f); !errors.Is(err, boom) {
		t.Fatalf("injected crash not surfaced: %v", err)
	}
	st.afterShardWrite = nil

	// The torn snap-2 directory exists but has no manifest; restore must
	// fall back to snap-1 and answer exactly like the frozen state.
	g, man, err := st.Restore("users")
	if err != nil {
		t.Fatal(err)
	}
	if man.Seq != 1 {
		t.Fatalf("restored seq %d, want fallback to 1", man.Seq)
	}
	assertIdenticalAnswers(t, frozen, g, keys, 33)

	// A subsequent successful snapshot supersedes and prunes the wreckage.
	man3, err := st.Snapshot("users", f)
	if err != nil {
		t.Fatal(err)
	}
	if man3.Seq != 3 {
		t.Fatalf("post-crash snapshot seq %d, want 3", man3.Seq)
	}
	if _, man4, err := st.Restore("users"); err != nil || man4.Seq != 3 {
		t.Fatalf("restore after recovery: seq %d, err %v", man4.Seq, err)
	}
	if _, err := os.Stat(filepath.Join(st.filterDir("users"), snapDirName(2))); !os.IsNotExist(err) {
		t.Errorf("torn snapshot directory not pruned: %v", err)
	}
}

// TestRestoreFallsBackOnCorruptBlob truncates the newest snapshot's shard
// blob; the CRC/size check must reject it and fall back to the previous
// snapshot.
func TestRestoreFallsBackOnCorruptBlob(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSharded(FilterOptions{ExpectedKeys: 20_000, BitsPerKey: 16, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	keys := fillRandom(f, 5_000, 41)
	if _, err := st.Snapshot("users", f); err != nil {
		t.Fatal(err)
	}
	frozen, _, err := st.Restore("users")
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(f, 5_000, 42)
	if _, err := st.Snapshot("users", f); err != nil {
		t.Fatal(err)
	}

	// Corrupt snap-2: flip a byte inside one shard blob (size unchanged,
	// so only the CRC catches it).
	blobPath := filepath.Join(st.filterDir("users"), snapDirName(2), "shard-0001.bin")
	blob, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(blobPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	g, man, err := st.Restore("users")
	if err != nil {
		t.Fatal(err)
	}
	if man.Seq != 1 {
		t.Fatalf("restored seq %d, want fallback to 1", man.Seq)
	}
	assertIdenticalAnswers(t, frozen, g, keys, 43)
}

// TestShardPathEscapeRefused gives the newest snapshot a manifest whose
// shard file reaches outside the snapshot directory, with the right bytes
// waiting at the target. Both readers — Restore and ReadSnapshot — must
// refuse it and fall back to the older intact snapshot, or report
// ErrNoSnapshot when there is none.
func TestShardPathEscapeRefused(t *testing.T) {
	for _, file := range []string{"../x", "a/b"} {
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewSharded(FilterOptions{ExpectedKeys: 1000, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		f.InsertBatch([]uint64{1, 2, 3})
		for _, name := range []string{"two", "two", "one"} {
			if _, err := st.Snapshot(name, f); err != nil {
				t.Fatal(err)
			}
		}
		for name, newest := range map[string]uint64{"two": 2, "one": 1} {
			man := st.loadManifest(name, newest)
			snapDir := filepath.Join(st.filterDir(name), snapDirName(newest))
			blob, err := os.ReadFile(filepath.Join(snapDir, man.Shards[0].File))
			if err != nil {
				t.Fatal(err)
			}
			target := filepath.Join(snapDir, file)
			if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(target, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			man.Shards[0].File = file
			writeManifest(t, st, man)
		}

		if _, man, err := st.Restore("two"); err != nil || man.Seq != 1 {
			t.Fatalf("shard file %q: Restore gave seq %d, err %v; want fallback to 1", file, man.Seq, err)
		}
		if man, blobs, err := st.ReadSnapshot("two"); err != nil || man.Seq != 1 || len(blobs) != 2 {
			t.Fatalf("shard file %q: ReadSnapshot gave seq %d, err %v; want fallback to 1", file, man.Seq, err)
		}
		if _, _, err := st.Restore("one"); !errors.Is(err, ErrNoSnapshot) {
			t.Fatalf("shard file %q: Restore with no intact snapshot: %v", file, err)
		}
		if _, _, err := st.ReadSnapshot("one"); !errors.Is(err, ErrNoSnapshot) {
			t.Fatalf("shard file %q: ReadSnapshot with no intact snapshot: %v", file, err)
		}
	}
}

// TestRestoreErrors pins ErrNoSnapshot for unknown and empty filters.
func TestRestoreErrors(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Restore("ghost"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("restore of unknown filter: %v", err)
	}
	// A directory with only a torn snapshot is equally unrestorable.
	dir := filepath.Join(st.filterDir("torn"), snapDirName(1))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.bin"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Restore("torn"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("restore of torn filter: %v", err)
	}
}

// TestRestoreAllAndRemove covers the registry-wide restore path, odd filter
// names (escaping), and Remove.
func TestRestoreAllAndRemove(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"plain", "with/slash", "pct%20odd", "dots..name"}
	originals := map[string]*ShardedFilter{}
	for i, name := range names {
		f, err := NewSharded(FilterOptions{ExpectedKeys: 5_000, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		fillRandom(f, 1_000, int64(50+i))
		if _, err := st.Snapshot(name, f); err != nil {
			t.Fatal(err)
		}
		originals[name] = f
	}
	got, err := st.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(names) {
		t.Fatalf("store names = %v", got)
	}

	reg := NewRegistry()
	restored, skipped, err := st.RestoreAll(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != len(names) || len(skipped) != 0 {
		t.Fatalf("restored %v, skipped %v", restored, skipped)
	}
	for name, orig := range originals {
		g, err := reg.Get(name)
		if err != nil {
			t.Fatalf("filter %q not restored: %v", name, err)
		}
		if g.Stats().InsertedKeys != orig.Stats().InsertedKeys {
			t.Fatalf("filter %q inserted_keys %d, want %d", name, g.Stats().InsertedKeys, orig.Stats().InsertedKeys)
		}
	}

	if err := st.Remove("with/slash"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Restore("with/slash"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("restore after remove: %v", err)
	}
}

// TestReservedNamesStayInsideStore: "." and ".." are rejected by the
// registry, and even a direct store caller cannot escape the root with
// them — filterDir must resolve inside the store for every name.
func TestReservedNamesStayInsideStore(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{".", "..", ""} {
		if _, err := reg.Create(name, FilterOptions{ExpectedKeys: 100}); err == nil {
			t.Errorf("Create(%q) accepted a reserved name", name)
		}
		if err := reg.Register(name, &ShardedFilter{}); err == nil {
			t.Errorf("Register(%q) accepted a reserved name", name)
		}
	}
	st, err := OpenStore(filepath.Join(t.TempDir(), "root"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{".", "..", "x/../..", "a", "%2E"} {
		dir := st.filterDir(name)
		rel, err := filepath.Rel(st.Root(), dir)
		if err != nil || rel == "." || strings.HasPrefix(rel, "..") {
			t.Errorf("filterDir(%q) = %q escapes the store root", name, dir)
		}
	}
	// And the escape keeps working end to end: snapshot + restore of a
	// hostile name lands inside the root.
	f, err := NewSharded(FilterOptions{ExpectedKeys: 100, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot("..", f); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(st.Root(), "%2E%2E")); err != nil {
		t.Fatalf("hostile name not stored under escaped directory: %v", err)
	}
	if _, _, err := st.Restore(".."); err != nil {
		t.Fatalf("restore of escaped name: %v", err)
	}
}

// TestSnapshotGuardedSupersede pins the delete-race guard: once the guard
// reports the filter is gone, SnapshotGuarded must refuse to touch disk.
func TestSnapshotGuardedSupersede(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	f, err := reg.Create("users", FilterOptions{ExpectedKeys: 1_000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshotRegistered(reg, st, "users", f); err != nil {
		t.Fatal(err)
	}
	// Delete exactly as the HTTP handler does: registry first, then disk.
	if err := reg.Delete("users"); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove("users"); err != nil {
		t.Fatal(err)
	}
	// A snapshotter holding the stale *ShardedFilter must now be refused…
	if _, err := snapshotRegistered(reg, st, "users", f); !errors.Is(err, ErrSuperseded) {
		t.Fatalf("stale snapshot not refused: %v", err)
	}
	// …and so must one racing a delete+recreate (same name, new filter).
	f2, err := reg.Create("users", FilterOptions{ExpectedKeys: 1_000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshotRegistered(reg, st, "users", f); !errors.Is(err, ErrSuperseded) {
		t.Fatalf("stale snapshot after recreate not refused: %v", err)
	}
	if _, err := snapshotRegistered(reg, st, "users", f2); err != nil {
		t.Fatalf("current filter refused: %v", err)
	}
	if _, _, err := st.Restore("users"); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPruning checks only defaultKeepSnapshots complete snapshots
// survive repeated snapshotting.
func TestSnapshotPruning(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSharded(FilterOptions{ExpectedKeys: 1_000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Snapshot("f", f); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := st.listSnaps("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != defaultKeepSnapshots || seqs[0] != 5 || seqs[1] != 4 {
		t.Fatalf("kept snapshots = %v, want [5 4]", seqs)
	}
}

// TestHTTPPersistence drives the durable surface over HTTP: create with a
// store mirrors to disk, POST snapshot commits on demand, /metrics exposes
// the counters, a fresh registry restored from the same store answers
// identically, and DELETE removes the on-disk state.
func TestHTTPPersistence(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	ts := httptest.NewServer(NewConfiguredAPI(reg, st, Config{}))
	defer ts.Close()
	c := ts.Client()
	u := func(p string) string { return ts.URL + p }

	if code, body := doJSON(t, c, "POST", u("/v1/filters"),
		`{"name":"users","expected_keys":100000,"shards":4}`); code != 201 {
		t.Fatalf("create: %d %v", code, body)
	}
	// Create already persisted an empty snapshot: a restart now would keep
	// the filter alive.
	if _, man, err := st.Restore("users"); err != nil || man.Seq != 1 {
		t.Fatalf("create did not persist: %v", err)
	}

	if code, _ := doJSON(t, c, "POST", u("/v1/filters/users/insert"), `{"keys":[42,4711,777]}`); code != 200 {
		t.Fatal("insert failed")
	}
	code, body := doJSON(t, c, "POST", u("/v1/filters/users/snapshot"), "")
	if code != 200 || body["seq"] != float64(2) || body["inserted_keys"] != float64(3) {
		t.Fatalf("snapshot: %d %v", code, body)
	}
	if code, body := doJSON(t, c, "POST", u("/v1/filters/nope/snapshot"), ""); code != 404 {
		t.Fatalf("snapshot of unknown filter: %d %v", code, body)
	}

	// Queries, then metrics reflect them.
	if code, _ := doJSON(t, c, "POST", u("/v1/filters/users/query"), `{"keys":[42,4711]}`); code != 200 {
		t.Fatal("query failed")
	}
	if code, _ := doJSON(t, c, "POST", u("/v1/filters/users/query-range"), `{"lo":40,"hi":50}`); code != 200 {
		t.Fatal("query-range failed")
	}
	resp, err := c.Get(u("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, want := range []string{
		`bloomrfd_persistence_enabled 1`,
		`bloomrfd_filter_inserted_keys_total{filter="users"} 3`,
		`bloomrfd_filter_point_queries_total{filter="users"} 2`,
		`bloomrfd_filter_range_queries_total{filter="users"} 1`,
		`bloomrfd_filter_snapshot_seq{filter="users"} 2`,
		`bloomrfd_filter_snapshot_bytes{filter="users"}`,
		`bloomrfd_filter_shards{filter="users"} 4`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q in:\n%s", want, metrics)
		}
	}

	// Simulated restart: fresh registry, same directory.
	reg2 := NewRegistry()
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	restored, skipped, err := st2.RestoreAll(reg2)
	if err != nil || len(restored) != 1 || len(skipped) != 0 {
		t.Fatalf("restore all: %v %v %v", restored, skipped, err)
	}
	g, err := reg2.Get("users")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{42, 4711, 777} {
		if !g.MayContain(k) {
			t.Fatalf("restored server lost key %d", k)
		}
	}

	// DELETE drops disk state: a second restart sees nothing.
	if code, _ := doJSON(t, c, "DELETE", u("/v1/filters/users"), ""); code != 204 {
		t.Fatal("delete failed")
	}
	reg3 := NewRegistry()
	restored, _, err = st2.RestoreAll(reg3)
	if err != nil || len(restored) != 0 {
		t.Fatalf("filters resurrected after delete: %v", restored)
	}

	// DELETE is idempotent against orphaned disk state: snapshots that
	// outlived their registry entry (e.g. a failed earlier removal) are
	// cleaned up by a retried DELETE even though it answers 404.
	orphan, err := NewSharded(FilterOptions{ExpectedKeys: 1_000, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot("ghost", orphan); err != nil {
		t.Fatal(err)
	}
	if code, _ := doJSON(t, c, "DELETE", u("/v1/filters/ghost"), ""); code != 404 {
		t.Fatalf("delete of orphan: %d", code)
	}
	if _, _, err := st.Restore("ghost"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("orphan snapshots not cleaned by retried DELETE: %v", err)
	}
}
