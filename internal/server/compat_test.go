package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// goldenKeys mirrors scripts/gen_golden: the deterministic key set inside
// every checked-in golden snapshot fixture.
func goldenKeys() []uint64 {
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return keys
}

// writeManifest replaces the committed manifest of snapshot m.Seq of
// m.Name with m.
func writeManifest(t *testing.T, st *Store, m *Manifest) {
	t.Helper()
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.filterDir(m.Name), snapDirName(m.Seq), manifestName)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
}

// cloneManifest deep-copies the slices a test may rewrite in place.
func cloneManifest(m *Manifest) *Manifest {
	c := *m
	c.Shards = slices.Clone(m.Shards)
	c.Spans = slices.Clone(m.Spans)
	return &c
}

// TestGoldenSnapshotRestore restores each checked-in golden snapshot — one
// per manifest era before the current one, written by scripts/gen_golden —
// into the current code. Each must come back with its recorded routing,
// WAL position, counts and spans, the era defaults for every field it
// predates, and every key intact; re-snapshotting it must write a
// current-version manifest that restores to identical answers.
func TestGoldenSnapshotRestore(t *testing.T) {
	for _, tc := range []struct {
		version   int
		name      string
		part      Partitioning
		shards    int
		walPos    uint64
		shardKeys bool     // the manifest records per-shard key counts
		spans     []uint64 // the span table the manifest records
	}{
		{1, "users", PartitionHash, 2, 0, false, nil},
		{2, "events", PartitionRange, 4, 0, true, nil},
		{3, "sessions", PartitionRange, 4, 8192, true, nil},
		{4, "orders", PartitionRange, 4, 8192, true, nil},
		{5, "ledger", PartitionRange, 4, 8192, true, []uint64{0, 1 << 62, 2 << 62, 3 << 62}},
	} {
		t.Run(fmt.Sprintf("v%d", tc.version), func(t *testing.T) {
			st, err := OpenStore(filepath.Join("testdata", fmt.Sprintf("golden-v%d-store", tc.version)))
			if err != nil {
				t.Fatal(err)
			}
			f, man, err := st.Restore(tc.name)
			if err != nil {
				t.Fatalf("v%d snapshot no longer restores: %v", tc.version, err)
			}
			if man.FormatVersion != tc.version || man.Seq != 1 || man.WALPos != tc.walPos {
				t.Fatalf("manifest = %+v", man)
			}
			if man.Options.Partitioning != tc.part || man.Options.Backend != BackendBloomRF || man.Epoch != 0 {
				t.Fatalf("manifest normalized to partitioning %q backend %q epoch %d, want %q bloomrf 0",
					man.Options.Partitioning, man.Options.Backend, man.Epoch, tc.part)
			}
			if !slices.Equal(man.Spans, tc.spans) {
				t.Fatalf("manifest spans = %v, want %v", man.Spans, tc.spans)
			}
			if f.Partitioning() != tc.part || f.NumShards() != tc.shards {
				t.Fatalf("restored filter: partitioning %q, shards %d", f.Partitioning(), f.NumShards())
			}
			s := f.Stats()
			if s.Backend != BackendBloomRF || s.InsertedKeys != 1024 {
				t.Fatalf("restored backend %q, inserted_keys %d; want bloomrf, 1024", s.Backend, s.InsertedKeys)
			}
			var sum uint64
			for _, sk := range s.ShardKeys {
				if !tc.shardKeys && sk != 0 {
					t.Fatalf("restore invented shard key counts: %v", s.ShardKeys)
				}
				sum += sk
			}
			if tc.shardKeys && sum != 1024 {
				t.Fatalf("restored shard key counts sum to %d: %v", sum, s.ShardKeys)
			}
			if tc.part == PartitionRange {
				// Recorded or rebuilt, the spans of a never-split filter
				// divide the keyspace evenly.
				for i, start := range s.Spans {
					if start != uint64(i)<<62 || len(s.Spans) != 4 {
						t.Fatalf("restored spans not evenly divided: %v", s.Spans)
					}
				}
			}
			for _, k := range goldenKeys() {
				if !f.MayContain(k) {
					t.Fatalf("v%d snapshot lost key %#x", tc.version, k)
				}
				if !f.MayContainRange(k, k) {
					t.Fatalf("v%d snapshot lost key %#x for range probes", tc.version, k)
				}
			}

			// RestoreAll sees the fixture too (the startup path bloomrfd takes).
			restored, skipped, err := st.RestoreAll(NewRegistry())
			if err != nil || len(restored) != 1 || len(skipped) != 0 {
				t.Fatalf("RestoreAll: %v %v %v", restored, skipped, err)
			}

			// Old eras are read-compatible, not write-preserved: a new
			// snapshot is written in the current format, every field set.
			st2, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			man2, err := st2.Snapshot(tc.name, f)
			if err != nil {
				t.Fatal(err)
			}
			wantSpans := 0
			if tc.part == PartitionRange {
				wantSpans = tc.shards
			}
			if man2.FormatVersion != manifestVersion || man2.Options.Partitioning != tc.part ||
				man2.Options.Backend != BackendBloomRF || man2.Epoch != 1 || len(man2.Spans) != wantSpans {
				t.Fatalf("re-snapshot manifest = %+v", man2)
			}
			g, _, err := st2.Restore(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			assertIdenticalAnswers(t, f, g, goldenKeys(), int64(93+tc.version))
		})
	}
}

// eraSample is one value the era matrix writes into a field, and whether
// it passes the field's check from its era on under hash and under range
// partitioning.
type eraSample struct {
	label           string
	set             func(m, base *Manifest)
	okHash, okRange bool
}

// eraSpecs states, independently of manifestFields, what each row of it
// must do: the version the field arrived in, whether readers accept it
// before then (a stats-only field they never judged), the default a reader
// fills in before then when that is not the zero value, and the values the
// era matrix writes, the first always the field's absent form.
var eraSpecs = map[string]struct {
	since     int
	tolerated bool
	def       func(*Manifest)
	samples   []eraSample
}{
	"partitioning": {2, false, func(m *Manifest) { m.Options.Partitioning = PartitionHash }, []eraSample{
		{"absent", func(m, _ *Manifest) { m.Options.Partitioning = "" }, false, false},
		{"recorded", func(m, b *Manifest) { m.Options.Partitioning = b.Options.Partitioning }, true, true},
		{"zigzag", func(m, _ *Manifest) { m.Options.Partitioning = "zigzag" }, false, false},
	}},
	"keys": {2, true, nil, []eraSample{
		{"absent", func(m, _ *Manifest) { m.Shards[0].Keys, m.Shards[1].Keys = 0, 0 }, true, true},
		{"counted", func(m, _ *Manifest) { m.Shards[0].Keys = 7 }, true, true},
	}},
	"wal_pos": {3, false, nil, []eraSample{
		{"absent", func(m, _ *Manifest) { m.WALPos = 0 }, true, true},
		{"4711", func(m, _ *Manifest) { m.WALPos = 4711 }, true, true},
	}},
	"backend": {4, false, func(m *Manifest) { m.Options.Backend = BackendBloomRF }, []eraSample{
		{"absent", func(m, _ *Manifest) { m.Options.Backend = "" }, false, false},
		{"bloomrf", func(m, _ *Manifest) { m.Options.Backend = BackendBloomRF }, true, true},
		{"cuckoo", func(m, _ *Manifest) { m.Options.Backend = "cuckoo" }, false, false},
		// Well formed: Restore then refuses it by name (checkServable).
		{"surf", func(m, _ *Manifest) { m.Options.Backend = "surf" }, true, true},
	}},
	"spans": {5, false, nil, []eraSample{
		{"absent", func(m, _ *Manifest) { m.Spans = nil }, true, false},
		{"tiling", func(m, _ *Manifest) { m.Spans = []uint64{0, 1 << 63} }, false, true},
		{"not anchored at 0", func(m, _ *Manifest) { m.Spans = []uint64{1, 1 << 32} }, false, false},
		{"wrong length", func(m, _ *Manifest) { m.Spans = []uint64{0} }, false, false},
	}},
	"mut": {5, false, nil, []eraSample{
		{"absent", func(m, _ *Manifest) { m.Shards[0].Mut, m.Shards[1].Mut = 0, 0 }, true, true},
		{"7", func(m, _ *Manifest) { m.Shards[0].Mut = 7 }, true, true},
	}},
	"epoch": {6, false, nil, []eraSample{
		{"absent", func(m, _ *Manifest) { m.Epoch = 0 }, false, false},
		{"1", func(m, _ *Manifest) { m.Epoch = 1 }, true, true},
	}},
}

// TestManifestEraMatrix walks the manifest era table. For every version
// from 0 to one past the newest, for a hash and a range filter, it writes
// the shape a writer of that version produced and sets one table field
// absent, valid or invalid. The reader must then give the one verdict the
// era rule gives: corrupt when the version is unknown, when the field is
// present before its era, or when it fails its check from its era on;
// otherwise the manifest loads with each predated field at its default.
// Every faithful older shape must also restore with every key intact.
func TestManifestEraMatrix(t *testing.T) {
	if len(manifestFields) != len(eraSpecs) {
		t.Fatalf("era table has %d fields, eraSpecs %d", len(manifestFields), len(eraSpecs))
	}
	for i, f := range manifestFields {
		if spec, ok := eraSpecs[f.name]; !ok || spec.since != f.since {
			t.Fatalf("era field %q: table version %d, spec %d (present %v)", f.name, f.since, spec.since, ok)
		}
		if i > 0 && f.since < manifestFields[i-1].since {
			t.Fatalf("era field %q out of version order", f.name)
		}
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{1, 2, 3, 1 << 63}
	var bases []*Manifest
	for _, part := range []Partitioning{PartitionHash, PartitionRange} {
		f, err := NewSharded(FilterOptions{ExpectedKeys: 1000, Shards: 2, Partitioning: part})
		if err != nil {
			t.Fatal(err)
		}
		f.InsertBatch(keys)
		// Without an epoch source a store records epoch 1, the
		// pre-failover era; with one, new manifests carry its epoch (a
		// promoted primary's bumped one).
		wantEpoch := uint64(1)
		if part == PartitionRange {
			wantEpoch = 7
			st.SetEpochSource(func() uint64 { return wantEpoch })
		}
		man, err := st.Snapshot(string(part), f)
		if err != nil {
			t.Fatal(err)
		}
		if man.FormatVersion != manifestVersion || man.Epoch != wantEpoch {
			t.Fatalf("%s manifest = version %d epoch %d, want version %d epoch %d",
				part, man.FormatVersion, man.Epoch, manifestVersion, wantEpoch)
		}
		bases = append(bases, &man)
	}

	cells := 0
	for _, base := range bases {
		part := base.Options.Partitioning
		for v := oldestManifestVersion - 1; v <= manifestVersion+1; v++ {
			known := v >= oldestManifestVersion && v <= manifestVersion
			for name, spec := range eraSpecs {
				for j, s := range spec.samples {
					m := cloneManifest(base)
					m.FormatVersion = v
					if known {
						m.Downgrade(v)
					}
					s.set(m, base)
					valid := s.okHash
					if part == PartitionRange {
						valid = s.okRange
					}
					wantOK := known
					if v >= spec.since {
						wantOK = wantOK && valid
					} else if j > 0 && !spec.tolerated {
						wantOK = false
					}
					writeManifest(t, st, m)
					got := st.loadManifest(m.Name, m.Seq)
					cells++
					if (got != nil) != wantOK {
						t.Errorf("%s v%d %s=%s: loaded %v, want %v", part, v, name, s.label, got != nil, wantOK)
						continue
					}
					if got == nil {
						continue
					}
					want := cloneManifest(m)
					for _, other := range eraSpecs {
						if other.def != nil && v < other.since {
							other.def(want)
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s v%d %s=%s: loaded %+v, want %+v", part, v, name, s.label, got, want)
					}
				}
			}
		}

		// Each faithful older shape restores: routing kept from the
		// partitioning era on, spans rebuilt evenly before theirs.
		for v := oldestManifestVersion; v <= manifestVersion; v++ {
			m := cloneManifest(base)
			m.Downgrade(v)
			writeManifest(t, st, m)
			g, man, err := st.Restore(m.Name)
			if err != nil {
				t.Fatalf("%s v%d-shaped manifest stopped restoring: %v", part, v, err)
			}
			if man.FormatVersion != v || g.Stats().Backend != BackendBloomRF {
				t.Fatalf("%s v%d-shaped manifest restored as version %d backend %q", part, v, man.FormatVersion, g.Stats().Backend)
			}
			if g.Partitioning() != part {
				continue // a range filter in a hash-era shape routes as hash
			}
			if part == PartitionRange && !slices.Equal(g.Stats().Spans, []uint64{0, 1 << 63}) {
				t.Fatalf("v%d-shaped range manifest restored spans %v", v, g.Stats().Spans)
			}
			for _, k := range keys {
				if !g.MayContain(k) {
					t.Fatalf("%s v%d-shaped restore lost key %#x", part, v, k)
				}
			}
		}
	}
	t.Logf("%d era cells", cells)
}

// TestManifestVersionRejection pins the reader's version policy: future
// manifest versions and v1 manifests claiming non-hash routing (which the
// v1 era could not have written) are rejected rather than guessed at, and
// restore falls through to ErrNoSnapshot.
func TestManifestVersionRejection(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSharded(FilterOptions{ExpectedKeys: 1000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot("users", f); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(st.filterDir("users"), snapDirName(1), manifestName)

	rewrite := func(mutate func(m map[string]any)) {
		t.Helper()
		body, err := os.ReadFile(manPath)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		body, err = json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manPath, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Sanity: untouched manifest restores.
	if _, _, err := st.Restore("users"); err != nil {
		t.Fatal(err)
	}
	// A future version is not guessed at.
	rewrite(func(m map[string]any) { m["format_version"] = float64(manifestVersion + 1) })
	if _, _, err := st.Restore("users"); err == nil {
		t.Fatal("future manifest version restored")
	}
	// A v1 manifest claiming range routing is corrupt: that era had none.
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(1)
		m["options"].(map[string]any)["partitioning"] = "range"
	})
	if _, _, err := st.Restore("users"); err == nil {
		t.Fatal("v1 manifest with range partitioning restored")
	}
	// Current version with garbage partitioning is rejected too.
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(manifestVersion)
		m["options"].(map[string]any)["partitioning"] = "zigzag"
	})
	if _, _, err := st.Restore("users"); err == nil {
		t.Fatal("invalid partitioning restored")
	}
	// A v2 manifest claiming a WAL position is corrupt: that era had no log.
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(2)
		m["options"].(map[string]any)["partitioning"] = "hash"
		delete(m["options"].(map[string]any), "backend")
		m["wal_pos"] = float64(4711)
	})
	if _, _, err := st.Restore("users"); err == nil {
		t.Fatal("v2 manifest with wal_pos restored")
	}
	// A v3 manifest claiming a backend is corrupt: backend selection is v4.
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(3)
		m["options"].(map[string]any)["backend"] = "bloomrf"
		delete(m, "wal_pos")
	})
	if _, _, err := st.Restore("users"); err == nil {
		t.Fatal("v3 manifest with a backend restored")
	}
	// Current version with a garbage backend is rejected, as is one with no
	// backend at all (v4 writers always record it).
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(manifestVersion)
		m["options"].(map[string]any)["backend"] = "cuckoo"
	})
	if _, _, err := st.Restore("users"); err == nil {
		t.Fatal("invalid backend restored")
	}
	rewrite(func(m map[string]any) {
		delete(m["options"].(map[string]any), "backend")
	})
	if _, _, err := st.Restore("users"); err == nil {
		t.Fatal("v4 manifest without a backend restored")
	}
	// And back to a faithful v1 shape (no partitioning, backend or epoch
	// keys at all): restores as a hash-routed bloomRF filter.
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(1)
		delete(m["options"].(map[string]any), "partitioning")
		delete(m, "wal_pos")
		delete(m, "epoch")
	})
	g, man, err := st.Restore("users")
	if err != nil {
		t.Fatal(err)
	}
	if man.FormatVersion != 1 || g.Partitioning() != PartitionHash {
		t.Fatalf("v1-shaped manifest: version %d, partitioning %q", man.FormatVersion, g.Partitioning())
	}
	if man.Options.Backend != BackendBloomRF || g.Stats().Backend != BackendBloomRF {
		t.Fatalf("v1-shaped manifest restored with backend %q, want bloomrf", man.Options.Backend)
	}
}

// TestManifestV5SpanRules pins the reader's policy on the two fields v5
// introduced for live splitting: the span-start table and per-shard
// mutation epochs. Pre-v5 manifests claiming either are corrupt (those
// eras could not have written them); v5 range manifests must carry a span
// table that tiles the keyspace and matches the shard count, and v5 hash
// manifests must not carry one at all.
func TestManifestV5SpanRules(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSharded(FilterOptions{ExpectedKeys: 1000, Shards: 2, Partitioning: PartitionRange})
	if err != nil {
		t.Fatal(err)
	}
	f.InsertBatch([]uint64{1, 2, 3, 1 << 63})
	if _, err := st.Snapshot("spans", f); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(st.filterDir("spans"), snapDirName(1), manifestName)

	rewrite := func(mutate func(m map[string]any)) {
		t.Helper()
		body, err := os.ReadFile(manPath)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		body, err = json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manPath, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Sanity: the snapshot just written restores, spans and all.
	g, man, err := st.Restore("spans")
	if err != nil {
		t.Fatal(err)
	}
	if man.FormatVersion != manifestVersion || len(man.Spans) != 2 || len(g.Stats().Spans) != 2 {
		t.Fatalf("v5 range manifest = %+v", man)
	}
	// A v4 manifest carrying a span table is corrupt: the table is v5.
	rewrite(func(m map[string]any) { m["format_version"] = float64(4) })
	if _, _, err := st.Restore("spans"); err == nil {
		t.Fatal("v4 manifest with spans restored")
	}
	// A v4 manifest claiming a shard mutation epoch is corrupt too.
	rewrite(func(m map[string]any) {
		delete(m, "spans")
		m["shards"].([]any)[0].(map[string]any)["mut"] = float64(7)
	})
	if _, _, err := st.Restore("spans"); err == nil {
		t.Fatal("v4 manifest with a shard mutation epoch restored")
	}
	// A v5 range manifest without a span table is corrupt: v5 writers
	// always record it (splits make the division non-uniform).
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(manifestVersion)
		delete(m["shards"].([]any)[0].(map[string]any), "mut")
	})
	if _, _, err := st.Restore("spans"); err == nil {
		t.Fatal("v5 range manifest without spans restored")
	}
	// A span table disagreeing with the shard count is corrupt.
	rewrite(func(m map[string]any) { m["spans"] = []any{float64(0)} })
	if _, _, err := st.Restore("spans"); err == nil {
		t.Fatal("v5 range manifest with a 1-entry span table restored for 2 shards")
	}
	// A span table not anchored at 0 does not tile the keyspace.
	rewrite(func(m map[string]any) { m["spans"] = []any{float64(1), float64(1 << 32)} })
	if _, _, err := st.Restore("spans"); err == nil {
		t.Fatal("v5 range manifest with spans not starting at 0 restored")
	}
	// Restored faithfully as v4 (no spans, no mut, no epoch anywhere):
	// spans rebuilt evenly.
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(4)
		delete(m, "spans")
		delete(m, "epoch")
		for _, sh := range m["shards"].([]any) {
			delete(sh.(map[string]any), "mut")
		}
	})
	g2, man2, err := st.Restore("spans")
	if err != nil {
		t.Fatalf("faithful v4 shape stopped restoring: %v", err)
	}
	if man2.FormatVersion != 4 || len(g2.Stats().Spans) != 2 || g2.Stats().Spans[1] != 1<<63 {
		t.Fatalf("v4-shaped manifest: %+v spans %v", man2, g2.Stats().Spans)
	}

	// The hash side: a v5 hash manifest must not carry a span table.
	h, err := NewSharded(FilterOptions{ExpectedKeys: 1000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot("hashed", h); err != nil {
		t.Fatal(err)
	}
	manPath = filepath.Join(st.filterDir("hashed"), snapDirName(1), manifestName)
	if _, _, err := st.Restore("hashed"); err != nil {
		t.Fatal(err)
	}
	rewrite(func(m map[string]any) { m["spans"] = []any{float64(0), float64(1 << 63)} })
	if _, _, err := st.Restore("hashed"); err == nil {
		t.Fatal("v5 hash manifest with spans restored")
	}
}

// TestManifestV6EpochRules pins the reader's policy on the field v6
// introduced for failover: the promotion epoch. Pre-v6 manifests claiming
// one are corrupt (those eras had no failover), and v6 writers always
// record it, so a v6 manifest without one is corrupt too.
func TestManifestV6EpochRules(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSharded(FilterOptions{ExpectedKeys: 1000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.InsertBatch([]uint64{1, 2, 3})
	if _, err := st.Snapshot("epochs", f); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(st.filterDir("epochs"), snapDirName(1), manifestName)

	rewrite := func(mutate func(m map[string]any)) {
		t.Helper()
		body, err := os.ReadFile(manPath)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		body, err = json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manPath, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Sanity: a fresh snapshot is a v6 manifest recording epoch 1 (a store
	// with no epoch source predates any promotion).
	_, man, err := st.Restore("epochs")
	if err != nil {
		t.Fatal(err)
	}
	if man.FormatVersion != manifestVersion || man.Epoch != 1 {
		t.Fatalf("fresh manifest = version %d epoch %d, want version %d epoch 1",
			man.FormatVersion, man.Epoch, manifestVersion)
	}
	// The store's epoch source flows into new manifests (the promoted
	// primary's snapshots carry its bumped epoch). A separate filter name
	// keeps "epochs" at a single snapshot for the rewrite tests below.
	st.SetEpochSource(func() uint64 { return 7 })
	if _, err := st.Snapshot("promoted", f); err != nil {
		t.Fatal(err)
	}
	if _, man, err = st.Restore("promoted"); err != nil || man.Epoch != 7 {
		t.Fatalf("epoch-source manifest = %+v, err %v; want epoch 7", man, err)
	}
	// A v5 manifest claiming an epoch is corrupt: epochs are v6.
	rewrite(func(m map[string]any) { m["format_version"] = float64(5) })
	if _, _, err := st.Restore("epochs"); err == nil {
		t.Fatal("v5 manifest with an epoch restored")
	}
	// A v6 manifest without an epoch is corrupt: v6 writers always record it.
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(manifestVersion)
		delete(m, "epoch")
	})
	if _, _, err := st.Restore("epochs"); err == nil {
		t.Fatal("v6 manifest without an epoch restored")
	}
	// A faithful v5 shape (no epoch key at all) restores: that era simply
	// predates failover, and recovery treats it as epoch 0 (→ boot at 1).
	rewrite(func(m map[string]any) { m["format_version"] = float64(5) })
	g, man2, err := st.Restore("epochs")
	if err != nil {
		t.Fatalf("faithful v5 shape stopped restoring: %v", err)
	}
	if man2.FormatVersion != 5 || man2.Epoch != 0 {
		t.Fatalf("v5-shaped manifest = version %d epoch %d", man2.FormatVersion, man2.Epoch)
	}
	if !g.MayContain(2) {
		t.Fatal("v5-shaped restore lost key 2")
	}
}
