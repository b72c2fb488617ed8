package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// backendTestKeys is the deterministic insert population the backend tests
// share: golden-ratio strides spread across the keyspace.
func backendTestKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 7
	}
	return keys
}

// queryJSONNamed is queryJSON against an arbitrary filter name.
func queryJSONNamed(t testing.TB, a *API, name string, keys []uint64) []bool {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"keys": keys})
	rec := doBinReq(t, a, "POST", "/v1/filters/"+name+"/query", "application/json", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("JSON query: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Results []bool `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Results
}

// queryBinaryNamed is queryBinary against an arbitrary filter name.
func queryBinaryNamed(t testing.TB, a *API, name string, keys []uint64) []bool {
	t.Helper()
	frame := wire.AppendKeysRequest(nil, wire.OpQuery, keys)
	rec := doBinReq(t, a, "POST", "/v1/filters/"+name+"/query", wire.ContentType, frame)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary query: %d %s", rec.Code, rec.Body)
	}
	return decodeResultFrame(t, rec.Body.Bytes(), len(keys))
}

// queryRangeJSONNamed is queryRangeJSON against an arbitrary filter name.
func queryRangeJSONNamed(t testing.TB, a *API, name string, ranges [][2]uint64) []bool {
	t.Helper()
	rs := make([]map[string]uint64, len(ranges))
	for i, r := range ranges {
		rs[i] = map[string]uint64{"lo": r[0], "hi": r[1]}
	}
	body, _ := json.Marshal(map[string]any{"ranges": rs})
	rec := doBinReq(t, a, "POST", "/v1/filters/"+name+"/query-range", "application/json", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("JSON query-range: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Results []bool `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Results
}

// queryRangeBinaryNamed is queryRangeBinary against an arbitrary filter name.
func queryRangeBinaryNamed(t testing.TB, a *API, name string, ranges [][2]uint64) []bool {
	t.Helper()
	frame := wire.AppendRangesRequest(nil, ranges)
	rec := doBinReq(t, a, "POST", "/v1/filters/"+name+"/query-range", wire.ContentType, frame)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary query-range: %d %s", rec.Code, rec.Body)
	}
	return decodeResultFrame(t, rec.Body.Bytes(), len(ranges))
}

// TestCreateWithBackend pins the create endpoint's backend field. Omitted
// or "bloomrf", the full create → insert → query → query-range flow runs
// through both codecs: the create response and the stats report bloomrf,
// no inserted key is ever lost, and the two codecs return element-wise
// identical verdicts. A backend earlier builds served ("bloom", "rosetta",
// "surf") is a 400 naming bloomrf as the only servable backend, and
// nothing is registered.
func TestCreateWithBackend(t *testing.T) {
	for _, backend := range append([]string{BackendBloomRF, ""}, retiredBackends...) {
		wantBackend := backend
		if wantBackend == "" {
			wantBackend = BackendBloomRF
		}
		t.Run("backend="+wantBackend+fmt.Sprintf("/explicit=%v", backend != ""), func(t *testing.T) {
			reg := NewRegistry()
			a := NewAPI(reg)
			name := "bt-" + wantBackend
			createBody, _ := json.Marshal(map[string]any{
				"name":          name,
				"expected_keys": 20_000,
				"bits_per_key":  16,
				"max_range":     1 << 10,
				"shards":        4,
				"backend":       backend,
			})
			rec := doBinReq(t, a, "POST", "/v1/filters", "application/json", createBody)
			if wantBackend != BackendBloomRF {
				if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `\"`+backend+`\"`) ||
					!strings.Contains(rec.Body.String(), "bloomrf is the only servable backend") {
					t.Fatalf("create: %d %s, want a 400 naming %q and bloomrf", rec.Code, rec.Body, backend)
				}
				if _, err := reg.Get(name); err == nil {
					t.Fatal("filter registered despite 400")
				}
				return
			}
			if rec.Code != http.StatusCreated {
				t.Fatalf("create: %d %s", rec.Code, rec.Body)
			}
			var created struct {
				Stats ShardedStats `json:"stats"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
				t.Fatal(err)
			}
			if created.Stats.Backend != wantBackend {
				t.Fatalf("create response backend = %q, want %q", created.Stats.Backend, wantBackend)
			}

			// Half the population through each codec.
			keys := backendTestKeys(2000)
			insJSON, insBin := keys[:1000], keys[1000:]
			body, _ := json.Marshal(map[string]any{"keys": insJSON})
			if rec := doBinReq(t, a, "POST", "/v1/filters/"+name+"/insert", "application/json", body); rec.Code != http.StatusOK {
				t.Fatalf("JSON insert: %d %s", rec.Code, rec.Body)
			}
			frame := wire.AppendKeysRequest(nil, wire.OpInsert, insBin)
			if rec := doBinReq(t, a, "POST", "/v1/filters/"+name+"/insert", wire.ContentType, frame); rec.Code != http.StatusOK {
				t.Fatalf("binary insert: %d %s", rec.Code, rec.Body)
			}

			// Mixed present/absent queries; codecs must agree exactly, and
			// inserted keys must always answer true.
			rng := rand.New(rand.NewSource(1207))
			queries := make([]uint64, 3000)
			for i := range queries {
				switch i % 3 {
				case 0:
					queries[i] = insJSON[rng.Intn(len(insJSON))]
				case 1:
					queries[i] = insBin[rng.Intn(len(insBin))]
				default:
					queries[i] = rng.Uint64() // almost surely absent
				}
			}
			jr := queryJSONNamed(t, a, name, queries)
			br := queryBinaryNamed(t, a, name, queries)
			for i := range queries {
				if jr[i] != br[i] {
					t.Fatalf("query %d (%#x): json=%v binary=%v", i, queries[i], jr[i], br[i])
				}
				if i%3 != 2 && !br[i] {
					t.Fatalf("lost inserted key %#x", queries[i])
				}
			}

			// Ranges: half anchored on inserted keys (must answer true),
			// half random; codecs must agree on all of them.
			ranges := make([][2]uint64, 500)
			for i := range ranges {
				if i%2 == 0 {
					x := keys[rng.Intn(len(keys))]
					ranges[i] = [2]uint64{x - 10, x + 10}
				} else {
					lo := rng.Uint64()
					ranges[i] = [2]uint64{lo, lo + uint64(rng.Intn(1<<10))}
				}
			}
			jrr := queryRangeJSONNamed(t, a, name, ranges)
			brr := queryRangeBinaryNamed(t, a, name, ranges)
			for i := range ranges {
				if jrr[i] != brr[i] {
					t.Fatalf("range %d %v: json=%v binary=%v", i, ranges[i], jrr[i], brr[i])
				}
				if i%2 == 0 && !brr[i] {
					t.Fatalf("range %v over inserted key answered false", ranges[i])
				}
			}

			// The stats endpoint reports the backend too.
			rec = doBinReq(t, a, "GET", "/v1/filters/"+name, "", nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("stats: %d %s", rec.Code, rec.Body)
			}
			var st ShardedStats
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.Backend != wantBackend {
				t.Fatalf("stats backend = %q, want %q", st.Backend, wantBackend)
			}
		})
	}
}

// TestCreateUnknownBackend pins the rejection: an unrecognized backend is a
// 400 naming the servable one, and nothing is registered.
func TestCreateUnknownBackend(t *testing.T) {
	reg := NewRegistry()
	a := NewAPI(reg)
	for _, bad := range []string{"cuckoo", "BLOOMRF", "bloom-rf", "prefixbf", "fence"} {
		body, _ := json.Marshal(map[string]any{
			"name": "nope", "expected_keys": 1000, "backend": bad,
		})
		rec := doBinReq(t, a, "POST", "/v1/filters", "application/json", body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), BackendBloomRF) {
			t.Fatalf("backend %q: got %d %s, want a 400 naming bloomrf", bad, rec.Code, rec.Body)
		}
		if _, err := reg.Get("nope"); err == nil {
			t.Fatalf("backend %q: filter registered despite 400", bad)
		}
	}
}

// retiredBackendStore snapshots a bloomRF filter named "orders" twice into
// a store under dir/snapshots, then rewrites the newest manifest as a v4
// manifest naming backend b. The older snapshot stays a restorable bloomRF
// one, so a restore that fell back to it would succeed. It returns the
// store and the inserted keys.
func retiredBackendStore(t *testing.T, dir, b string) (*Store, []uint64) {
	t.Helper()
	st, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSharded(FilterOptions{ExpectedKeys: 4096, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	keys := backendTestKeys(500)
	f.InsertBatch(keys[:250])
	if _, err := st.Snapshot("orders", f); err != nil {
		t.Fatal(err)
	}
	f.InsertBatch(keys[250:])
	man, err := st.Snapshot("orders", f)
	if err != nil {
		t.Fatal(err)
	}
	man.Downgrade(4)
	man.Options.Backend = b
	writeManifest(t, st, &man)
	return st, keys
}

// TestBackendSnapshotRestore round-trips a bloomRF filter through a
// snapshot, and refuses a manifest naming any backend earlier builds also
// served: Restore, and boot recovery over it, fail with an error naming
// the filter and the backend. Neither skips the filter nor falls back to
// its older, restorable snapshot.
func TestBackendSnapshotRestore(t *testing.T) {
	for _, backend := range append([]string{BackendBloomRF}, retiredBackends...) {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			st, keys := retiredBackendStore(t, dir, backend)
			g, man, err := st.Restore("orders")
			if backend == BackendBloomRF {
				if err != nil {
					t.Fatal(err)
				}
				if man.Seq != 2 || man.Options.Backend != backend || g.Stats().Backend != backend {
					t.Fatalf("restored seq %d backend %q / stats %q, want seq 2 %q", man.Seq, man.Options.Backend, g.Stats().Backend, backend)
				}
				for _, k := range keys {
					if !g.MayContain(k) {
						t.Fatalf("restored filter lost key %#x", k)
					}
				}
				return
			}
			refused := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, errRetiredBackend) ||
					!strings.Contains(err.Error(), `"orders"`) || !strings.Contains(err.Error(), `"`+backend+`"`) {
					t.Fatalf("%s of a %s manifest: %v; want a refusal naming orders and %s", what, backend, err, backend)
				}
			}
			refused("Restore", err)
			l := openWALT(t, filepath.Join(dir, "wal"))
			defer l.Close()
			reg := NewRegistry()
			var logged []string
			_, err = Recover(st, l, reg, func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) })
			refused("Recover", err)
			if _, gerr := reg.Get("orders"); gerr == nil || len(logged) > 0 {
				t.Fatalf("Recover registered or skipped the refused filter (lookup %v, log %q)", gerr, logged)
			}
		})
	}
}

// TestCreateRecordCarriesBackend pins that the WAL create record
// round-trips the backend, and that replaying a create record naming a
// backend earlier builds served fails replay, naming the filter and the
// backend, instead of dropping the filter's records.
func TestCreateRecordCarriesBackend(t *testing.T) {
	f, err := NewSharded(FilterOptions{ExpectedKeys: 1000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := encodeCreate("b", f.Options())
	if err != nil {
		t.Fatal(err)
	}
	if p, err := decodeCreate(rec.Data); err != nil || p.Options.Backend != BackendBloomRF {
		t.Fatalf("create record carries backend %q (%v), want bloomrf", p.Options.Backend, err)
	}

	l := openWALT(t, t.TempDir())
	defer l.Close()
	opt := f.Options()
	opt.Backend = "rosetta"
	rec, err = encodeCreate("r", opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	_, err = ReplayWAL(l, reg, nil, nil)
	if err == nil || !strings.Contains(err.Error(), `"r"`) || !strings.Contains(err.Error(), `"rosetta"`) {
		t.Fatalf("ReplayWAL = %v, want a failure naming r and rosetta", err)
	}
	if _, gerr := reg.Get("r"); gerr == nil {
		t.Fatal("replay registered the refused filter")
	}
}

// TestFollowerRefusesRetiredBackend: a bootstrap manifest naming a backend
// earlier builds served stops the follower for good, with a terminal error
// naming the filter and the backend, instead of reconnecting forever.
func TestFollowerRefusesRetiredBackend(t *testing.T) {
	man, err := json.Marshal(Manifest{
		FormatVersion: 4, Name: "orders", Seq: 1,
		Options: FilterOptions{ExpectedKeys: 1000, Shards: 1, Partitioning: PartitionHash, Backend: "surf"},
		Shards:  []ShardEntry{{File: "shard-0000.bin", Bytes: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fw := &frameWriter{w: w}
		_ = fw.write(frameEpoch, 1, nil)
		_ = fw.write(frameSnapBegin, 0, man)
	}))
	defer primary.Close()
	fo, err := NewFollower(primary.URL, NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		fo.Run(context.Background())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		fo.Stop()
		t.Fatal("follower kept running after a bootstrap manifest naming surf")
	}
	terr := fo.TerminalErr()
	if !errors.Is(terr, errRetiredBackend) || !strings.Contains(terr.Error(), `"orders"`) || !strings.Contains(terr.Error(), `"surf"`) {
		t.Fatalf("terminal error %v, want a refusal naming orders and surf", terr)
	}
}
