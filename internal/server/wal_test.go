package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

// openWALT opens a WAL for server tests: SyncAlways (determinism — acked
// means on disk) and small segments so truncation has something to chew.
func openWALT(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways, SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// walAPI wires a registry + store + WAL into an API the way bloomrfd does,
// rooted in dir.
func walAPI(t *testing.T, dir string) (*API, *Registry, *Store, *wal.Log) {
	t.Helper()
	store, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	wlog := openWALT(t, filepath.Join(dir, "wal"))
	reg := NewRegistry()
	api := NewConfiguredAPI(reg, store, Config{WAL: wlog})
	return api, reg, store, wlog
}

// doReq posts body to path on handler h and returns the status code and body.
func doReq(t *testing.T, h http.Handler, method, path, body string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	b, _ := io.ReadAll(rw.Result().Body)
	return rw.Result().StatusCode, string(b)
}

// TestRecoverSnapshotPlusTail is the core WAL promise: a filter whose
// latest snapshot misses the newest inserts comes back bit-identical after
// restore+replay, because the WAL tail carries what the snapshot does not.
func TestRecoverSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	api, reg, store, wlog := walAPI(t, dir)

	if code, body := doReq(t, api, "POST", "/v1/filters",
		`{"name":"users","expected_keys":100000,"shards":4,"partitioning":"range"}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, 12_000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	insert := func(batch []uint64) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"keys": batch})
		if code, rb := doReq(t, api, "POST", "/v1/filters/users/insert", string(body)); code != http.StatusOK {
			t.Fatalf("insert: %d %s", code, rb)
		}
	}
	insert(keys[:5_000])
	if code, body := doReq(t, api, "POST", "/v1/filters/users/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, body)
	}
	// 7k inserts after the snapshot live only in the WAL.
	insert(keys[5_000:])
	ref, err := reg.Get("users")
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": no final snapshot, no clean WAL close — reopen the
	// directory cold, exactly as a restarted bloomrfd would. SyncAlways
	// means everything acked above is on disk.
	_ = store
	wlog2 := openWALT(t, filepath.Join(dir, "wal"))
	defer wlog2.Close()
	store2, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	store2.SetWALSource(wlog2)
	reg2 := NewRegistry()
	st, err := Recover(store2, wlog2, reg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches == 0 || st.Keys < 7_000 {
		t.Fatalf("replay stats %+v: expected the post-snapshot tail to replay", st)
	}
	got, err := reg2.Get("users")
	if err != nil {
		t.Fatal(err)
	}
	if got.Partitioning() != PartitionRange || got.NumShards() != 4 {
		t.Fatalf("recovered filter lost its options: %+v", got.Options())
	}
	assertIdenticalAnswers(t, ref, got, keys, 51)
	wlog.Close()
}

// TestRecoverWALOnly pins recovery of a filter that was created and loaded
// entirely after the last snapshot pass — its create record and inserts
// exist only in the WAL. (The HTTP path snapshots on create, so this
// exercises the library path bloomrfd's crash window can produce.)
func TestRecoverWALOnly(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	wlog := openWALT(t, filepath.Join(dir, "wal"))
	store.SetWALSource(wlog)
	reg := NewRegistry()

	opt := FilterOptions{ExpectedKeys: 10_000, Shards: 2}
	f, err := reg.Create("ephemeral", opt)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := encodeCreate("ephemeral", f.Options())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wlog.Append(rec); err != nil {
		t.Fatal(err)
	}
	keys := fillRandom(f, 2_000, 17)
	rec, err = encodeInsert(nil, "ephemeral", keys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wlog.Append(rec); err != nil {
		t.Fatal(err)
	}

	wlog2 := openWALT(t, filepath.Join(dir, "wal"))
	defer wlog2.Close()
	reg2 := NewRegistry()
	if _, err := Recover(store, wlog2, reg2, nil); err != nil {
		t.Fatal(err)
	}
	g, err := reg2.Get("ephemeral")
	if err != nil {
		t.Fatalf("WAL-only filter did not come back: %v", err)
	}
	assertIdenticalAnswers(t, f, g, keys, 61)
	wlog.Close()
}

// TestRecoverTornTail pins the crash-mid-append path end to end: garbage
// (a torn record) at the WAL tail is dropped, every complete record
// replays, and the server keeps serving.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	api, reg, _, wlog := walAPI(t, dir)
	if code, body := doReq(t, api, "POST", "/v1/filters",
		`{"name":"users","expected_keys":10000,"shards":2}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	body, _ := json.Marshal(map[string]any{"keys": []uint64{1, 2, 3, 4711}})
	if code, rb := doReq(t, api, "POST", "/v1/filters/users/insert", string(body)); code != http.StatusOK {
		t.Fatalf("insert: %d %s", code, rb)
	}
	ref, _ := reg.Get("users")
	wlog.Close()

	// Tear the tail: append half a fake record to the newest segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v %v", segs, err)
	}
	newest := segs[len(segs)-1]
	fh, err := os.OpenFile(newest, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	wlog2 := openWALT(t, filepath.Join(dir, "wal"))
	defer wlog2.Close()
	store2, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry()
	if _, err := Recover(store2, wlog2, reg2, nil); err != nil {
		t.Fatal(err)
	}
	got, err := reg2.Get("users")
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalAnswers(t, ref, got, []uint64{1, 2, 3, 4711}, 71)
}

// TestRecoverRefusesForeignWAL pins the safety check: snapshots claiming a
// WAL position beyond the log's end (a WAL directory that does not belong
// to them) abort recovery instead of silently reusing positions.
func TestRecoverRefusesForeignWAL(t *testing.T) {
	dir := t.TempDir()
	api, _, _, wlog := walAPI(t, dir)
	if code, body := doReq(t, api, "POST", "/v1/filters",
		`{"name":"users","expected_keys":10000}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	body, _ := json.Marshal(map[string]any{"keys": []uint64{1, 2, 3}})
	doReq(t, api, "POST", "/v1/filters/users/insert", string(body))
	if code, rb := doReq(t, api, "POST", "/v1/filters/users/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, rb)
	}
	wlog.Close()
	// Replace the WAL with an empty one: the snapshot now claims coverage
	// of positions that never existed here.
	if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}
	wlog2 := openWALT(t, filepath.Join(dir, "wal"))
	defer wlog2.Close()
	store2, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(store2, wlog2, NewRegistry(), nil); err == nil {
		t.Fatal("recovery accepted snapshots whose WAL was replaced")
	}
}

// TestReplayDeleteAndRecreate pins the registry semantics of replay:
// create → insert → delete → create replays to a fresh, empty filter.
func TestReplayDeleteAndRecreate(t *testing.T) {
	dir := t.TempDir()
	wlog := openWALT(t, dir)
	opt := FilterOptions{ExpectedKeys: 1000, Shards: 2}
	f, _ := NewSharded(opt)
	appendRec := func(rec wal.Record, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wlog.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := encodeCreate("a", f.Options())
	appendRec(rec, err)
	rec, err = encodeInsert(nil, "a", []uint64{10, 20, 30})
	appendRec(rec, err)
	appendRec(wal.Record{Type: recDelete, Data: []byte("a")}, nil)
	rec, err = encodeCreate("a", f.Options())
	appendRec(rec, err)

	reg := NewRegistry()
	st, err := ReplayWAL(wlog, reg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Creates != 2 || st.Deletes != 1 || st.Batches != 1 {
		t.Fatalf("replay stats %+v", st)
	}
	g, err := reg.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Stats().InsertedKeys; got != 0 {
		t.Fatalf("recreated filter has %d keys, want 0 (insert preceded the delete)", got)
	}
	wlog.Close()
}

// TestWALTruncationAfterSnapshots pins the durability-cost story: once
// snapshots cover the log, old segments go away, and recovery from the
// shortened log still answers identically.
func TestWALTruncationAfterSnapshots(t *testing.T) {
	dir := t.TempDir()
	api, reg, _, wlog := walAPI(t, dir)
	if code, body := doReq(t, api, "POST", "/v1/filters",
		`{"name":"users","expected_keys":200000,"shards":2}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	rng := rand.New(rand.NewSource(13))
	var all []uint64
	for round := 0; round < 4; round++ {
		keys := make([]uint64, 4_000)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		all = append(all, keys...)
		body, _ := json.Marshal(map[string]any{"keys": keys})
		if code, rb := doReq(t, api, "POST", "/v1/filters/users/insert", string(body)); code != http.StatusOK {
			t.Fatalf("insert: %d %s", code, rb)
		}
	}
	before := wlog.Stats()
	if before.Segments < 2 {
		t.Fatalf("test needs rotation to mean anything: %+v", before)
	}
	if ok, failed := api.snapshotAll(); ok != 1 || failed != 0 {
		t.Fatalf("snapshot pass: ok=%d failed=%d", ok, failed)
	}
	if pos := TruncatableBefore(reg); pos == 0 {
		t.Fatal("nothing truncatable after a full snapshot pass")
	}
	after := wlog.Stats()
	if after.Oldest <= before.Oldest {
		t.Fatalf("truncation did not advance the oldest position: %+v -> %+v", before, after)
	}
	ref, _ := reg.Get("users")
	wlog.Close()

	wlog2 := openWALT(t, filepath.Join(dir, "wal"))
	defer wlog2.Close()
	store2, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry()
	if _, err := Recover(store2, wlog2, reg2, nil); err != nil {
		t.Fatal(err)
	}
	got, err := reg2.Get("users")
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalAnswers(t, ref, got, all, 81)
}

// TestAuthToken pins the bearer-token gate: with a token configured, every
// mutating endpoint rejects missing/wrong credentials with 401 and accepts
// the right one; query endpoints stay open.
func TestAuthToken(t *testing.T) {
	reg := NewRegistry()
	api := NewConfiguredAPI(reg, nil, Config{AuthToken: "s3cret"})

	do := func(method, path, body, token string) int {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		rw := httptest.NewRecorder()
		api.ServeHTTP(rw, req)
		return rw.Result().StatusCode
	}

	createBody := `{"name":"users","expected_keys":1000}`
	if code := do("POST", "/v1/filters", createBody, ""); code != http.StatusUnauthorized {
		t.Fatalf("create without token: %d, want 401", code)
	}
	if code := do("POST", "/v1/filters", createBody, "wrong"); code != http.StatusUnauthorized {
		t.Fatalf("create with wrong token: %d, want 401", code)
	}
	if code := do("POST", "/v1/filters", createBody, "s3cret"); code != http.StatusCreated {
		t.Fatalf("create with token: %d, want 201", code)
	}
	if code := do("POST", "/v1/filters/users/insert", `{"key":42}`, ""); code != http.StatusUnauthorized {
		t.Fatalf("insert without token: %d, want 401", code)
	}
	if code := do("POST", "/v1/filters/users/insert", `{"key":42}`, "s3cret"); code != http.StatusOK {
		t.Fatalf("insert with token: %d, want 200", code)
	}
	if code := do("POST", "/v1/filters/users/snapshot", "", ""); code != http.StatusUnauthorized {
		t.Fatalf("snapshot without token: %d, want 401", code)
	}
	if code := do("DELETE", "/v1/filters/users", "", ""); code != http.StatusUnauthorized {
		t.Fatalf("delete without token: %d, want 401", code)
	}
	// Reads stay open: queries, stats, list, metrics.
	if code := do("POST", "/v1/filters/users/query", `{"key":42}`, ""); code != http.StatusOK {
		t.Fatalf("query without token: %d, want 200", code)
	}
	if code := do("GET", "/v1/filters/users", "", ""); code != http.StatusOK {
		t.Fatalf("stats without token: %d, want 200", code)
	}
	if code := do("GET", "/metrics", "", ""); code != http.StatusOK {
		t.Fatalf("metrics without token: %d, want 200", code)
	}
	// And the delete with the right token works.
	if code := do("DELETE", "/v1/filters/users", "", "s3cret"); code != http.StatusNoContent {
		t.Fatalf("delete with token: %d, want 204", code)
	}
}

// TestReadOnlyMode pins the follower's 403 on every mutation.
func TestReadOnlyMode(t *testing.T) {
	reg := NewRegistry()
	f, err := NewSharded(FilterOptions{ExpectedKeys: 1000})
	if err != nil {
		t.Fatal(err)
	}
	f.Insert(42)
	if err := reg.Register("users", f); err != nil {
		t.Fatal(err)
	}
	api := NewConfiguredAPI(reg, nil, Config{ReadOnly: true})
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/v1/filters", `{"name":"x","expected_keys":1000}`},
		{"POST", "/v1/filters/users/insert", `{"key":7}`},
		{"POST", "/v1/filters/users/snapshot", ""},
		{"DELETE", "/v1/filters/users", ""},
	} {
		if code, body := doReq(t, api, tc.method, tc.path, tc.body); code != http.StatusForbidden {
			t.Fatalf("%s %s on read-only: %d %s, want 403", tc.method, tc.path, code, body)
		}
	}
	if code, body := doReq(t, api, "POST", "/v1/filters/users/query", `{"key":42}`); code != http.StatusOK || !strings.Contains(body, "true") {
		t.Fatalf("query on read-only: %d %s", code, body)
	}
}

// TestSkewAlert pins the key_skew satellite: a range-partitioned filter
// loaded with a hot span raises bloomrfd_filter_skew_alert = 1 and one
// structured warning; an even hash filter does not alert.
func TestSkewAlert(t *testing.T) {
	reg := NewRegistry()
	var logs bytes.Buffer
	api := NewConfiguredAPI(reg, nil, Config{
		SkewAlertThreshold: 2.0,
		Logf:               func(format string, args ...any) { fmt.Fprintf(&logs, format+"\n", args...) },
	})
	hot, err := NewSharded(FilterOptions{ExpectedKeys: 100_000, Shards: 8, Partitioning: PartitionRange})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10_000; i++ {
		hot.Insert(i) // all keys land in span 0 of 8
	}
	if err := reg.Register("hot", hot); err != nil {
		t.Fatal(err)
	}
	even, err := NewSharded(FilterOptions{ExpectedKeys: 100_000, Shards: 8, Partitioning: PartitionHash})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10_000; i++ {
		even.Insert(i * 0x9e3779b97f4a7c15)
	}
	if err := reg.Register("even", even); err != nil {
		t.Fatal(err)
	}

	scrape := func() string {
		_, body := doReq(t, api, "GET", "/metrics", "")
		return body
	}
	body := scrape()
	if !strings.Contains(body, `bloomrfd_filter_skew_alert{filter="hot"} 1`) {
		t.Fatalf("hot filter did not alert:\n%s", grepLines(body, "skew"))
	}
	if strings.Contains(body, `bloomrfd_filter_skew_alert{filter="even"}`) {
		t.Fatalf("hash filter got a skew alert gauge:\n%s", grepLines(body, "skew"))
	}
	if got := strings.Count(logs.String(), "key_skew_alert"); got != 1 {
		t.Fatalf("want exactly one skew warning, got %d:\n%s", got, logs.String())
	}
	// A second scrape does not re-log (transition-edge logging).
	scrape()
	if got := strings.Count(logs.String(), "key_skew_alert"); got != 1 {
		t.Fatalf("repeated scrape re-logged the alert: %d\n%s", got, logs.String())
	}
	if !strings.Contains(logs.String(), `filter="hot"`) || !strings.Contains(logs.String(), "threshold=2.00") {
		t.Fatalf("warning not structured: %s", logs.String())
	}
}

// grepLines returns the lines of s containing sub, for test failure output.
func grepLines(s, sub string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
