package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// waitCaughtUp polls until the follower has applied the primary's WAL
// through wantPos (or the deadline passes). Applied positions only advance
// past a record once it is applied, so applied ≥ wantPos proves every
// record below wantPos is in.
func waitCaughtUp(t *testing.T, fo *Follower, wantPos uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if fo.Status().AppliedPos >= wantPos {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never reached position %d: %+v", wantPos, fo.Status())
}

// primaryT builds a WAL-backed primary API served over a real HTTP server.
func primaryT(t *testing.T, dir string) (*httptest.Server, *API, *Registry) {
	t.Helper()
	api, reg, _, wlog := walAPI(t, dir)
	srv := httptest.NewServer(api)
	t.Cleanup(func() {
		srv.Close()
		wlog.Close()
	})
	return srv, api, reg
}

// insertHTTP pushes keys through the primary's real insert endpoint so the
// WAL path is the one production takes.
func insertHTTP(t *testing.T, srv *httptest.Server, name string, keys []uint64) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"keys": keys})
	resp, err := http.Post(srv.URL+"/v1/filters/"+name+"/insert", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d", resp.StatusCode)
	}
}

// TestFollowerServesBitIdenticalAnswers is the replication acceptance
// test in-process: a follower bootstraps from the primary's snapshot,
// tails 10k post-snapshot inserts, and answers point and range queries
// bit-identically to the primary — then keeps up with further writes and
// a filter deletion.
func TestFollowerServesBitIdenticalAnswers(t *testing.T) {
	srv, api, reg := primaryT(t, t.TempDir())

	resp, err := http.Post(srv.URL+"/v1/filters", "application/json",
		strings.NewReader(`{"name":"users","expected_keys":200000,"shards":4,"partitioning":"range"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 15_000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	// 5k inserted, then an explicit snapshot, then 10k more that exist
	// only in the WAL: the follower must see snapshot + tail seamlessly.
	insertHTTP(t, srv, "users", keys[:5_000])
	resp, err = http.Post(srv.URL+"/v1/filters/users/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	insertHTTP(t, srv, "users", keys[5_000:])

	freg := NewRegistry()
	fo, err := NewFollower(srv.URL, freg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fo.Run(ctx)
	waitCaughtUp(t, fo, api.cfg.WAL.End())

	primary, err := reg.Get("users")
	if err != nil {
		t.Fatal(err)
	}
	standby, err := freg.Get("users")
	if err != nil {
		t.Fatalf("follower has no users filter: %v", err)
	}
	if standby.Partitioning() != PartitionRange || standby.NumShards() != 4 {
		t.Fatalf("follower filter options diverge: %+v", standby.Options())
	}
	assertIdenticalAnswers(t, primary, standby, keys, 101)

	// Live tail: more writes arrive while the follower is attached.
	more := make([]uint64, 3_000)
	for i := range more {
		more[i] = rng.Uint64()
	}
	insertHTTP(t, srv, "users", more)
	waitCaughtUp(t, fo, api.cfg.WAL.End())
	assertIdenticalAnswers(t, primary, standby, more, 102)

	// A second filter created after the follower attached replicates too.
	resp, err = http.Post(srv.URL+"/v1/filters", "application/json",
		strings.NewReader(`{"name":"late","expected_keys":10000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	insertHTTP(t, srv, "late", []uint64{7, 8, 9})
	waitCaughtUp(t, fo, api.cfg.WAL.End())
	lateP, err := reg.Get("late")
	if err != nil {
		t.Fatal(err)
	}
	lateF, err := freg.Get("late")
	if err != nil {
		t.Fatalf("late filter did not replicate: %v", err)
	}
	assertIdenticalAnswers(t, lateP, lateF, []uint64{7, 8, 9}, 103)

	// Deletes replicate.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/filters/late", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := freg.Get("late"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never applied the delete")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFollowerBootstrapAfterTruncation pins the snapshot-bootstrap branch:
// when the WAL history a fresh follower would need has been truncated
// away, the primary streams its snapshots first and resumes the tail at
// the oldest retained position.
func TestFollowerBootstrapAfterTruncation(t *testing.T) {
	dir := t.TempDir()
	srv, api, reg := primaryT(t, dir)

	resp, err := http.Post(srv.URL+"/v1/filters", "application/json",
		strings.NewReader(`{"name":"users","expected_keys":200000,"shards":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 20_000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	// Insert in rounds: rotation happens between group commits, so one
	// giant record would leave a single (untruncatable) active segment.
	for off := 0; off < len(keys); off += 2_000 {
		insertHTTP(t, srv, "users", keys[off:off+2_000])
	}

	// Snapshot everything and drop the covered log prefix. The WAL uses
	// 16 KiB segments in tests, so 20k inserts guarantee rotation.
	if ok, failed := api.snapshotAll(); ok != 1 || failed != 0 {
		t.Fatalf("snapshot pass: ok=%d failed=%d", ok, failed)
	}
	if api.cfg.WAL.OldestPos() == 0 {
		t.Fatal("truncation did not advance; bootstrap branch untested")
	}
	// Tail data after the truncation point.
	insertHTTP(t, srv, "users", []uint64{111, 222, 333})

	freg := NewRegistry()
	fo, err := NewFollower(srv.URL, freg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fo.Run(ctx)
	waitCaughtUp(t, fo, api.cfg.WAL.End())

	primary, _ := reg.Get("users")
	standby, err := freg.Get("users")
	if err != nil {
		t.Fatalf("follower has no users filter after bootstrap: %v", err)
	}
	assertIdenticalAnswers(t, primary, standby, append(keys[:2000:2000], 111, 222, 333), 111)
	if st := fo.Status(); st.PrimaryPos == 0 || st.AppliedPos != st.PrimaryPos {
		t.Fatalf("follower status after catch-up: %+v", st)
	}
	_ = filepath.Join // keep linters honest about the import set
}

// TestStreamResyncsImpossiblePosition pins the foreign-position recovery
// path: a follower claiming a position beyond the primary's log end (the
// primary's WAL was replaced) is resynced via snapshot bootstrap instead
// of being served nothing forever.
func TestStreamResyncsImpossiblePosition(t *testing.T) {
	srv, api, reg := primaryT(t, t.TempDir())
	resp, err := http.Post(srv.URL+"/v1/filters", "application/json",
		strings.NewReader(`{"name":"users","expected_keys":10000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	insertHTTP(t, srv, "users", []uint64{1, 2, 3})

	freg := NewRegistry()
	fo, err := NewFollower(srv.URL, freg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fo.applied.Store(api.cfg.WAL.End() + 1_000_000) // a position this log never reached
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fo.Run(ctx)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if f, err := freg.Get("users"); err == nil {
			p, _ := reg.Get("users")
			assertIdenticalAnswers(t, p, f, []uint64{1, 2, 3}, 121)
			if st := fo.Status(); st.AppliedPos > api.cfg.WAL.End() {
				t.Fatalf("bootstrap did not reset the impossible position: %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never resynced: %+v", fo.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationStatusEndpoint pins the role reporting on both sides.
func TestReplicationStatusEndpoint(t *testing.T) {
	srv, _, _ := primaryT(t, t.TempDir())
	resp, err := http.Get(srv.URL + "/v1/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body["role"] != "primary" {
		t.Fatalf("primary status = %v", body)
	}

	freg := NewRegistry()
	fo, err := NewFollower(srv.URL, freg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fapi := NewConfiguredAPI(freg, nil, Config{ReadOnly: true, Replication: fo.Status})
	code, fbody := doReq(t, fapi, "GET", "/v1/replication/status", "")
	if code != http.StatusOK || !strings.Contains(fbody, `"role":"follower"`) {
		t.Fatalf("follower status: %d %s", code, fbody)
	}
	// Follower metrics expose the lag gauges.
	_, metrics := doReq(t, fapi, "GET", "/metrics", "")
	for _, want := range []string{"bloomrfd_replication_connected", "bloomrfd_replication_lag_bytes", "bloomrfd_readonly 1"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("follower metrics missing %q:\n%s", want, grepLines(metrics, "replication"))
		}
	}
}

// TestReplicationStreamAuth pins the PR 4 follow-up: when the primary runs
// with an auth token, GET /v1/replication/stream demands it — the stream
// hands out every inserted key, so it cannot be weaker than the mutations
// that put them there. A follower presenting the token via WithAuthToken
// syncs normally; a bare or wrongly-authed client gets 401.
func TestReplicationStreamAuth(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	wlog := openWALT(t, filepath.Join(dir, "wal"))
	store.SetWALSource(wlog)
	reg := NewRegistry()
	api := NewConfiguredAPI(reg, store, Config{WAL: wlog, AuthToken: "sesame"})
	srv := httptest.NewServer(api)
	defer srv.Close()

	authedPost := func(path, body string) int {
		t.Helper()
		req, err := http.NewRequest("POST", srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer sesame")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := authedPost("/v1/filters", `{"name":"users","expected_keys":10000}`); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := authedPost("/v1/filters/users/insert", `{"keys":[7,8,9]}`); code != http.StatusOK {
		t.Fatalf("insert: %d", code)
	}

	// No credential and a wrong credential both bounce with the bearer
	// challenge before a single frame is written.
	for _, hdr := range []string{"", "Bearer wrong"} {
		req, err := http.NewRequest("GET", srv.URL+"/v1/replication/stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		if hdr != "" {
			req.Header.Set("Authorization", hdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("stream with auth %q: %d, want 401", hdr, resp.StatusCode)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Fatalf("stream 401 lacks the bearer challenge")
		}
	}

	// A follower presenting the token bootstraps and tails normally.
	freg := NewRegistry()
	fo, err := NewFollower(srv.URL, freg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fo.WithAuthToken("sesame")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fo.Run(ctx)
	waitCaughtUp(t, fo, wlog.End())
	standby, err := freg.Get("users")
	if err != nil {
		t.Fatalf("follower has no users filter: %v", err)
	}
	for _, k := range []uint64{7, 8, 9} {
		if !standby.MayContain(k) {
			t.Fatalf("standby lost key %d", k)
		}
	}
	cancel()
	wlog.Close()
}

// TestReplicationLagHistogramSeesBetweenScrapeSpikes pins the reason the
// lag histogram exists: a lag spike that builds and fully drains between
// two /metrics scrapes is invisible to the instantaneous lag_bytes gauge
// (it reads ~0 at both scrapes) but must be present in the per-record
// histogram, because every applied record sampled how far behind it was.
func TestReplicationLagHistogramSeesBetweenScrapeSpikes(t *testing.T) {
	srv, api, _ := primaryT(t, t.TempDir())
	resp, err := http.Post(srv.URL+"/v1/filters", "application/json",
		strings.NewReader(`{"name":"burst","expected_keys":100000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}

	// "Scrape 1" equivalent: the burst lands entirely before the follower
	// connects, so no scrape of the follower could observe it building.
	rng := rand.New(rand.NewSource(11))
	batch := make([]uint64, 500)
	for i := 0; i < 20; i++ {
		for j := range batch {
			batch[j] = rng.Uint64()
		}
		insertHTTP(t, srv, "burst", batch)
	}
	end := api.cfg.WAL.End()

	freg := NewRegistry()
	fo, err := NewFollower(srv.URL, freg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fo.Run(ctx)
	waitCaughtUp(t, fo, end)

	// "Scrape 2": the spike has fully drained — the gauge is back to zero.
	if st := fo.Status(); st.LagBytes != 0 {
		t.Fatalf("gauge lag = %d after catch-up, want 0: %+v", st.LagBytes, st)
	}
	snap := fo.LagSnapshot()
	if snap.Count == 0 {
		t.Fatal("lag histogram empty after catch-up")
	}
	// The whole backlog (tens of KiB) was ahead of the first applied
	// records, so the histogram's tail must show a large spike even
	// though both "scrapes" saw lag 0.
	if maxLag := snap.Quantile(1.0); maxLag < 16_384 {
		t.Fatalf("lag histogram max = %d bytes, want >= 16384 (spike lost)", maxLag)
	}
	cancel()
}

// TestFollowerBootstrapsShardOverRecordLimit pins the shard-frame bound: a
// single shard of 2^25 keys at 16 bits/key snapshots to a blob larger than
// the 64 MiB WAL record limit, and a fresh follower must still bootstrap it
// (its frame is bounded by the manifest's size for that shard) and then
// tail the log behind it.
func TestFollowerBootstrapsShardOverRecordLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("moves a 64 MiB shard through snapshot, stream and restore")
	}
	srv, api, reg := primaryT(t, t.TempDir())
	resp, err := http.Post(srv.URL+"/v1/filters", "application/json",
		strings.NewReader(`{"name":"big","expected_keys":33554432,"bits_per_key":16,"shards":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	primary, _ := reg.Get("big")
	if snap := primary.LastSnapshot(); snap == nil || snap.Bytes <= wal.MaxRecordBytes {
		t.Fatalf("test needs a shard over %d bytes, got snapshot %+v", wal.MaxRecordBytes, snap)
	}
	keys := []uint64{7, 4711, 1 << 40, 1<<63 + 5}
	insertHTTP(t, srv, "big", keys)

	freg := NewRegistry()
	fo, err := NewFollower(srv.URL, freg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fo.Run(ctx)
	waitCaughtUp(t, fo, api.cfg.WAL.End())
	standby, err := freg.Get("big")
	if err != nil {
		t.Fatalf("follower has no big filter after bootstrap: %v", err)
	}
	assertIdenticalAnswers(t, primary, standby, keys, 25)
}
