package server

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// insertRounds inserts n random keys into name through the API in rounds of
// 2,000, so the WAL's 16 KiB test segments rotate between group commits.
func insertRounds(t *testing.T, api *API, name string, n int, seed int64) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	for off := 0; off < n; off += 2_000 {
		body, _ := json.Marshal(map[string]any{"keys": keys[off:min(off+2_000, n)]})
		if code, rb := doReq(t, api, "POST", "/v1/filters/"+name+"/insert", string(body)); code != http.StatusOK {
			t.Fatalf("insert: %d %s", code, rb)
		}
	}
	return keys
}

// TestExplicitSnapshotTruncatesWAL pins that an on-demand snapshot, not
// only a periodic pass, drops the WAL segments it covers.
func TestExplicitSnapshotTruncatesWAL(t *testing.T) {
	api, _, _, wlog := walAPI(t, t.TempDir())
	defer api.Close()
	if code, body := doReq(t, api, "POST", "/v1/filters",
		`{"name":"users","expected_keys":200000,"shards":2}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	insertRounds(t, api, "users", 16_000, 3)
	before := wlog.Stats()
	if before.Segments < 2 {
		t.Fatalf("test needs rotation to mean anything: %+v", before)
	}
	if code, body := doReq(t, api, "POST", "/v1/filters/users/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, body)
	}
	if after := wlog.OldestPos(); after <= before.Oldest {
		t.Fatalf("explicit snapshot did not advance the oldest WAL position: %d -> %d", before.Oldest, after)
	}
}

// TestCloseFlushesBootedPrimary pins the shutdown half of the lifecycle on
// a primary that booted with its WAL: Close takes a final snapshot that
// covers every insert, so recovery replays none of them, and closes the
// log, which then refuses appends.
func TestCloseFlushesBootedPrimary(t *testing.T) {
	dir := t.TempDir()
	api, reg, _, wlog := walAPI(t, dir)
	if code, body := doReq(t, api, "POST", "/v1/filters",
		`{"name":"users","expected_keys":200000,"shards":2}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	keys := insertRounds(t, api, "users", 8_000, 5)
	ref, _ := reg.Get("users")
	api.Close()
	if _, err := wlog.Append(wal.Record{Type: recDelete, Data: []byte("users")}); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("append after Close: %v, want wal.ErrClosed", err)
	}

	wlog2 := openWALT(t, filepath.Join(dir, "wal"))
	defer wlog2.Close()
	store2, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry()
	stats, err := Recover(store2, wlog2, reg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Batches != 0 {
		t.Fatalf("recovery after Close replayed %d insert batches, want 0 (final snapshot missing?): %+v", stats.Batches, stats)
	}
	got, err := reg2.Get("users")
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalAnswers(t, ref, got, keys, 7)
}

// TestPromoteAfterCloseRefused pins that Close ends promotion: a caught-up
// standby that would otherwise promote answers 409 and stays a follower.
func TestPromoteAfterCloseRefused(t *testing.T) {
	srv, api, _ := primaryT(t, t.TempDir())
	if code, body := doReq(t, api, "POST", "/v1/filters", `{"name":"users","expected_keys":10000}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	insertHTTP(t, srv, "users", []uint64{1, 2, 3})
	sb := standbyT(t, srv.URL, standbyOpts{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sb.fo.Run(ctx)
	waitCaughtUp(t, sb.fo, api.cfg.WAL.End())

	sb.api.Close()
	code, body := doReq(t, sb.api, "POST", "/v1/replication/promote", "")
	if code != http.StatusConflict || !strings.Contains(body, "shutting down") {
		t.Fatalf("promote after Close: %d %s", code, body)
	}
	if role := sb.api.role(); role != "follower" {
		t.Fatalf("role after refused promotion = %q", role)
	}
}

// TestCloseWaitsForAutoSplit pins that Close owns auto-split episodes: with
// an episode held inside a split, Close does not return; once released, the
// episode journals that split and stops, and only then does Close take its
// final snapshot, so recovery finds the split in the snapshot and replays
// no split record.
func TestCloseWaitsForAutoSplit(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	api := NewConfiguredAPI(reg, store, Config{
		WAL:                    openWALT(t, filepath.Join(dir, "wal")),
		AutoSplitSkewThreshold: 2.0,
	})
	if code, body := doReq(t, api, "POST", "/v1/filters",
		`{"name":"z","expected_keys":200000,"shards":4,"partitioning":"range"}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	f, _ := reg.Get("z")
	entered, release := make(chan struct{}), make(chan struct{})
	f.splitHook = func(stage string) {
		if stage == "picked" {
			select {
			case <-entered:
			default:
				close(entered)
			}
			<-release
		}
	}
	spans := spanBounds(t, f)
	body, _ := json.Marshal(map[string]any{"keys": clusteredKeys(4_000, spans[0], spans[0]+(1<<40), 9)})
	if code, rb := doReq(t, api, "POST", "/v1/filters/z/insert", string(body)); code != http.StatusOK {
		t.Fatalf("insert: %d %s", code, rb)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("no auto-split episode started (skew %.2f)", f.KeySkew())
	}

	closed := make(chan struct{})
	go func() {
		api.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an auto-split episode was still splitting")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the episode was released")
	}
	if f.autoSplitting.Load() {
		t.Fatal("auto-split episode still marked running after Close")
	}
	if got := f.Splits(); got != 1 {
		t.Fatalf("episode made %d splits, want 1 (it must stop once Close has begun)", got)
	}

	wlog2 := openWALT(t, filepath.Join(dir, "wal"))
	defer wlog2.Close()
	store2, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry()
	stats, err := Recover(store2, wlog2, reg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Splits != 0 {
		t.Fatalf("recovery replayed %d split records past the final snapshot: %+v", stats.Splits, stats)
	}
	got, err := reg2.Get("z")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShards() != 5 {
		t.Fatalf("recovered %d shards, want the split's 5", got.NumShards())
	}
}
