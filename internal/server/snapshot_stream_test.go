package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSnapshotStreamsOffShardLock holds one shard's snapshot stream open
// and requires an insert to that shard to complete meanwhile: the stream
// runs without the shard's lock. After a crash, every acked key answers
// true (the raced insert is in the WAL above the manifest's position), and
// the next snapshot captures the raced shard again instead of reusing its
// blob.
func TestSnapshotStreamsOffShardLock(t *testing.T) {
	dir := t.TempDir()
	api, reg, store, wlog := walAPI(t, dir)
	defer wlog.Close()
	if code, body := doReq(t, api, "POST", "/v1/filters",
		`{"name":"s","expected_keys":131072,"shards":2}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	f, err := reg.Get("s")
	if err != nil {
		t.Fatal(err)
	}
	insert := func(keys []uint64) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"keys": keys})
		if code, rb := doReq(t, api, "POST", "/v1/filters/s/insert", string(body)); code != http.StatusOK {
			t.Errorf("insert: %d %s", code, rb)
		}
	}
	// Keys of shard 0: acked before the snapshot, and raced into its stream.
	rng := rand.New(rand.NewSource(61))
	var before, raced []uint64
	for len(before) < 500 || len(raced) < 500 {
		k := rng.Uint64()
		switch {
		case f.shardOf(k) != 0:
		case len(before) < 500:
			before = append(before, k)
		default:
			raced = append(raced, k)
		}
	}
	insert(before)

	held, release := make(chan struct{}), make(chan struct{})
	store.duringShardStream = func(shard int) {
		if shard == 0 {
			close(held)
			<-release
		}
	}
	type result struct {
		man Manifest
		err error
	}
	snapped := make(chan result, 1)
	go func() {
		man, err := snapshotRegistered(reg, store, "s", f)
		snapped <- result{man, err}
	}()
	<-held
	inserted := make(chan struct{})
	go func() {
		insert(raced)
		close(inserted)
	}()
	select {
	case <-inserted:
	case <-time.After(10 * time.Second):
		close(release)
		<-inserted
		<-snapped
		t.Fatal("an insert to the shard waited for its snapshot stream")
	}
	close(release)
	r := <-snapped
	if r.err != nil {
		t.Fatal(r.err)
	}
	store.duringShardStream = nil

	// Crash: reopen the directory cold and recover from that snapshot plus
	// the WAL tail.
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
	g, err := reg2.Get("s")
	if err != nil {
		t.Fatal(err)
	}
	if snap := g.LastSnapshot(); snap == nil || snap.Seq != r.man.Seq {
		t.Fatalf("recovered from snapshot %+v, want seq %d", snap, r.man.Seq)
	}
	for _, k := range append(before, raced...) {
		if !g.MayContain(k) {
			t.Fatalf("acked key %#x lost across the crash", k)
		}
	}

	// The raced inserts bumped shard 0's epoch after its drain: the next
	// pass streams it again and reuses only the untouched shard 1.
	man2, err := snapshotRegistered(reg, store, "s", f)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.LastSnapshot().ReusedShards; got != 1 {
		t.Fatalf("the next snapshot reused %d shards, want 1 (shard 1 only)", got)
	}
	if man2.Shards[0].Mut == r.man.Shards[0].Mut || man2.Shards[1].Mut != r.man.Shards[1].Mut {
		t.Fatalf("shard epochs %d→%d and %d→%d: want shard 0 recaptured, shard 1 reused",
			r.man.Shards[0].Mut, man2.Shards[0].Mut, r.man.Shards[1].Mut, man2.Shards[1].Mut)
	}
}

// TestStreamedRestoreFallsBack damages the newest snapshot's shard file in
// each way a streamed restore must notice — cut short inside the header or
// the words, a flipped bit in either, a byte too many, and intact bytes
// whose manifest entry records another CRC — and requires Restore to fall
// back to the older snapshot every time. Shards of 1 MiB and more restore
// into mapped words, through many chunks.
func TestStreamedRestoreFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(blob []byte) []byte
		crc    bool // corrupt the manifest's CRC instead of the file
	}{
		{name: "cut in header", damage: func(b []byte) []byte { return b[:20] }},
		{name: "cut in words", damage: func(b []byte) []byte { return b[:len(b)/2] }},
		{name: "cut checksum", damage: func(b []byte) []byte { return b[:len(b)-3] }},
		{name: "flip in header", damage: func(b []byte) []byte { b[9] ^= 0x01; return b }},
		{name: "flip in words", damage: func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
		{name: "byte appended", damage: func(b []byte) []byte { return append(b, 0) }},
		{name: "manifest CRC", crc: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewSharded(FilterOptions{ExpectedKeys: 1 << 20, BitsPerKey: 16, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			keys := fillRandom(f, 4_000, 71)
			if _, err := st.Snapshot("users", f); err != nil {
				t.Fatal(err)
			}
			fillRandom(f, 4_000, 72)
			man, err := st.Snapshot("users", f)
			if err != nil {
				t.Fatal(err)
			}
			if man.Shards[1].Bytes < 1<<20 {
				t.Fatalf("shard blob of %d bytes: want 1 MiB or more", man.Shards[1].Bytes)
			}
			if tc.crc {
				man.Shards[1].CRC32C ^= 1
				writeManifest(t, st, &man)
			} else {
				path := filepath.Join(st.filterDir("users"), snapDirName(man.Seq), man.Shards[1].File)
				blob, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, tc.damage(blob), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			g, got, err := st.Restore("users")
			if err != nil {
				t.Fatal(err)
			}
			if got.Seq != man.Seq-1 {
				t.Fatalf("restored seq %d, want the fallback %d", got.Seq, man.Seq-1)
			}
			for _, k := range keys {
				if !g.MayContain(k) {
					t.Fatalf("fallback lost key %#x", k)
				}
			}
		})
	}
}

// TestFollowerBootstrapBitIdentical pins that a follower restoring the
// bootstrap frames through the streamed reader ends with shards whose
// bytes equal the primary's, for shards of 1 MiB and more (mapped words).
func TestFollowerBootstrapBitIdentical(t *testing.T) {
	srv, api, reg := primaryT(t, t.TempDir())
	if code, body := doReq(t, api, "POST", "/v1/filters",
		`{"name":"big","expected_keys":1048576,"shards":2}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	rng := rand.New(rand.NewSource(81))
	keys := make([]uint64, 20_000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	insertHTTP(t, srv, "big", keys[:10_000])
	if code, body := doReq(t, api, "POST", "/v1/filters/big/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, body)
	}
	insertHTTP(t, srv, "big", keys[10_000:])

	freg := NewRegistry()
	fo, err := NewFollower(srv.URL, freg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fo.Run(ctx)
	waitCaughtUp(t, fo, api.cfg.WAL.End())

	primary, err := reg.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	standby, err := freg.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	if standby.LastSnapshot() == nil {
		t.Fatal("the follower did not bootstrap from the snapshot")
	}
	for i := 0; i < primary.NumShards(); i++ {
		want, err := primary.MarshalShard(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := standby.MarshalShard(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < 1<<20 || !bytes.Equal(got, want) {
			t.Fatalf("shard %d: follower has %d bytes, primary %d; want identical blobs of 1 MiB or more", i, len(got), len(want))
		}
	}
}
