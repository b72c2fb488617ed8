package server

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// Lifetime tests for filter words mapped outside the Go heap: a mapping is
// released by the collector once its filter is unreachable, so a shard
// that a split retired, or a filter that DELETE removed, must keep
// answering the requests that still hold it, under any number of
// collections.

// settledMappedBytes collects until core.MappedBytes stops moving, so that
// mappings dropped by earlier tests are released before a test measures
// its own.
func settledMappedBytes() int64 {
	prev := core.MappedBytes()
	for i := 0; i < 50; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		cur := core.MappedBytes()
		if i >= 2 && cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// waitMappedBytes collects until core.MappedBytes equals want.
func waitMappedBytes(t *testing.T, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for core.MappedBytes() != want {
		if time.Now().After(deadline) {
			t.Fatalf("mapped bytes %d, want %d: %s", core.MappedBytes(), want, what)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// background calls fn on its own goroutine, over and over, until fn
// returns false or the test ends.
func background(t *testing.T, fn func() bool) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if !fn() {
				return
			}
		}
	}()
	t.Cleanup(func() { close(done); wg.Wait() })
}

// waitCount waits until c reaches n.
func waitCount(t *testing.T, c *atomic.Int64, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for c.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("count %d after 30 s, want %d", c.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSplitRetiredShardUnderGC splits a mapped shard while readers keep
// querying its acknowledged keys and another goroutine forces collections:
// every key answers true before, during and after the swap, and the retired
// shard's mapping is released once nothing holds it.
func TestSplitRetiredShardUnderGC(t *testing.T) {
	start := settledMappedBytes()
	f, err := NewSharded(FilterOptions{ExpectedKeys: 1 << 21, Shards: 2, Partitioning: PartitionRange})
	if err != nil {
		t.Fatal(err)
	}
	perShard := (core.MappedBytes() - start) / 2
	if perShard == 0 {
		t.Skip("filter words are not mapped on this platform")
	}
	spans := spanBounds(t, f)
	keys := clusteredKeys(2048, spans[1], ^uint64(0), 29)
	f.InsertBatch(keys)

	background(t, func() bool { runtime.GC(); return true })
	var passes atomic.Int64
	for r := 0; r < 2; r++ {
		out := make([]bool, len(keys))
		background(t, func() bool {
			f.MayContainBatch(keys, out)
			for i, ok := range out {
				if !ok || !f.MayContain(keys[i]) {
					t.Errorf("acknowledged key %#x answered false", keys[i])
					return false
				}
			}
			passes.Add(1)
			return true
		})
	}
	waitCount(t, &passes, 2)
	res, err := f.Split("t", SplitAuto, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shard != 1 {
		t.Fatalf("split shard %d, want the loaded one (1)", res.Shard)
	}
	waitCount(t, &passes, passes.Load()+4)

	// Two replacements of the retired shard's size; the retired one is gone.
	waitMappedBytes(t, start+3*perShard, "the retired shard was never unmapped")
}

// TestDeleteRacesBatchQueries deletes a mapped filter while binary batch
// queries are in flight and collections are forced: every query answers
// 200 with every key present, or 404 once the filter is gone, nothing
// faults, and the filter's mappings are released.
func TestDeleteRacesBatchQueries(t *testing.T) {
	start := settledMappedBytes()
	a := NewAPI(NewRegistry())
	if rec := doBinReq(t, a, "POST", "/v1/filters", "application/json",
		[]byte(`{"name":"f","expected_keys":2097152,"shards":2}`)); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if core.MappedBytes() == start {
		t.Skip("filter words are not mapped on this platform")
	}
	keys := clusteredKeys(1024, 0, ^uint64(0), 31)
	if rec := doBinReq(t, a, "POST", "/v1/filters/f/insert", wire.ContentType,
		wire.AppendKeysRequest(nil, wire.OpInsert, keys)); rec.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body)
	}

	background(t, func() bool { runtime.GC(); return true })
	frame := wire.AppendKeysRequest(nil, wire.OpQuery, keys)
	var served atomic.Int64
	for q := 0; q < 4; q++ {
		background(t, func() bool {
			rec := doBinReq(t, a, "POST", "/v1/filters/f/query", wire.ContentType, frame)
			switch rec.Code {
			case http.StatusOK:
			case http.StatusNotFound:
				return false
			default:
				t.Errorf("query: %d %s", rec.Code, rec.Body)
				return false
			}
			h, err := wire.ParseHeader(rec.Body.Bytes())
			if err != nil {
				t.Errorf("response header: %v", err)
				return false
			}
			out, err := wire.DecodeResult(h, rec.Body.Bytes()[wire.HeaderSize:], nil)
			if err != nil || len(out) != len(keys) {
				t.Errorf("response payload: %d verdicts, %v", len(out), err)
				return false
			}
			for i, ok := range out {
				if !ok {
					t.Errorf("acknowledged key %#x answered false", keys[i])
					return false
				}
			}
			served.Add(1)
			return true
		})
	}
	waitCount(t, &served, 4)
	if rec := doBinReq(t, a, "DELETE", "/v1/filters/f", "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}
	waitMappedBytes(t, start, "the deleted filter was never unmapped")
}
