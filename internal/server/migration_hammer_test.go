package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/wire"
)

// The metamorphic migration hammer (the concurrency half of the split test
// tier): JSON and binary clients insert, point-query and range-query one
// range-partitioned filter while the main goroutine splits its spans over
// and over and snapshots it mid-flight. Two properties are checked:
//
//   - Zero false negatives for acked keys: every key whose insert request
//     got a 200 must answer "maybe" afterwards, through both codecs,
//     however many table swaps its shard lived through.
//   - Answer identity against a never-split control: a second filter with
//     the same options receives exactly the acked keys and never splits.
//     Acked keys must be positive in both; random absent probes may
//     differ only in the direction splitting permits (clone shards are
//     bit supersets of what their narrowed span owns, so the split filter
//     may show extra false positives, never extra negatives) — and the
//     extra-FP headroom is itself bounded to catch a filter that decayed
//     to answering "maybe" for everything.
//
// Run it under -race (the CI e2e job does): the interesting bugs
// here are orderings, not outcomes.

// hammerScale shrinks the workload under the race detector, which
// multiplies both CPU cost and memory per access.
func hammerScale(n int) int {
	if raceEnabled {
		return n / 4
	}
	return n
}

func TestMigrationHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer is not -short")
	}
	dir := t.TempDir()
	api, reg, store, wlog := walAPI(t, dir)
	defer wlog.Close()
	if code, body := doReq(t, api, "POST", "/v1/filters",
		`{"name":"mig","expected_keys":400000,"shards":2,"partitioning":"range"}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	f, err := reg.Get("mig")
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewSharded(FilterOptions{ExpectedKeys: 400_000, Shards: 2, Partitioning: PartitionRange})
	if err != nil {
		t.Fatal(err)
	}

	const targetSplits = 12
	var (
		ackMu sync.Mutex
		acked []uint64
	)
	ackBatch := func(batch []uint64) {
		ackMu.Lock()
		acked = append(acked, batch...)
		ackMu.Unlock()
		control.InsertBatch(batch) // the control sees exactly the acked set
	}
	ackedSnapshot := func() []uint64 {
		ackMu.Lock()
		defer ackMu.Unlock()
		out := make([]uint64, len(acked))
		copy(out, acked)
		return out
	}

	// Workers address a heavily skewed keyspace (clustered low keys) so the
	// splits keep landing where the traffic is.
	keyFor := func(rng *rand.Rand) uint64 {
		u := rng.Float64()
		return uint64(u * u * u * float64(uint64(1)<<50))
	}

	batches := hammerScale(240)
	const batchLen = 32
	var wg sync.WaitGroup
	fail := make(chan string, 16)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// Two JSON + two binary inserters.
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for b := 0; b < batches; b++ {
				batch := make([]uint64, batchLen)
				for i := range batch {
					batch[i] = keyFor(rng)
				}
				if w%2 == 0 {
					body, _ := json.Marshal(map[string]any{"keys": batch})
					req := httptest.NewRequest("POST", "/v1/filters/mig/insert", bytes.NewReader(body))
					rec := httptest.NewRecorder()
					api.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						report("json insert: %d %s", rec.Code, rec.Body.String())
						return
					}
				} else {
					frame := wire.AppendKeysRequest(nil, wire.OpInsert, batch)
					req := httptest.NewRequest("POST", "/v1/filters/mig/insert", bytes.NewReader(frame))
					req.Header.Set("Content-Type", wire.ContentType)
					rec := httptest.NewRecorder()
					api.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						report("binary insert: %d %s", rec.Code, rec.Body.String())
						return
					}
				}
				ackBatch(batch)
			}
		}()
	}

	// One JSON point-query worker, one binary, one JSON range worker: each
	// probes already-acked keys and fails on any false negative mid-flight.
	queryWorkers := []func(stop <-chan struct{}){
		func(stop <-chan struct{}) {
			rng := rand.New(rand.NewSource(2001))
			for {
				select {
				case <-stop:
					return
				default:
				}
				keys := ackedSnapshot()
				if len(keys) == 0 {
					continue
				}
				probe := keys[rng.Intn(len(keys))]
				body, _ := json.Marshal(map[string]any{"key": probe})
				req := httptest.NewRequest("POST", "/v1/filters/mig/query", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					report("json query: %d %s", rec.Code, rec.Body.String())
					return
				}
				var resp struct {
					Result bool `json:"result"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !resp.Result {
					report("acked key %#x answered false mid-migration (json)", probe)
					return
				}
			}
		},
		func(stop <-chan struct{}) {
			rng := rand.New(rand.NewSource(2002))
			for {
				select {
				case <-stop:
					return
				default:
				}
				keys := ackedSnapshot()
				if len(keys) < 8 {
					continue
				}
				probes := make([]uint64, 8)
				for i := range probes {
					probes[i] = keys[rng.Intn(len(keys))]
				}
				frame := wire.AppendKeysRequest(nil, wire.OpQuery, probes)
				req := httptest.NewRequest("POST", "/v1/filters/mig/query", bytes.NewReader(frame))
				req.Header.Set("Content-Type", wire.ContentType)
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					report("binary query: %d %s", rec.Code, rec.Body.String())
					return
				}
				h, err := wire.ParseHeader(rec.Body.Bytes())
				if err != nil {
					report("binary query response: %v", err)
					return
				}
				out, err := wire.DecodeResult(h, rec.Body.Bytes()[wire.HeaderSize:], nil)
				if err != nil {
					report("binary query decode: %v", err)
					return
				}
				for i, ok := range out {
					if !ok {
						report("acked key %#x answered false mid-migration (binary)", probes[i])
						return
					}
				}
			}
		},
		func(stop <-chan struct{}) {
			rng := rand.New(rand.NewSource(2003))
			for {
				select {
				case <-stop:
					return
				default:
				}
				keys := ackedSnapshot()
				if len(keys) == 0 {
					continue
				}
				probe := keys[rng.Intn(len(keys))]
				body, _ := json.Marshal(map[string]any{"lo": json.Number(fmt.Sprint(probe)), "hi": json.Number(fmt.Sprint(probe))})
				req := httptest.NewRequest("POST", "/v1/filters/mig/query-range", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					report("range query: %d %s", rec.Code, rec.Body.String())
					return
				}
				var resp struct {
					Result bool `json:"result"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !resp.Result {
					report("acked key %#x answered false to [k,k] mid-migration", probe)
					return
				}
			}
		},
	}
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for _, worker := range queryWorkers {
		worker := worker
		qwg.Add(1)
		go func() { defer qwg.Done(); worker(stop) }()
	}

	// The migration itself: split live until the target count is reached,
	// snapshotting mid-flight every few splits (snapshot and split serialize
	// on splitMu — the capture must never interleave a swap).
	splits := 0
	for splits < targetSplits {
		select {
		case msg := <-fail:
			close(stop)
			t.Fatal(msg)
		default:
		}
		if _, err := api.performSplit("mig", f, SplitAuto); err != nil {
			close(stop)
			t.Fatalf("split %d failed mid-hammer: %v", splits, err)
		}
		splits++
		if splits%4 == 0 {
			if _, err := store.Snapshot("mig", f); err != nil {
				close(stop)
				t.Fatalf("snapshot during migration: %v", err)
			}
		}
	}
	wg.Wait() // inserters drain
	close(stop)
	qwg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	if got := f.Splits(); got < targetSplits {
		t.Fatalf("only %d splits completed, want ≥ %d", got, targetSplits)
	}
	final := ackedSnapshot()
	if len(final) == 0 {
		t.Fatal("no batches were acked")
	}

	// Zero false negatives, both filters, point and range.
	out := make([]bool, len(final))
	f.MayContainBatch(final, out)
	for i, ok := range out {
		if !ok {
			t.Fatalf("acked key %#x negative after %d splits", final[i], f.Splits())
		}
	}
	control.MayContainBatch(final, out)
	for i, ok := range out {
		if !ok {
			t.Fatalf("acked key %#x negative in the never-split control", final[i])
		}
	}
	for _, k := range final[:hammerScale(2000)] {
		if !f.MayContainRange(k, k) {
			t.Fatalf("acked key %#x negative for range probes after splitting", k)
		}
	}

	// Metamorphic relation on absent keys: splitting may only add false
	// positives relative to the control (clones are supersets), and not
	// many — the filter must not have decayed toward always-maybe.
	rng := rand.New(rand.NewSource(3001))
	absents := make([]uint64, 20_000)
	for i := range absents {
		absents[i] = (uint64(1) << 51) + rng.Uint64()%(uint64(1)<<50) // outside the insert cluster
	}
	fOut := make([]bool, len(absents))
	cOut := make([]bool, len(absents))
	f.MayContainBatch(absents, fOut)
	control.MayContainBatch(absents, cOut)
	extra := 0
	for i := range absents {
		if cOut[i] && !fOut[i] {
			t.Fatalf("split filter answered false where the control answered true for %#x — split shards must be supersets", absents[i])
		}
		if fOut[i] && !cOut[i] {
			extra++
		}
	}
	if frac := float64(extra) / float64(len(absents)); frac > 0.05 {
		t.Fatalf("splitting added %.1f%% extra false positives, want < 5%%", frac*100)
	}

	// The final topology is sane and the WAL-journaled splits recover.
	st := f.Stats()
	if st.Spans == nil || len(st.Spans) != st.Shards {
		t.Fatalf("final topology inconsistent: %d spans for %d shards", len(st.Spans), st.Shards)
	}
	wlog2 := openWALT(t, filepath.Join(dir, "wal"))
	defer wlog2.Close()
	store2, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	store2.SetWALSource(wlog2)
	reg2 := NewRegistry()
	if _, err := Recover(store2, wlog2, reg2, nil); err != nil {
		t.Fatalf("recovery after the hammer: %v", err)
	}
	g, err := reg2.Get("mig")
	if err != nil {
		t.Fatal(err)
	}
	g.MayContainBatch(final, out)
	for i, ok := range out {
		if !ok {
			t.Fatalf("acked key %#x lost across post-hammer recovery", final[i])
		}
	}
}
