package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/wire"
)

// End-to-end codec benchmarks: the same batch workload pushed through the
// full handler path (ServeHTTP: routing, body decode, shard fan-out, probe,
// response encode) under the JSON codec and the binary wire codec. These
// are the headline numbers of the zero-allocation pipeline, and the
// acceptance bar is binary ≥ 1.5× JSON on point-lookup throughput;
// `bash bench/run.sh` measures the same codecs end to end over a real
// socket. Run with:
//
//	go test ./internal/server -run xxx -bench ServerBatch -benchmem
//
// The benchmark avoids real sockets deliberately: loopback TCP adds a
// constant per-request cost that is identical for both codecs and drowns
// the codec difference in kernel noise, while the question here is how
// much CPU the wire format itself burns per key served.

const wireBenchKeys = 1 << 14

// benchServer builds an API with one preloaded filter and returns the
// query workload (half present, half absent).
func benchServer(b *testing.B, shards int) (*API, []uint64) {
	b.Helper()
	reg := NewRegistry()
	f, err := reg.Create("f", FilterOptions{ExpectedKeys: 1 << 20, BitsPerKey: 16, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	ins := make([]uint64, wireBenchKeys)
	for i := range ins {
		ins[i] = rng.Uint64()
	}
	f.InsertBatch(ins)
	queries := make([]uint64, wireBenchKeys)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = ins[rng.Intn(len(ins))]
		} else {
			queries[i] = rng.Uint64()
		}
	}
	return NewAPI(reg), queries
}

// serveLoop pushes the same prebuilt request body through a.ServeHTTP b.N
// times, replaying the body without per-iteration allocation, and reports
// keys/s.
func serveLoop(b *testing.B, a *API, path, contentType string, payload []byte, perOp int) {
	b.Helper()
	body := &rewindableBody{data: payload}
	req := httptest.NewRequest("POST", path, body)
	req.Header.Set("Content-Type", contentType)
	req.Body = body
	w := &nullResponseWriter{h: make(http.Header)}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.off = 0
		w.n = 0
		a.ServeHTTP(w, req)
		if w.n == 0 {
			b.Fatal("no response written")
		}
	}
	reportKeysPerSecServer(b, perOp)
}

func reportKeysPerSecServer(b *testing.B, perOp int) {
	b.ReportMetric(float64(perOp)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkServerBatchQueryJSON is the end-to-end JSON point-lookup path.
func BenchmarkServerBatchQueryJSON(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(shardLabel(shards), func(b *testing.B) {
			a, queries := benchServer(b, shards)
			body, err := json.Marshal(map[string]any{"keys": queries})
			if err != nil {
				b.Fatal(err)
			}
			serveLoop(b, a, "/v1/filters/f/query", "application/json", body, len(queries))
		})
	}
}

// BenchmarkServerBatchQueryBinary is the same workload through the binary
// wire codec.
func BenchmarkServerBatchQueryBinary(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(shardLabel(shards), func(b *testing.B) {
			a, queries := benchServer(b, shards)
			frame := wire.AppendKeysRequest(nil, wire.OpQuery, queries)
			serveLoop(b, a, "/v1/filters/f/query", wire.ContentType, frame, len(queries))
		})
	}
}

// BenchmarkServerBatchInsertJSON / Binary measure the insert path (no WAL:
// the codec comparison, not the durability cost).
func BenchmarkServerBatchInsertJSON(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(shardLabel(shards), func(b *testing.B) {
			a, keys := benchServer(b, shards)
			body, err := json.Marshal(map[string]any{"keys": keys})
			if err != nil {
				b.Fatal(err)
			}
			serveLoop(b, a, "/v1/filters/f/insert", "application/json", body, len(keys))
		})
	}
}

func BenchmarkServerBatchInsertBinary(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(shardLabel(shards), func(b *testing.B) {
			a, keys := benchServer(b, shards)
			frame := wire.AppendKeysRequest(nil, wire.OpInsert, keys)
			serveLoop(b, a, "/v1/filters/f/insert", wire.ContentType, frame, len(keys))
		})
	}
}

// BenchmarkServerBatchRangeJSON / Binary measure the range-query path over
// 4K mid-size ranges.
func BenchmarkServerBatchRangeJSON(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(shardLabel(shards), func(b *testing.B) {
			a, keys := benchServer(b, shards)
			ranges := benchRanges(keys)
			serveLoop(b, a, "/v1/filters/f/query-range", "application/json", jsonRangesBody(ranges), len(ranges))
		})
	}
}

func BenchmarkServerBatchRangeBinary(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(shardLabel(shards), func(b *testing.B) {
			a, keys := benchServer(b, shards)
			ranges := benchRanges(keys)
			frame := wire.AppendRangesRequest(nil, ranges)
			serveLoop(b, a, "/v1/filters/f/query-range", wire.ContentType, frame, len(ranges))
		})
	}
}

func benchRanges(keys []uint64) [][2]uint64 {
	rng := rand.New(rand.NewSource(100))
	ranges := make([][2]uint64, 1<<12)
	for i := range ranges {
		x := keys[rng.Intn(len(keys))]
		ranges[i] = [2]uint64{x, x + 1<<12}
	}
	return ranges
}

func shardLabel(shards int) string {
	if shards == 1 {
		return "shards=1"
	}
	return "shards=8"
}
