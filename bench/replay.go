package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	bloomrf "repro"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The replay half of a traced server run: the workload's own batches,
// timed through each layer's exported functions in process, with one span
// per call. Where the server's own counters give a layer's share of a
// request, replay gives its cost in isolation.

const (
	replayKeys       = 1 << 21 // point keys pushed through each point measurement
	replayRanges     = 1 << 16 // ranges pushed through each range measurement
	replayWALRecords = 64      // WAL appends timed in the durable workload
)

// stopwatch sums the time of the calls it runs, recording a span for each.
type stopwatch struct {
	tr     *tracer
	parent uint64
	name   string
	total  time.Duration
}

func (w *stopwatch) time(call func()) {
	t0 := time.Now()
	call()
	t1 := time.Now()
	w.total += t1.Sub(t0)
	w.tr.record(w.name, w.parent, 0, t0, t1)
}

// nsPer returns the stopwatch's total in nanoseconds per item.
func (w *stopwatch) nsPer(items int) float64 {
	return ratio(float64(w.total.Nanoseconds()), float64(items))
}

func (s *serverRun) replay(tr *tracer, parent uint64) error {
	L := s.rep.layer
	shards := uint64(s.spec.shards)
	nKeys := max(s.spec.batch, int(replayKeys*s.cfg.scale))
	nRanges := max(s.spec.batch, int(replayRanges*s.cfg.scale))
	pointBatches := nKeys / s.spec.batch
	rangeBatches := nRanges / s.spec.batch
	// Replay indices start past any request the traffic sent.
	const base = 1 << 40
	sw := func(name string) *stopwatch { return &stopwatch{tr: tr, parent: parent, name: name} }

	// One bloomRF shard at the workload's per-shard size and load.
	core := bloomrf.New(s.expected/shards, bitsPerKey)
	load := s.preload / shards
	w := sw("replay.core.insert")
	chunk := make([]uint64, 0, s.spec.batch)
	for i := range load {
		chunk = append(chunk, s.preloadKey(i))
		if len(chunk) == cap(chunk) || i == load-1 {
			w.time(func() { core.InsertBatch(chunk) })
			chunk = chunk[:0]
		}
	}
	L["replay.core.insert_ns_per_key"] = w.nsPer(int(load))

	out := make([]bool, s.spec.batch)
	w = sw("replay.core.query")
	for i := range pointBatches {
		keys := s.pointBatch(base + uint64(i)).keys
		w.time(func() { core.MayContainBatch(keys, out) })
	}
	L["replay.core.query_ns_per_key"] = w.nsPer(pointBatches * s.spec.batch)

	// The batch call and the single-range loop take turns going first, so
	// neither always finds the batch's cache lines warm.
	batch, loop := sw("replay.core.range"), sw("replay.core.range_loop")
	for i := range rangeBatches {
		rs := s.rangeBatch(base + uint64(i)).ranges
		runBatch := func() { batch.time(func() { core.MayContainRangeBatch(rs, out) }) }
		runLoop := func() {
			loop.time(func() {
				for j, r := range rs {
					out[j] = core.MayContainRange(r[0], r[1])
				}
			})
		}
		if i%2 == 0 {
			runBatch()
			runLoop()
		} else {
			runLoop()
			runBatch()
		}
	}
	L["replay.core.range_ns_per_range"] = batch.nsPer(rangeBatches * s.spec.batch)
	L["replay.core.range_loop_ns_per_range"] = loop.nsPer(rangeBatches * s.spec.batch)

	// The whole sharded filter at the workload's shard count.
	sf, err := server.NewSharded(server.FilterOptions{
		ExpectedKeys: s.expected, BitsPerKey: bitsPerKey,
		Shards: s.spec.shards, Partitioning: server.PartitionHash,
	})
	if err != nil {
		return err
	}
	w = sw("replay.shard.insert")
	keys := make([]uint64, 0, loadBatch)
	for i := range s.preload {
		keys = append(keys, s.preloadKey(i))
		if len(keys) == cap(keys) || i == s.preload-1 {
			w.time(func() { sf.InsertBatch(keys) })
			keys = keys[:0]
		}
	}
	L["replay.shard.insert_ns_per_key"] = w.nsPer(int(s.preload))

	w = sw("replay.shard.query")
	for i := range pointBatches {
		keys := s.pointBatch(base + uint64(i)).keys
		w.time(func() { sf.MayContainBatch(keys, out) })
	}
	L["replay.shard.query_ns_per_key"] = w.nsPer(pointBatches * s.spec.batch)

	w = sw("replay.shard.range")
	for i := range rangeBatches {
		rs := s.rangeBatch(base + uint64(i)).ranges
		w.time(func() { sf.MayContainRangeBatch(rs, out) })
	}
	L["replay.shard.range_ns_per_range"] = w.nsPer(rangeBatches * s.spec.batch)

	// The wire codec on the workload's own item type.
	dec, enc := sw("replay.wire.decode"), sw("replay.wire.encode")
	var keyBuf []uint64
	var rangeBuf [][2]uint64
	var resp []byte
	batches := pointBatches
	if s.spec.ranges {
		batches = rangeBatches
	}
	for i := range batches {
		var frame []byte
		if s.spec.ranges {
			frame = wire.AppendRangesRequest(nil, s.rangeBatch(base+uint64(i)).ranges)
		} else {
			frame = wire.AppendKeysRequest(nil, wire.OpQuery, s.pointBatch(base+uint64(i)).keys)
		}
		var derr error
		dec.time(func() {
			h, err := wire.ParseHeader(frame)
			if err == nil && s.spec.ranges {
				rangeBuf, err = wire.DecodeRanges(h, frame[wire.HeaderSize:], rangeBuf)
			} else if err == nil {
				keyBuf, err = wire.DecodeKeys(h, frame[wire.HeaderSize:], keyBuf)
			}
			derr = err
		})
		if derr != nil {
			return derr
		}
		enc.time(func() { resp = wire.AppendResult(resp[:0], out) })
	}
	L["replay.wire.decode_ns_per_key"] = dec.nsPer(batches * s.spec.batch)
	L["replay.wire.encode_ns_per_key"] = enc.nsPer(batches * s.spec.batch)

	w = sw("replay.snapshot.marshal")
	for i := range s.spec.shards {
		var merr error
		w.time(func() { _, merr = sf.MarshalShard(i) })
		if merr != nil {
			return merr
		}
	}
	L["replay.snapshot.marshal_ms"] = float64(w.total.Nanoseconds()) / 1e6

	if s.spec.durable {
		us, err := s.replayWAL(sw("replay.wal.append"))
		if err != nil {
			return err
		}
		L["replay.wal.append_us"] = us
	}
	return nil
}

// replayWAL times sequential appends of records the size of the workload's
// insert records to a fresh log under the workload's fsync policy.
func (s *serverRun) replayWAL(w *stopwatch) (float64, error) {
	dir := filepath.Join(s.cfg.work, s.spec.name, "replay-wal")
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		return 0, err
	}
	// An insert record is a 2-byte name length, the name and 8 bytes per key.
	rec := wal.Record{Type: 2, Data: make([]byte, 2+len(filterName)+8*s.spec.batch)}
	for range replayWALRecords {
		var aerr error
		w.time(func() { _, aerr = l.Append(rec) })
		if aerr != nil {
			l.Close()
			return 0, fmt.Errorf("append: %w", aerr)
		}
	}
	if err := l.Close(); err != nil {
		return 0, err
	}
	return float64(w.total.Nanoseconds()) / 1e3 / replayWALRecords, nil
}
