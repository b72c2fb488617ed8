package lsm

import (
	"sync/atomic"
	"time"
)

// IOStats accumulates the cost components of the Fig. 12.G probe breakdown:
// filter probe time, filter-block deserialization time, (simulated) I/O
// wait, block reads and filter verdicts. All counters are atomic; one
// IOStats instance is shared by a DB and its tables.
//
// The counts are exact. The probe time is an estimate: the first op that
// probes the filters, and every 2^probeSampleShift-th after it, reads the
// clock. The first of those TimedOps adds its probe time to
// FilterProbeNanos once, each later one 2^probeSampleShift times.
type IOStats struct {
	BlockReads       atomic.Uint64
	BytesRead        atomic.Uint64
	FilterProbes     atomic.Uint64
	FilterNegatives  atomic.Uint64
	FilterProbeNanos atomic.Uint64 // estimated: TimedOps' probe time, scaled
	TimedOps         atomic.Uint64
	DeserNanos       atomic.Uint64
	IOWaitNanos      atomic.Uint64 // simulated: BlockReads × SimulatedReadLatency
}

// probeSampleShift is k of the probe clock's sampling: one op in 2^k is
// timed.
const probeSampleShift = 6

// addProbes records one op's filter probes: how many and how many answered
// no, and, for a timed op (weight > 0, from DB.timeOp), the time they took
// together, counted weight times.
func (s *IOStats) addProbes(probes, negatives, weight uint64, d time.Duration) {
	s.FilterProbes.Add(probes)
	s.FilterNegatives.Add(negatives)
	if weight != 0 {
		s.TimedOps.Add(1)
		s.FilterProbeNanos.Add(uint64(d) * weight)
	}
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	BlockReads      uint64
	BytesRead       uint64
	FilterProbes    uint64
	FilterNegatives uint64
	FilterProbeTime time.Duration // estimated from TimedOps ops
	TimedOps        uint64
	DeserTime       time.Duration
	IOWaitTime      time.Duration
}

// Snapshot copies the counters.
func (s *IOStats) Snapshot() Snapshot {
	return Snapshot{
		BlockReads:      s.BlockReads.Load(),
		BytesRead:       s.BytesRead.Load(),
		FilterProbes:    s.FilterProbes.Load(),
		FilterNegatives: s.FilterNegatives.Load(),
		FilterProbeTime: time.Duration(s.FilterProbeNanos.Load()),
		TimedOps:        s.TimedOps.Load(),
		DeserTime:       time.Duration(s.DeserNanos.Load()),
		IOWaitTime:      time.Duration(s.IOWaitNanos.Load()),
	}
}

// Sub returns the difference a − b, for interval measurements.
func (a Snapshot) Sub(b Snapshot) Snapshot {
	return Snapshot{
		BlockReads:      a.BlockReads - b.BlockReads,
		BytesRead:       a.BytesRead - b.BytesRead,
		FilterProbes:    a.FilterProbes - b.FilterProbes,
		FilterNegatives: a.FilterNegatives - b.FilterNegatives,
		FilterProbeTime: a.FilterProbeTime - b.FilterProbeTime,
		TimedOps:        a.TimedOps - b.TimedOps,
		DeserTime:       a.DeserTime - b.DeserTime,
		IOWaitTime:      a.IOWaitTime - b.IOWaitTime,
	}
}
