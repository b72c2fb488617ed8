package lsm

import (
	"sync/atomic"
	"time"
)

// IOStats accumulates the cost components of the Fig. 12.G probe breakdown:
// filter probe time, filter-block deserialization time, (simulated) I/O
// wait, block reads and filter verdicts. All counters are atomic; one
// IOStats instance is shared by a DB and its tables.
type IOStats struct {
	BlockReads       atomic.Uint64
	BytesRead        atomic.Uint64
	FilterProbes     atomic.Uint64
	FilterNegatives  atomic.Uint64
	FilterProbeNanos atomic.Uint64
	DeserNanos       atomic.Uint64
	IOWaitNanos      atomic.Uint64 // simulated: BlockReads × SimulatedReadLatency
}

// addProbes records one op's filter probes: how many, how many answered
// no, and the time they took together.
func (s *IOStats) addProbes(probes, negatives uint64, d time.Duration) {
	s.FilterProbes.Add(probes)
	s.FilterNegatives.Add(negatives)
	s.FilterProbeNanos.Add(uint64(d))
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	BlockReads      uint64
	BytesRead       uint64
	FilterProbes    uint64
	FilterNegatives uint64
	FilterProbeTime time.Duration
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
		DeserTime:       a.DeserTime - b.DeserTime,
		IOWaitTime:      a.IOWaitTime - b.IOWaitTime,
	}
}
