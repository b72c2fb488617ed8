// Package obs is the dependency-free observability core shared by the
// serving layer, the WAL, and the bench harness. It provides two
// primitives:
//
//   - Trace: a zero-allocation request-scoped phase tracer. A Trace is a
//     plain value (embeddable in pooled scratch structs) that records how
//     much wall time a request spent in each pipeline phase
//     (decode → admission-wait → shard-dispatch → probe → wal-append →
//     wal-fsync → encode). Phases are marked with Enter; the final
//     Finish closes the open phase and returns the total elapsed time.
//     Every method is allocation-free so the warm binary batch path keeps
//     its zero-alloc guarantee.
//
//   - Hist: a lock-free log-linear histogram over non-negative int64
//     values (nanoseconds, bytes, ...). It is the bucket scheme
//     introduced by the PR 7 latency histograms, generalized: values
//     below 2^MinExp share an underflow bucket, values at or above
//     2^MaxExp share an overflow bucket, and each power-of-two octave in
//     between is split into Sub linear sub-buckets, bounding relative
//     quantization error at 1/Sub (12.5%).
package obs

import "time"

// Phase identifies one stage of the request pipeline.
type Phase uint8

const (
	// PhaseDecode covers reading the request body and decoding the
	// frame (binary) or JSON payload into keys/ranges.
	PhaseDecode Phase = iota
	// PhaseAdmissionWait covers the admission-control gate: with the
	// current CAS semaphore it is accept-or-reject, so the interval is
	// near zero, but a queueing admission policy would surface here.
	PhaseAdmissionWait
	// PhaseShardDispatch covers grouping a key batch by destination
	// shard (counting sort) before any probing happens.
	PhaseShardDispatch
	// PhaseProbe covers filter probe/insert compute across shards,
	// including the goroutine fan-out of a large insert batch.
	PhaseProbe
	// PhaseWALAppend covers encoding the WAL record and waiting for the
	// group-commit writer to stage it (queue wait + write), excluding
	// the fsync portion which is reattributed to PhaseWALFsync.
	PhaseWALAppend
	// PhaseWALFsync is the portion of the WAL append wait spent in
	// fsync, as measured by the WAL writer for the batch the record
	// rode in. It is carved out of PhaseWALAppend via Trace.Shift.
	PhaseWALFsync
	// PhaseEncode covers encoding and writing the response.
	PhaseEncode

	// NumPhases is the number of traced phases.
	NumPhases = int(PhaseEncode) + 1
)

var phaseNames = [NumPhases]string{
	"decode",
	"admission-wait",
	"shard-dispatch",
	"probe",
	"wal-append",
	"wal-fsync",
	"encode",
}

// String returns the stable label used on /metrics and in logs.
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Trace records per-phase wall time for one request. The zero value is
// disarmed: every method is a no-op until Start is called, which lets a
// Trace live inside pooled scratch that is also used by non-traced
// callers. Trace is a value type with no pointers, so embedding it in a
// pooled struct adds no allocation and no GC pressure.
type Trace struct {
	armed bool
	open  bool
	cur   Phase
	start time.Time
	mark  time.Time
	ns    [NumPhases]int64
}

// Start resets and arms the trace. Phase times from a previous use are
// cleared.
func (t *Trace) Start() {
	*t = Trace{armed: true}
	t.start = time.Now()
	t.mark = t.start
}

// Enter closes the currently open phase (if any), attributing the
// elapsed interval to it, and opens phase p. No-op when disarmed.
func (t *Trace) Enter(p Phase) {
	if !t.armed {
		return
	}
	now := time.Now()
	if t.open {
		t.ns[t.cur] += now.Sub(t.mark).Nanoseconds()
	}
	t.cur = p
	t.open = true
	t.mark = now
}

// Leave closes the currently open phase without opening another. Time
// until the next Enter is unattributed. No-op when disarmed or when no
// phase is open.
func (t *Trace) Leave() {
	if !t.armed || !t.open {
		return
	}
	t.ns[t.cur] += time.Since(t.mark).Nanoseconds()
	t.open = false
}

// Shift reattributes up to ns nanoseconds from phase `from` to phase
// `to`, clamping to what `from` has accumulated. It is used to carve the
// fsync portion out of the WAL append wait after the fact: the handler
// observes one opaque append interval, and the WAL writer reports how
// much of it was fsync. The phase in question must be closed (Leave)
// before shifting, or the open interval will not yet be visible here.
func (t *Trace) Shift(from, to Phase, ns int64) {
	if !t.armed || ns <= 0 {
		return
	}
	if ns > t.ns[from] {
		ns = t.ns[from]
	}
	t.ns[from] -= ns
	t.ns[to] += ns
}

// Finish closes the open phase, disarms the trace, and returns the
// total elapsed nanoseconds since Start. The per-phase totals remain
// readable via PhaseNs after Finish. Returns 0 if the trace was never
// armed.
func (t *Trace) Finish() int64 {
	if !t.armed {
		return 0
	}
	now := time.Now()
	if t.open {
		t.ns[t.cur] += now.Sub(t.mark).Nanoseconds()
		t.open = false
	}
	t.armed = false
	return now.Sub(t.start).Nanoseconds()
}

// Disarm turns the trace off without recording anything. Pools call
// this before reusing scratch so a trace abandoned by an error path
// cannot keep accumulating into stale state.
func (t *Trace) Disarm() { t.armed = false; t.open = false }

// Armed reports whether Start has been called without a matching
// Finish/Disarm.
func (t *Trace) Armed() bool { return t.armed }

// PhaseNs returns the nanoseconds attributed to phase p so far.
func (t *Trace) PhaseNs(p Phase) int64 { return t.ns[p] }
