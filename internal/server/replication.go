package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Streaming replication: a warm standby follows the primary's WAL.
//
// The primary serves GET /v1/replication/stream?from=<pos> as an unbounded
// framed byte stream. When <pos> is still retained in the primary's WAL,
// the stream is simply every WAL record from <pos>, live-tailed (the
// connection stays open and new group commits flow as they happen, with
// heartbeats while idle). When <pos> has been truncated away — or the
// follower is brand new (<pos> = 0 with history already truncated, or
// filters that predate the WAL) — the primary first sends a snapshot
// bootstrap: each filter's newest on-disk snapshot (manifest + verified
// shard blobs), then a bootstrap-done frame carrying the position the
// record tail resumes from. The follower applies records with the same
// snapshot-coverage skip rule boot recovery uses (durability.go), so
// primary and standby interpret the log identically.
//
// Frame format (all integers little-endian):
//
//	offset  0  pos     uint64 — WAL position for record frames; frame-type
//	                            specific for control frames (see below)
//	offset  8  crc32c  uint32 — over the type byte and payload
//	offset 12  length  uint32 — payload length
//	offset 16  type    uint8
//	offset 17  payload
//
// Record frames reuse the WAL record types (< 128, durability.go) with
// the record payload verbatim; control frames use the 128+ space:
//
//	frameSnapBegin      payload = manifest JSON; pos = 0
//	frameSnapShard      payload = raw shard blob; pos = shard index
//	frameBootstrapDone  payload empty; pos = position the tail starts at
//	frameHeartbeat      payload empty; pos = primary log end (lag anchor)
//	frameEpoch          payload empty; pos = the primary's promotion epoch.
//	                    Sent first on every stream, before any data: the
//	                    follower learns which era the positions that follow
//	                    belong to, steps down (or refuses) on a higher
//	                    epoch, and rejects a demoted primary's lower one
//	                    (failover.go).

const (
	frameSnapBegin     byte = 128
	frameSnapShard     byte = 129
	frameBootstrapDone byte = 130
	frameHeartbeat     byte = 131
	frameEpoch         byte = 132
)

// frameHeaderSize is the fixed frame header length.
const frameHeaderSize = 17

// heartbeatEvery is how often an idle stream emits a heartbeat frame; it
// bounds both the follower's lag-detection latency and how long a dead
// connection can go unnoticed.
const heartbeatEvery = 500 * time.Millisecond

// CheckHeartbeatTimeout refuses a heartbeat-loss window that a healthy
// idle primary cannot satisfy: with d at or below heartbeatEvery, the gap
// between two heartbeats alone would report primary_unreachable, and under
// auto-promote a caught-up standby would be promoted over a live primary.
// 0 (detection disabled) is accepted.
func CheckHeartbeatTimeout(d time.Duration) error {
	if d > 0 && d <= heartbeatEvery {
		return fmt.Errorf("%s must exceed the %s idle-heartbeat interval (or be 0 to disable detection)", d, heartbeatEvery)
	}
	return nil
}

// flushEvery bounds how many frames a catching-up stream buffers before
// forcing them onto the wire.
const flushEvery = 256

// frameWriter encodes frames onto a stream.
type frameWriter struct {
	w   io.Writer
	hdr [frameHeaderSize]byte
}

func (fw *frameWriter) write(typ byte, pos uint64, payload []byte) error {
	binary.LittleEndian.PutUint64(fw.hdr[0:8], pos)
	crc := crc32.Update(0, castagnoli, []byte{typ})
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(fw.hdr[8:12], crc)
	binary.LittleEndian.PutUint32(fw.hdr[12:16], uint32(len(payload)))
	fw.hdr[16] = typ
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	return err
}

// frameReader decodes frames from a stream.
type frameReader struct {
	r   *bufio.Reader
	hdr [frameHeaderSize]byte
	buf []byte
}

// next reads one frame. A shard frame may carry up to shardLimit bytes,
// its manifest entry's size, so a shard over wal.MaxRecordBytes, the bound
// of every other frame, still bootstraps.
func (fr *frameReader) next(shardLimit int64) (pos uint64, typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	pos = binary.LittleEndian.Uint64(fr.hdr[0:8])
	crc := binary.LittleEndian.Uint32(fr.hdr[8:12])
	n := int64(binary.LittleEndian.Uint32(fr.hdr[12:16]))
	typ = fr.hdr[16]
	limit := int64(wal.MaxRecordBytes)
	if typ == frameSnapShard {
		limit = shardLimit
	}
	if n > limit {
		return 0, 0, nil, fmt.Errorf("server: replication frame of %d bytes exceeds its %d-byte limit", n, limit)
	}
	payload = fr.buf
	if int64(cap(payload)) < n {
		payload = make([]byte, n)
		if n <= wal.MaxRecordBytes {
			fr.buf = payload // a larger shard buffer is not kept past its frame
		}
	}
	payload = payload[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, 0, nil, err
	}
	got := crc32.Update(0, castagnoli, []byte{typ})
	got = crc32.Update(got, castagnoli, payload)
	if got != crc {
		return 0, 0, nil, fmt.Errorf("server: replication frame checksum mismatch at pos %d", pos)
	}
	return pos, typ, payload, nil
}

// handleReplicationStream serves the primary side of replication. When an
// auth token is configured the stream demands it like the mutating
// endpoints do: the stream hands out every key ever inserted plus whole
// snapshot blobs, which is strictly more than any single mutation
// exposes. (PR 4 shipped it open — the ROADMAP follow-up this closes.)
func (a *API) handleReplicationStream(w http.ResponseWriter, r *http.Request) {
	if !a.authorized(r) {
		denyUnauthorized(w, "the replication stream")
		return
	}
	if a.fenced.Load() {
		a.fencingRejections.Add(1)
		writeErr(w, http.StatusConflict,
			"fencing: this server was demoted (a primary with a higher epoch exists); stream from the new primary")
		return
	}
	l := a.wal()
	if l == nil {
		writeErr(w, http.StatusBadRequest, "replication requires a write-ahead log (start bloomrfd with -data-dir)")
		return
	}
	from := uint64(0)
	if s := r.URL.Query().Get("from"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "from %q is not an unsigned 64-bit position", s)
			return
		}
		from = v
	}
	mine := a.epochValue()
	if s := r.URL.Query().Get("epoch"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "epoch %q is not an unsigned 64-bit integer", s)
			return
		}
		switch {
		case v > mine:
			// The follower served at (or observed) a higher epoch than we
			// ever did: we are the demoted primary of a completed failover.
			// Fence permanently — this is how a restarted old primary that
			// is re-pointed at (or dialed by) the new world learns its fate.
			a.fence(fmt.Sprintf("stream handshake carried epoch %d, ours is %d", v, mine))
			a.fencingRejections.Add(1)
			writeErr(w, http.StatusConflict,
				"fencing: follower at epoch %d supersedes this primary (epoch %d)", v, mine)
			return
		case v != 0 && v < mine:
			// A follower from an older epoch: its positions name bytes in a
			// log that no longer exists. Force a snapshot bootstrap.
			from = 0
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	ctx := r.Context()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	fw := &frameWriter{w: w}

	// Announce the epoch before anything else: every position that follows
	// is only meaningful within it.
	if err := fw.write(frameEpoch, mine, nil); err != nil {
		return
	}
	// Lead with a heartbeat carrying the current log end: the follower's
	// lag gauge is honest from the first frame, instead of reading zero
	// until the catch-up completes.
	if err := fw.write(frameHeartbeat, l.End(), nil); err != nil {
		return
	}

	tail := from
	if from == 0 || from < l.OldestPos() || from > l.End() {
		// The follower's position precedes the retained log, it has no
		// position at all, or it claims a position this log never reached
		// (a primary whose WAL was replaced — the follower must resync,
		// not flap forever): bootstrap it from the on-disk snapshots, then
		// resume the record tail at the oldest retained position. Filters
		// with no snapshot are fine — truncation never outruns a live
		// filter's snapshot coverage, so their create records are still in
		// the retained tail.
		//
		// The tail position is captured BEFORE reading any snapshot: the
		// streamed manifests' wal_pos can only be >= the oldest position
		// at capture time (truncation keeps oldest <= every live filter's
		// coverage), so tail <= every wal_pos and no record between a
		// snapshot and the tail start can be skipped. If truncation races
		// past the captured tail, ReadFrom below fails and the follower
		// reconnects into a fresh bootstrap — a retry, never a gap.
		tail = l.OldestPos()
		if a.store != nil {
			for _, name := range a.reg.Names() {
				man, blobs, err := a.store.ReadSnapshot(name)
				if err != nil {
					continue
				}
				body, err := json.Marshal(man)
				if err != nil {
					a.cfg.Logf("server: replication: encoding manifest of %q: %v", name, err)
					return
				}
				if err := fw.write(frameSnapBegin, 0, body); err != nil {
					return
				}
				for i, blob := range blobs {
					if len(blob) > math.MaxUint32 {
						a.cfg.Logf("server: replication: err=%q filter=%q shard=%d bytes=%d",
							"shard blob exceeds the 32-bit frame length; ending stream", name, i, len(blob))
						return
					}
					if err := fw.write(frameSnapShard, uint64(i), blob); err != nil {
						return
					}
				}
			}
		}
		if err := fw.write(frameBootstrapDone, tail, nil); err != nil {
			return
		}
	}
	rd, err := l.ReadFrom(tail)
	if err != nil {
		// Truncation raced the position check; the follower reconnects and
		// lands in the bootstrap branch.
		a.cfg.Logf("server: replication: opening log at %d: %v", tail, err)
		return
	}
	defer rd.Close()
	flusher.Flush()
	frames := 0
	for {
		pos, rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			// A fenced ex-primary stops serving even streams that were open
			// when the fencing landed: the follower reconnects and gets the
			// 409 above. Checked at the idle point so a caught-up stream
			// notices within a heartbeat interval.
			if a.fenced.Load() {
				a.cfg.Logf("server: replication: dropping stream (fenced)")
				return
			}
			if ferr := faults.Do("replication.stream.drop"); ferr != nil {
				a.cfg.Logf("server: replication: dropping stream (injected): %v", ferr)
				return
			}
			// Caught up: surface the current end as a heartbeat (the
			// follower's lag anchor), then block for more data or the
			// heartbeat timer, whichever first.
			if err := fw.write(frameHeartbeat, l.End(), nil); err != nil {
				return
			}
			flusher.Flush()
			frames = 0
			waitCtx, cancel := context.WithTimeout(ctx, heartbeatEvery)
			werr := l.WaitFor(waitCtx, rd.Pos())
			cancel()
			if ctx.Err() != nil || errors.Is(werr, wal.ErrClosed) {
				return
			}
			continue
		}
		if err != nil {
			a.cfg.Logf("server: replication: reading log at %d: %v", rd.Pos(), err)
			return
		}
		if err := fw.write(rec.Type, pos, rec.Data); err != nil {
			return
		}
		if frames++; frames >= flushEvery {
			flusher.Flush()
			frames = 0
		}
	}
}

// handleReplicationStatus reports which replication role this server plays
// right now — roles change at runtime (promotion, fencing, degradation),
// so this reads the live state, not the boot configuration.
func (a *API) handleReplicationStatus(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"role":  a.role(),
		"epoch": a.epochValue(),
	}
	if a.fenced.Load() {
		resp["fenced"] = true
	}
	if a.walFailed.Load() {
		resp["degraded"] = "wal-append"
	}
	if a.cfg.Replication != nil && a.following.Load() {
		resp["replication"] = a.cfg.Replication()
	}
	if l := a.wal(); l != nil {
		st := l.Stats()
		resp["wal"] = map[string]any{
			"end_pos": st.End, "durable_pos": st.Durable,
			"oldest_pos": st.Oldest, "segments": st.Segments,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ReplicationStatus is a follower's view of its stream, surfaced through
// /metrics and GET /v1/replication/status.
type ReplicationStatus struct {
	// Primary is the followed server's base URL.
	Primary string `json:"primary"`
	// Connected reports whether a stream is currently open.
	Connected bool `json:"connected"`
	// AppliedPos is the WAL position the follower has applied through.
	AppliedPos uint64 `json:"applied_pos"`
	// PrimaryPos is the primary's log end as of the last record or
	// heartbeat frame.
	PrimaryPos uint64 `json:"primary_pos"`
	// LagBytes is PrimaryPos - AppliedPos: how far the standby trails, in
	// WAL bytes (0 when caught up).
	LagBytes uint64 `json:"lag_bytes"`
	// LastFrameUnixNano is when the last frame of any kind arrived.
	LastFrameUnixNano int64 `json:"last_frame_unix_nano"`
	// Reconnects counts re-dials after a stream break (0 while the first
	// connection holds).
	Reconnects uint64 `json:"reconnects"`
	// Epoch is the promotion epoch the stream announced (0 until the first
	// frameEpoch arrives).
	Epoch uint64 `json:"epoch"`
	// PrimaryUnreachable reports heartbeat loss: no frame (heartbeats
	// included) within the configured timeout. Always false when no
	// timeout is armed.
	PrimaryUnreachable bool `json:"primary_unreachable"`
	// BackoffSeconds is the reconnect delay the follower will wait (or is
	// waiting) before its next dial; 0 while connected.
	BackoffSeconds float64 `json:"backoff_seconds"`
	// ConsecutiveFailures counts stream attempts since the last successful
	// connection; 0 while connected.
	ConsecutiveFailures uint64 `json:"consecutive_failures"`
}

// Follower tails a primary's replication stream into a local registry,
// turning this process into a read-only warm standby: it bootstraps from
// the primary's snapshots when needed, applies the record tail as it
// streams, and reconnects (resuming from its applied position) when the
// connection drops. Run owns the registry's contents; the API in front of
// it must be ReadOnly.
type Follower struct {
	primary string
	reg     *Registry
	client  *http.Client
	logf    func(format string, args ...any)
	token   string // bearer credential for a token-gated primary stream

	// hbTimeout arms heartbeat-loss detection (WithHeartbeatTimeout); 0
	// means Status never reports PrimaryUnreachable. stepDown picks the
	// reaction to a higher-epoch primary: adopt it and resync (true, the
	// default) or stop with a terminal error (false). started anchors
	// unreachability before the first frame ever arrives.
	hbTimeout time.Duration
	stepDown  bool
	started   time.Time

	applied    atomic.Uint64
	primaryPos atomic.Uint64
	connected  atomic.Bool
	lastFrame  atomic.Int64
	reconnects atomic.Uint64
	epoch      atomic.Uint64

	backoffNanos atomic.Int64  // current reconnect delay; 0 while connected
	failStreak   atomic.Uint64 // attempts since the last successful connect
	running      atomic.Bool   // Run was started (Stop only waits if so)

	termMu  sync.Mutex
	termErr error // set when the follower stopped for a terminal reason

	stopOnce sync.Once
	stop     chan struct{} // closed by Stop; Run exits at the next check
	done     chan struct{} // closed when Run returns

	// lagHist samples PrimaryPos - AppliedPos (bytes) at every applied
	// record, so a lag spike that builds and drains entirely between two
	// /metrics scrapes still shows up in the histogram — the
	// instantaneous LagBytes gauge would read 0 at both scrapes.
	lagHist obs.Hist

	// restoredPos is the snapshot-coverage skip map from the latest
	// bootstrap; only the Run goroutine touches it.
	restoredPos map[string]uint64
}

// NewFollower builds a follower of the bloomrfd primary at primaryURL
// (scheme://host:port, no trailing slash needed). Call Run to start it.
func NewFollower(primaryURL string, reg *Registry, logf func(format string, args ...any)) (*Follower, error) {
	u, err := url.Parse(primaryURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("server: follow URL %q must be scheme://host[:port]", primaryURL)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Follower{
		primary:     u.Scheme + "://" + u.Host,
		reg:         reg,
		client:      &http.Client{}, // no overall timeout: the stream is unbounded
		logf:        logf,
		restoredPos: make(map[string]uint64),
		stepDown:    true,
		started:     time.Now(),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}, nil
}

// WithAuthToken sets the bearer token the follower presents on the
// primary's stream endpoint (which demands one whenever the primary runs
// with -auth-token). It returns fo for chaining; call before Run.
func (fo *Follower) WithAuthToken(token string) *Follower {
	fo.token = token
	return fo
}

// WithHeartbeatTimeout arms heartbeat-loss detection: when no frame has
// arrived within d, Status reports PrimaryUnreachable. <= 0 disables.
// Returns fo for chaining; call before Run.
func (fo *Follower) WithHeartbeatTimeout(d time.Duration) *Follower {
	fo.hbTimeout = d
	return fo
}

// WithStepDown picks the reaction to a primary announcing a higher epoch:
// true (the default) adopts it and resyncs from a bootstrap; false stops
// the follower with a terminal error, for operators who want a superseded
// node inspected before it rejoins. Call before Run.
func (fo *Follower) WithStepDown(b bool) *Follower {
	fo.stepDown = b
	return fo
}

// WithEpoch seeds the epoch the follower announces in its handshake before
// the stream has taught it one — the recovered epoch of a restarted node
// (RecoverEpoch), so a demoted primary rejoining as a follower fences its
// stale peer instead of being bootstrapped by it. Call before Run.
func (fo *Follower) WithEpoch(e uint64) *Follower {
	fo.epoch.Store(e)
	return fo
}

// Epoch returns the highest promotion epoch the follower has seen.
func (fo *Follower) Epoch() uint64 { return fo.epoch.Load() }

// TerminalErr returns the error that permanently stopped the follower, or
// nil. Run returns without one only on context cancellation or Stop.
func (fo *Follower) TerminalErr() error {
	fo.termMu.Lock()
	defer fo.termMu.Unlock()
	return fo.termErr
}

// setTerminal records a terminal error and returns it.
func (fo *Follower) setTerminal(err error) error {
	fo.termMu.Lock()
	fo.termErr = err
	fo.termMu.Unlock()
	return err
}

// Stop ends Run from outside its context and waits for it to return; the
// promotion path calls it so no stream frame mutates the registry after
// the takeover decision. Safe to call more than once; when Run was never
// started it only marks the stop (a later Run returns immediately).
func (fo *Follower) Stop() {
	fo.stopOnce.Do(func() { close(fo.stop) })
	if !fo.running.Load() {
		return
	}
	select {
	case <-fo.done:
	case <-time.After(10 * time.Second):
		fo.logf("bloomrfd: replication: follower did not stop within 10s")
	}
}

// stopped reports whether Stop was called.
func (fo *Follower) stopped() bool {
	select {
	case <-fo.stop:
		return true
	default:
		return false
	}
}

// Status returns the follower's current replication state. Unreachability
// is computed lazily against the last frame time (or the follower's start,
// before any frame arrived), so a stalled-but-connected stream — a
// partition the TCP stack has not noticed — trips it too.
func (fo *Follower) Status() ReplicationStatus {
	applied, end := fo.applied.Load(), fo.primaryPos.Load()
	var lag uint64
	if end > applied {
		lag = end - applied
	}
	unreachable := false
	if fo.hbTimeout > 0 {
		last := fo.lastFrame.Load()
		if last == 0 {
			last = fo.started.UnixNano()
		}
		unreachable = time.Since(time.Unix(0, last)) > fo.hbTimeout
	}
	return ReplicationStatus{
		Primary:             fo.primary,
		Connected:           fo.connected.Load(),
		AppliedPos:          applied,
		PrimaryPos:          end,
		LagBytes:            lag,
		LastFrameUnixNano:   fo.lastFrame.Load(),
		Reconnects:          fo.reconnects.Load(),
		Epoch:               fo.epoch.Load(),
		PrimaryUnreachable:  unreachable,
		BackoffSeconds:      time.Duration(fo.backoffNanos.Load()).Seconds(),
		ConsecutiveFailures: fo.failStreak.Load(),
	}
}

// LagSnapshot returns the per-record lag histogram (bytes). Wire it to
// Config.ReplicationLag so /metrics exports it as
// bloomrfd_replication_record_lag_bytes.
func (fo *Follower) LagSnapshot() obs.HistSnapshot { return fo.lagHist.Read() }

// Reconnect pacing: jittered exponential backoff. A fixed delay makes a
// fleet of followers stampede a recovering primary in lockstep; the jitter
// (a uniform 50–100% of the current backoff) decorrelates them and the
// exponential growth keeps a long outage from burning dials.
const (
	reconnectBase = 200 * time.Millisecond
	reconnectMax  = 5 * time.Second
)

// jitterBackoff returns a uniform duration in [d/2, d].
func jitterBackoff(d time.Duration) time.Duration {
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// errEpochSuperseded marks a stream rejected because the primary serves a
// higher epoch than this follower and step-down is disabled.
var errEpochSuperseded = errors.New("superseded by a higher epoch")

// errEpochResync marks a stream ended on purpose to re-dial from position
// 0 after adopting a higher epoch.
var errEpochResync = errors.New("resyncing into the new epoch")

// Run streams from the primary until ctx is cancelled, Stop is called, or
// a terminal condition (higher epoch with step-down disabled) is hit,
// reconnecting with jittered exponential backoff on any other error. It
// blocks; bloomrfd runs it on its own goroutine.
func (fo *Follower) Run(ctx context.Context) {
	fo.running.Store(true)
	defer close(fo.done)
	backoff := reconnectBase
	for {
		if fo.stopped() {
			return
		}
		err := fo.stream(ctx)
		wasConnected := fo.connected.Swap(false)
		if ctx.Err() != nil || fo.stopped() {
			return
		}
		if errors.Is(err, errEpochSuperseded) {
			fo.logf("bloomrfd: replication: %v; stopping (step-down disabled)", err)
			return
		}
		if wasConnected {
			// A held connection counts as recovery: reset the backoff so a
			// primary that crashes after a long stable stream is re-dialed
			// promptly, and clear the failure streak.
			backoff = reconnectBase
			fo.failStreak.Store(0)
		}
		fo.failStreak.Add(1)
		fo.reconnects.Add(1)
		delay := backoff
		if !errors.Is(err, errEpochResync) { // resync re-dials immediately-ish
			delay = jitterBackoff(backoff)
		} else {
			delay = reconnectBase / 2
		}
		fo.backoffNanos.Store(int64(delay))
		fo.logf("bloomrfd: replication stream ended: %v; reconnecting in %s", err, delay)
		select {
		case <-ctx.Done():
			return
		case <-fo.stop:
			return
		case <-time.After(delay):
		}
		fo.backoffNanos.Store(0)
		if backoff *= 2; backoff > reconnectMax {
			backoff = reconnectMax
		}
	}
}

// pendingRestore accumulates one filter's bootstrap frames: each shard
// frame is restored as it arrives (readShard over the frame's payload), so
// the follower never holds a copy of the blobs.
type pendingRestore struct {
	man    Manifest
	shards []shardFilter
}

// stream opens one connection and applies frames until it breaks.
func (fo *Follower) stream(ctx context.Context) error {
	// Derive a cancel that also watches Stop: the blocking read inside the
	// frame loop only unblocks via context cancellation.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-fo.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	u := fmt.Sprintf("%s/v1/replication/stream?from=%d&epoch=%d",
		fo.primary, fo.applied.Load(), fo.epoch.Load())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	if fo.token != "" {
		req.Header.Set("Authorization", "Bearer "+fo.token)
	}
	if err := faults.Do("replication.follower.dial"); err != nil {
		return err
	}
	resp, err := fo.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("primary answered %s: %s", resp.Status, body)
	}
	fo.connected.Store(true)
	fr := &frameReader{r: bufio.NewReaderSize(resp.Body, 64<<10)}
	var (
		pending = make(map[string]*pendingRestore)
		order   []string // registration order = stream order, for determinism
		cur     *pendingRestore
		stats   ReplayStats
	)
	for {
		var shardLimit int64 // the manifest's size for the shard frame due next
		if cur != nil && len(cur.shards) < len(cur.man.Shards) {
			shardLimit = cur.man.Shards[len(cur.shards)].Bytes
		}
		pos, typ, payload, err := fr.next(shardLimit)
		if err != nil {
			return err
		}
		fo.lastFrame.Store(time.Now().UnixNano())
		switch typ {
		case frameSnapBegin:
			var man Manifest
			if err := json.Unmarshal(payload, &man); err != nil {
				return fmt.Errorf("bootstrap manifest: %w", err)
			}
			if man.Name == "" || len(man.Shards) == 0 {
				return errors.New("bootstrap manifest without name or shards")
			}
			cur = &pendingRestore{man: man}
			if _, dup := pending[man.Name]; !dup {
				order = append(order, man.Name)
			}
			pending[man.Name] = cur
		case frameSnapShard:
			if cur == nil {
				return errors.New("shard frame before any manifest")
			}
			i := int(pos)
			if i != len(cur.shards) || i >= len(cur.man.Shards) {
				return fmt.Errorf("shard frame %d out of order (have %d of %d)", i, len(cur.shards), len(cur.man.Shards))
			}
			sf, err := readShard(&cur.man, i, bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("bootstrap of %q: %w", cur.man.Name, err)
			}
			cur.shards = append(cur.shards, sf)
		case frameBootstrapDone:
			if err := fo.finishBootstrap(pending, order, pos); err != nil {
				return err
			}
			pending, order, cur = make(map[string]*pendingRestore), nil, nil
		case frameHeartbeat:
			fo.primaryPos.Store(pos)
		case frameEpoch:
			known := fo.epoch.Load()
			switch {
			case known == 0 || pos == known:
				fo.epoch.Store(pos)
			case pos > known:
				// A failover completed while we were away: the stream's
				// positions belong to a new log. Step down into it — reset
				// to a snapshot bootstrap — or stop, per configuration.
				if !fo.stepDown {
					return fo.setTerminal(fmt.Errorf(
						"%w: primary at %s serves epoch %d, ours is %d (step-down disabled)",
						errEpochSuperseded, fo.primary, pos, known))
				}
				fo.logf("bloomrfd: replication: primary moved to epoch %d (ours was %d); resyncing from scratch", pos, known)
				fo.epoch.Store(pos)
				fo.applied.Store(0) // positions are incomparable across epochs
				fo.primaryPos.Store(0)
				return errEpochResync
			default: // pos < known
				return fmt.Errorf(
					"primary at %s reports stale epoch %d (ours is %d); refusing to follow a demoted primary",
					fo.primary, pos, known)
			}
		case recCreate, recInsert, recDelete, recSplit, recEpoch:
			rec := wal.Record{Type: typ, Data: payload}
			if typ == recEpoch {
				// The epoch record in the new primary's WAL confirms what
				// frameEpoch announced; adopt it without touching the
				// registry (applyRecord folds it into stats for parity with
				// boot replay).
				if e, derr := decodeEpoch(payload); derr == nil && e > fo.epoch.Load() {
					fo.epoch.Store(e)
				}
			}
			if err := applyRecord(fo.reg, pos, rec, fo.restoredPos, &stats); err != nil {
				return fmt.Errorf("applying record at %d: %w", pos, err)
			}
			next := pos + uint64(rec.EncodedLen())
			fo.applied.Store(next)
			if next > fo.primaryPos.Load() {
				fo.primaryPos.Store(next)
			}
			// Sample lag per applied record, not per scrape: during catch-up
			// after a burst, every record observes how far behind it was.
			var lag int64
			if end := fo.primaryPos.Load(); end > next {
				lag = int64(end - next)
			}
			fo.lagHist.Observe(lag)
		default:
			return fmt.Errorf("unknown replication frame type %d", typ)
		}
	}
}

// finishBootstrap swaps the streamed snapshot set in as the follower's new
// world: every existing filter is dropped (the primary's enumeration is
// authoritative — a filter absent from it was deleted there), the restored
// filters take their place, and the skip map and applied position reset to
// the bootstrap's coverage.
func (fo *Follower) finishBootstrap(pending map[string]*pendingRestore, order []string, tail uint64) error {
	restored := make(map[string]*ShardedFilter, len(pending))
	pos := make(map[string]uint64, len(pending))
	for name, p := range pending {
		if len(p.shards) != len(p.man.Shards) {
			return fmt.Errorf("bootstrap of %q ended with %d of %d shards", name, len(p.shards), len(p.man.Shards))
		}
		f, err := restoredFilter(&p.man, p.shards)
		if err != nil {
			return fmt.Errorf("bootstrap of %q: %w", name, err)
		}
		restored[name] = f
		pos[name] = p.man.WALPos
	}
	fo.reg.Reset()
	for _, name := range order {
		if err := fo.reg.Register(name, restored[name]); err != nil {
			return fmt.Errorf("registering bootstrapped %q: %w", name, err)
		}
	}
	fo.restoredPos = pos
	fo.applied.Store(tail)
	if tail > fo.primaryPos.Load() {
		fo.primaryPos.Store(tail)
	}
	fo.logf("bloomrfd: replication bootstrap: %d filter(s), tail resumes at %d", len(restored), tail)
	return nil
}
