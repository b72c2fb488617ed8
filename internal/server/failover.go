package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/wal"
)

// Failover: follower promotion with epoch fencing.
//
// The epoch model: every primary serves at a promotion epoch, a counter
// that starts at 1 and bumps by one each time a follower is promoted. The
// epoch is durable three ways — a recEpoch record is the first thing a
// promoted primary writes into its fresh WAL, every v6 snapshot manifest
// records it, and the replication stream announces it in a frameEpoch
// control frame before any data. WAL positions are only comparable within
// one epoch: promotion seeds a brand-new log, so "position 4096 at epoch 2"
// and "position 4096 at epoch 1" name different bytes.
//
// Fencing closes the split-brain window the ROADMAP's cluster-mode item
// warned about: a demoted primary that comes back (it never saw the
// promotion — it was dead or partitioned) must not silently accept writes
// that diverge from the acked history now owned by the new primary. Three
// mechanisms catch it:
//
//  1. The stream handshake. A follower (including the old primary restarted
//     with -follow) sends its epoch; a primary seeing a higher epoch than
//     its own knows it was superseded and permanently fences itself: every
//     subsequent mutation and stream request answers 409.
//  2. The frameEpoch announcement. A follower seeing a *lower* epoch than
//     its own refuses to follow a demoted primary; seeing a higher one, it
//     adopts it and resets to a snapshot bootstrap (positions from the old
//     epoch are meaningless against the new log). With -step-down disabled
//     the follower instead exits with a terminal error.
//  3. The X-Bloomrfd-Epoch mutation header. Failover-aware clients echo the
//     epoch they believe current; a mismatch is a 409 before any state
//     changes (http.go allowMutation).
//
// Degradation: a primary whose WAL cannot append (disk full, injected
// fault) latches into read-only mode — mutations answer 503 + Retry-After
// while queries keep serving — instead of wedging or silently dropping
// durability. One probe mutation per second is let through to detect
// recovery; the first successful append unlatches.

// PromotionConfig is what a follower needs to become a primary on
// POST /v1/replication/promote (Config.Promotion).
type PromotionConfig struct {
	// WALOptions configures the fresh log seeded at promotion. The
	// directory may hold a previous incarnation's log; promotion archives
	// it rather than appending to it — its positions belong to an older
	// epoch.
	WALOptions wal.Options
	// Follower is the stream consumer to stop before taking over. Its
	// epoch, seeded with RecoverEpoch at boot (WithEpoch), is the highest
	// this node has seen; promotion takes the next one.
	Follower *Follower
}

var (
	errNotPromotable = errors.New("not promotable")
	errLagging       = errors.New("follower is lagging")
)

// role reports the server's current serving role, in fencing-first order:
// a fenced node stays fenced whatever else it is.
func (a *API) role() string {
	switch {
	case a.fenced.Load():
		return "fenced"
	case a.following.Load():
		return "follower"
	case a.readOnly.Load() || a.walFailed.Load():
		return "read-only"
	case a.wal() != nil:
		return "primary"
	default:
		return "standalone"
	}
}

// epochValue resolves the epoch this server serves at: the explicit epoch
// once set (boot recovery, attachWAL or promotion), the stream's epoch for a
// live follower, and 0 for a server outside the replication topology
// entirely.
func (a *API) epochValue() uint64 {
	if e := a.epoch.Load(); e != 0 {
		return e
	}
	if a.following.Load() && a.cfg.Replication != nil {
		return a.cfg.Replication().Epoch
	}
	return 0
}

// fence permanently marks this server as superseded by a higher epoch.
// There is no unfence short of a restart as a follower: the operator must
// reconcile the node's state against the new primary first.
func (a *API) fence(reason string) {
	if a.fenced.CompareAndSwap(false, true) {
		a.cfg.Logf("server: warn=fenced epoch=%d reason=%q hint=%q",
			a.epochValue(), reason, "restart this node with -follow <new primary> to rejoin")
	}
}

// noteWALAppendError latches degraded read-only mode on the first failed
// WAL append. Queries keep serving from memory; mutations answer 503 until
// an append succeeds again.
func (a *API) noteWALAppendError(err error) {
	if a.walFailed.CompareAndSwap(false, true) {
		a.cfg.Logf("server: warn=wal_append_failed err=%q action=%q",
			err.Error(), "degrading to read-only; mutations answer 503 until appends recover")
	}
}

// noteWALAppendOK clears the degraded latch after a successful append.
func (a *API) noteWALAppendOK() {
	if a.walFailed.CompareAndSwap(true, false) {
		a.cfg.Logf("server: info=wal_append_recovered action=%q", "leaving read-only degradation")
	}
}

// degradedReject decides whether a mutation should be shed while the WAL is
// degraded: most are, but roughly one per second is let through to probe
// whether appends recovered (the probe's own logWAL clears the latch on
// success). Called only with walFailed set.
func (a *API) degradedReject() bool {
	now := time.Now().UnixNano()
	last := a.probeAt.Load()
	if now-last >= int64(time.Second) && a.probeAt.CompareAndSwap(last, now) {
		return false // this request is the probe
	}
	return true
}

// promoteReq is the optional body of POST /v1/replication/promote.
type promoteReq struct {
	// Force promotes even when the follower has not applied everything the
	// primary acknowledged — accepting the loss of the unapplied suffix.
	// For when the primary is gone for good and lag is the lesser evil.
	Force bool `json:"force"`
}

// handlePromote turns a caught-up follower into a writable primary.
// Idempotent: promoting an already-promoted (or plain primary) node is a
// no-op 200. A lagging follower is refused with 409 unless forced.
func (a *API) handlePromote(w http.ResponseWriter, r *http.Request) {
	if !a.authorized(r) {
		denyUnauthorized(w, "promotion")
		return
	}
	var req promoteReq
	if !decodeOptional(w, r.Body, &req) {
		return
	}
	epoch, promoted, err := a.promote(req.Force)
	switch {
	case errors.Is(err, errNotPromotable) || errors.Is(err, errLagging):
		writeErr(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "promotion failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"promoted": promoted,
		"role":     a.role(),
		"epoch":    epoch,
	})
}

// promote is the promotion state machine. On success the server serves
// mutations at epoch n+1 from a freshly seeded WAL + snapshots; promoted
// is false when the server already was a primary (idempotent repeat).
func (a *API) promote(force bool) (epoch uint64, promoted bool, err error) {
	a.promoteMu.Lock()
	defer a.promoteMu.Unlock()
	if a.closing() {
		return 0, false, fmt.Errorf("%w: the server is shutting down", errNotPromotable)
	}
	if a.fenced.Load() {
		return 0, false, fmt.Errorf("%w: this node was fenced by a higher epoch; restart it as a follower", errNotPromotable)
	}
	if !a.following.Load() {
		if a.wal() != nil {
			return a.epochValue(), false, nil // already a primary: no-op
		}
		return 0, false, fmt.Errorf("%w: not a replication follower", errNotPromotable)
	}
	if a.wal() != nil {
		// A previous attempt attached its log and then failed to seed the
		// snapshots; a retry would archive the log it is writing to.
		return 0, false, fmt.Errorf("%w: an earlier promotion failed midway; restart this node as a follower", errNotPromotable)
	}
	pc := a.cfg.Promotion
	if pc == nil || a.store == nil || pc.Follower == nil {
		return 0, false, fmt.Errorf(
			"%w: no promotion target configured (start the standby with -follow AND -data-dir)", errNotPromotable)
	}
	st := pc.Follower.Status()
	if !force && st.AppliedPos < st.PrimaryPos {
		return 0, false, fmt.Errorf(
			"%w: applied %d of %d primary bytes (lag %d); retry when caught up or pass {\"force\":true} to accept the loss",
			errLagging, st.AppliedPos, st.PrimaryPos, st.PrimaryPos-st.AppliedPos)
	}

	// Stop consuming the stream before touching anything: after this point
	// no frame mutates the registry behind our back.
	pc.Follower.Stop()

	// A primary that predates epochs was implicitly at 1.
	newEpoch := max(pc.Follower.Epoch(), 1) + 1

	// The WAL directory may hold a previous incarnation's log (this node
	// was a primary once). Its positions belong to an older epoch, so
	// archive it wholesale rather than appending into it.
	if dir := pc.WALOptions.Dir; dir != "" {
		if ents, err := os.ReadDir(dir); err == nil && len(ents) > 0 {
			archived := dir + fmt.Sprintf(".pre-epoch-%d", newEpoch)
			_ = os.RemoveAll(archived)
			if err := os.Rename(dir, archived); err != nil {
				return 0, false, fmt.Errorf("archiving previous WAL directory: %w", err)
			}
			a.cfg.Logf("server: info=wal_archived dir=%q to=%q", dir, archived)
		}
	}
	wlog, err := wal.Open(pc.WALOptions)
	if err != nil {
		return 0, false, fmt.Errorf("opening fresh WAL: %w", err)
	}
	// The epoch record is the log's first entry and is fsynced before the
	// node serves a single mutation: a crash right after promotion still
	// recovers into epoch n+1.
	rec, err := encodeEpoch(newEpoch)
	if err == nil {
		_, err = wlog.Append(rec)
	}
	if err == nil {
		err = wlog.Sync()
	}
	if err != nil {
		wlog.Close()
		return 0, false, fmt.Errorf("seeding epoch record: %w", err)
	}

	a.epoch.Store(newEpoch)
	// From here the node owns the log as a booted primary would; it stays
	// read-only until the seed below succeeds.
	a.attachWAL(wlog)

	// Reconcile the store with the live registry: prune directories of
	// filters the stream deleted (their snapshots must not resurrect them)
	// and seed a fresh snapshot of every live filter, so recovery of the
	// new primary never needs the old epoch's log.
	if names, err := a.store.Names(); err == nil {
		for _, name := range names {
			if _, err := a.reg.Get(name); err != nil {
				_ = a.store.Remove(name)
			}
		}
	}
	seeded, failed := a.snapshotAll()
	if failed > 0 {
		return 0, false, fmt.Errorf("seeding snapshots: %d filter(s) failed (see log)", failed)
	}

	a.following.Store(false)
	a.readOnly.Store(false)
	a.promotions.Add(1)
	a.cfg.Logf("server: info=promoted epoch=%d filters=%d previous_primary=%q",
		newEpoch, seeded, st.Primary)
	return newEpoch, true, nil
}

// autoPromoteLoop is the guarded self-promotion policy behind -auto-promote:
// promote when (and only when) the stream has been silent past the
// heartbeat timeout AND the follower has applied everything it ever saw
// acknowledged. It never forces: a lagging follower holds and logs instead,
// because auto-promoting over known-missing acked writes trades an outage
// for silent loss.
func (a *API) autoPromoteLoop() {
	every := a.cfg.HeartbeatTimeout / 2
	if every < 100*time.Millisecond {
		every = 100 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-a.closed:
			return
		case <-t.C:
		}
		if !a.following.Load() || a.fenced.Load() {
			return // promoted (by hand or by us), or fenced: nothing to watch
		}
		st := a.cfg.Replication()
		if !st.PrimaryUnreachable {
			continue
		}
		if st.AppliedPos < st.PrimaryPos {
			a.cfg.Logf("server: warn=auto_promote_held applied=%d primary=%d reason=%q",
				st.AppliedPos, st.PrimaryPos, "primary unreachable but follower is lagging; refusing unforced promotion")
			continue
		}
		epoch, promoted, err := a.promote(false)
		if err != nil {
			a.cfg.Logf("server: warn=auto_promote_failed err=%q", err.Error())
			continue
		}
		if promoted {
			a.cfg.Logf("server: info=auto_promoted epoch=%d timeout=%s", epoch, a.cfg.HeartbeatTimeout)
		}
		return
	}
}

// RecoverEpoch scans a promotion target's existing state — snapshot
// manifests plus any epoch records in the WAL directory — for the highest
// promotion epoch it ever served at, without restoring anything into a
// registry. bloomrfd calls it when booting a standby with both -follow and
// -data-dir: the follower must announce at least this epoch in its
// handshake, or a fenced-then-restarted node could rejoin at epoch 0 and
// be bootstrapped by a stale primary.
func RecoverEpoch(store *Store, walOpts wal.Options) (uint64, error) {
	var epoch uint64
	names, err := store.Names()
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		seqs, err := store.listSnaps(name)
		if err != nil {
			continue
		}
		for _, seq := range seqs {
			if man := store.loadManifest(name, seq); man != nil && man.Epoch > epoch {
				epoch = man.Epoch
			}
		}
	}
	// The WAL may carry a newer epoch than any manifest (promotion writes
	// the record before the first snapshot commits). Open creates the
	// directory when absent — harmless: promotion archives or reuses it.
	l, err := wal.Open(walOpts)
	if err != nil {
		return epoch, fmt.Errorf("server: scanning WAL for epoch records: %w", err)
	}
	defer l.Close()
	r, err := l.ReadFrom(l.OldestPos())
	if err != nil {
		return epoch, fmt.Errorf("server: scanning WAL for epoch records: %w", err)
	}
	defer r.Close()
	for {
		_, rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return epoch, nil
		}
		if err != nil {
			return epoch, fmt.Errorf("server: scanning WAL for epoch records: %w", err)
		}
		if rec.Type == recEpoch {
			if e, derr := decodeEpoch(rec.Data); derr == nil && e > epoch {
				epoch = e
			}
		}
	}
}
