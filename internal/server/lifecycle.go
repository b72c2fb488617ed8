package server

import (
	"errors"
	"time"

	"repro/internal/wal"
)

// The durable primary's lifecycle, the same for a primary booted with
// Config.WAL and for one promoted from a standby (failover.go).

// attachWAL makes l the log mutations commit to and snapshots record their
// position in, and starts the Config.SnapshotInterval loop. A primary that
// predates any failover serves at epoch 1.
func (a *API) attachWAL(l *wal.Log) {
	a.epoch.CompareAndSwap(0, 1)
	a.wlog.Store(l)
	if a.store == nil {
		return
	}
	a.store.SetWALSource(l)
	a.store.SetEpochSource(a.epochValue)
	if a.cfg.SnapshotInterval > 0 {
		a.spawn(a.snapshotLoop)
	}
}

// spawn runs fn on a goroutine Close waits for. Once Close has begun it
// starts nothing and reports false, so no Add races Close's Wait.
func (a *API) spawn(fn func()) bool {
	a.lifeMu.Lock()
	defer a.lifeMu.Unlock()
	if a.closing() {
		return false
	}
	a.bg.Add(1)
	go func() {
		defer a.bg.Done()
		fn()
	}()
	return true
}

// closing reports whether Close has begun.
func (a *API) closing() bool {
	select {
	case <-a.closed:
		return true
	default:
		return false
	}
}

func (a *API) snapshotLoop() {
	t := time.NewTicker(a.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			a.snapshotAll()
		case <-a.closed:
			return
		}
	}
}

// snapshot persists one registered filter, then drops the WAL segments
// every live filter's latest snapshot covers. Every snapshot the API takes
// goes through here: create, the snapshot endpoint, the periodic loop, the
// promotion seed and the shutdown flush.
func (a *API) snapshot(name string, f *ShardedFilter) (Manifest, error) {
	man, err := snapshotRegistered(a.reg, a.store, name, f)
	if l := a.wal(); err == nil && l != nil {
		if pos := TruncatableBefore(a.reg); pos > 0 {
			if err := l.TruncateBefore(pos); err != nil {
				a.cfg.Logf("server: WAL truncation below %d failed: %v", pos, err)
			}
		}
	}
	return man, err
}

// snapshotAll snapshots every filter, counting failures rather than
// aborting: one filter's broken disk state must not stop the others.
func (a *API) snapshotAll() (ok, failed int) {
	for _, name := range a.reg.Names() {
		f, err := a.reg.Get(name)
		if err != nil {
			continue // deleted since Names; its on-disk state is handled by Delete
		}
		switch _, err := a.snapshot(name, f); {
		case errors.Is(err, ErrSuperseded):
			// Deleted (or replaced) between Get and the write lock; the
			// delete path owns the on-disk cleanup.
		case err != nil:
			a.cfg.Logf("server: snapshot of %q failed: %v", name, err)
			failed++
		default:
			ok++
		}
	}
	return ok, failed
}

// snapshotRegistered snapshots f guarded by "f is still the filter
// registered under name", so a concurrent delete (or delete + recreate)
// cannot be overwritten by a stale snapshot.
func snapshotRegistered(reg *Registry, store *Store, name string, f *ShardedFilter) (Manifest, error) {
	return store.SnapshotGuarded(name, f, func() bool {
		g, err := reg.Get(name)
		return err == nil && g == f
	})
}

// Close, called once the HTTP server has drained, refuses any further
// promotion, waits for every goroutine the API started (snapshot loop,
// auto-promote loop, auto-split episodes), then takes a final snapshot of
// every filter and closes the WAL, if one is attached. Later calls do
// nothing.
func (a *API) Close() { a.closeOnce.Do(a.shutdown) }

func (a *API) shutdown() {
	a.promoteMu.Lock() // an in-flight promotion completes first
	a.lifeMu.Lock()
	close(a.closed)
	a.lifeMu.Unlock()
	a.promoteMu.Unlock()
	a.bg.Wait()
	l := a.wal()
	if l == nil {
		return
	}
	if a.store != nil {
		ok, failed := a.snapshotAll()
		a.cfg.Logf("server: final snapshot: %d ok, %d failed", ok, failed)
	}
	if err := l.Close(); err != nil {
		a.cfg.Logf("server: closing WAL: %v", err)
	}
}
