package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/wal"
)

// WAL integration: the serving layer's mutation log. Snapshots (persist.go)
// scale with filter size; the WAL scales with insert rate, so the mutating
// handlers append their effect here and boot recovery becomes
// restore-latest-snapshot + replay-WAL-tail (Recover).
//
// Ordering contract (every mutating handler follows it):
//
//	1. apply the mutation to the in-memory registry/filter
//	2. append the WAL record (the durability commit point)
//	3. acknowledge the client
//
// Applying before appending makes snapshot positions safe to capture
// without a global pause: when a snapshot reads the log end P (and fsyncs
// up to it) before marshaling shards, every record below P was appended
// before P was read, hence fully applied before the marshal takes the
// shard locks — so the blobs contain it and replay may start at P. A crash
// between apply and append loses only a mutation that was never
// acknowledged. Replay is idempotent (bloomRF inserts set bits), so
// records at or above P that also made it into a blob are harmless to
// re-apply.
//
// Record payloads:
//
//	recCreate  JSON {"name": ..., "options": FilterOptions} — options are
//	           the validated, defaulted options, so replay rebuilds an
//	           identically-routed filter.
//	recInsert  binary: u16 LE name length | name | 8-byte LE keys.
//	           The hot-path record; binary keeps the append under one
//	           allocation and ~8 bytes per key.
//	recDelete  the raw filter name.
//	recSplit   binary: u16 LE name length | name | 8-byte LE split key.
//	           A completed span split (split.go); replay re-runs the same
//	           division, or skips it when the restored snapshot already
//	           reflects the post-split topology.
//	recEpoch   8-byte LE promotion epoch. The first record a promoted
//	           primary writes into its fresh WAL; replay (and the follower
//	           stream) adopt the highest epoch seen, so a restarted node
//	           knows which era its log belongs to (failover.go).

// WAL record types. The space below 128 is reserved for durable record
// types; replication control frames (replication.go) use 128+ so the two
// namespaces can never collide on the stream.
const (
	recCreate byte = 1
	recInsert byte = 2
	recDelete byte = 3
	recSplit  byte = 4
	recEpoch  byte = 5
)

// createPayload is the JSON body of a recCreate record.
type createPayload struct {
	Name    string        `json:"name"`
	Options FilterOptions `json:"options"`
}

// encodeCreate builds a recCreate record.
func encodeCreate(name string, opt FilterOptions) (wal.Record, error) {
	body, err := json.Marshal(createPayload{Name: name, Options: opt})
	if err != nil {
		return wal.Record{}, fmt.Errorf("server: encoding create record: %w", err)
	}
	return wal.Record{Type: recCreate, Data: body}, nil
}

// decodeCreate parses a recCreate payload.
func decodeCreate(data []byte) (createPayload, error) {
	var p createPayload
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("server: decoding create record: %w", err)
	}
	if p.Name == "" {
		return p, errors.New("server: create record without a name")
	}
	return p, nil
}

// encodeInsert builds a recInsert record in buf, grown when it is too
// short; the record's Data is that buffer. The durable insert handler
// passes its pooled request scratch: wal.Log.Append copies the record into
// its commit buffer before it returns, so the scratch is free for reuse.
func encodeInsert(buf []byte, name string, keys []uint64) (wal.Record, error) {
	if len(name) > MaxNameLen {
		return wal.Record{}, fmt.Errorf("server: name of %d bytes in insert record", len(name))
	}
	data := grown(buf, 2+len(name)+8*len(keys))
	binary.LittleEndian.PutUint16(data[0:2], uint16(len(name)))
	copy(data[2:], name)
	off := 2 + len(name)
	for _, k := range keys {
		binary.LittleEndian.PutUint64(data[off:], k)
		off += 8
	}
	return wal.Record{Type: recInsert, Data: data}, nil
}

// decodeInsert parses a recInsert payload. The returned key slice aliases
// a fresh allocation, not data.
func decodeInsert(data []byte) (string, []uint64, error) {
	if len(data) < 2 {
		return "", nil, errors.New("server: insert record shorter than its header")
	}
	n := int(binary.LittleEndian.Uint16(data[0:2]))
	if len(data) < 2+n {
		return "", nil, errors.New("server: insert record name cut short")
	}
	name := string(data[2 : 2+n])
	rest := data[2+n:]
	if len(rest)%8 != 0 {
		return "", nil, fmt.Errorf("server: insert record keys not a multiple of 8 bytes (%d)", len(rest))
	}
	keys := make([]uint64, len(rest)/8)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint64(rest[8*i:])
	}
	return name, keys, nil
}

// encodeSplit builds a recSplit record: the filter name and the split key
// of a completed span split.
func encodeSplit(name string, key uint64) (wal.Record, error) {
	if len(name) > MaxNameLen {
		return wal.Record{}, fmt.Errorf("server: name of %d bytes in split record", len(name))
	}
	data := make([]byte, 2+len(name)+8)
	binary.LittleEndian.PutUint16(data[0:2], uint16(len(name)))
	copy(data[2:], name)
	binary.LittleEndian.PutUint64(data[2+len(name):], key)
	return wal.Record{Type: recSplit, Data: data}, nil
}

// encodeEpoch builds a recEpoch record. Epoch 0 means "before epochs
// existed" and is never written.
func encodeEpoch(epoch uint64) (wal.Record, error) {
	if epoch == 0 {
		return wal.Record{}, errors.New("server: epoch record with epoch 0")
	}
	data := make([]byte, 8)
	binary.LittleEndian.PutUint64(data, epoch)
	return wal.Record{Type: recEpoch, Data: data}, nil
}

// decodeEpoch parses a recEpoch payload.
func decodeEpoch(data []byte) (uint64, error) {
	if len(data) != 8 {
		return 0, fmt.Errorf("server: epoch record of %d bytes, want 8", len(data))
	}
	e := binary.LittleEndian.Uint64(data)
	if e == 0 {
		return 0, errors.New("server: epoch record carries epoch 0")
	}
	return e, nil
}

// decodeSplit parses a recSplit payload.
func decodeSplit(data []byte) (string, uint64, error) {
	if len(data) < 2 {
		return "", 0, errors.New("server: split record shorter than its header")
	}
	n := int(binary.LittleEndian.Uint16(data[0:2]))
	if len(data) != 2+n+8 {
		return "", 0, fmt.Errorf("server: split record of %d bytes, want %d", len(data), 2+n+8)
	}
	return string(data[2 : 2+n]), binary.LittleEndian.Uint64(data[2+n:]), nil
}

// ReplayStats counts what a WAL replay did, for boot logging.
type ReplayStats struct {
	Creates int // filters created from create records
	Deletes int // filters removed by delete records
	Batches int // insert records applied
	Keys    int // keys inserted by those records
	Splits  int // span splits re-applied from split records
	Skipped int // records below their filter's snapshot position (or orphaned)

	// Epoch is the highest promotion epoch seen in epoch records (0 when
	// the log predates epochs). Recover folds in manifest epochs too.
	Epoch uint64
}

// ReplayWAL applies every retained WAL record to reg, from the log's
// oldest retained position. restoredPos maps filter name to the WAL
// position its restored snapshot covers: records below that position are
// already contained in the restored filter and are skipped — the
// snapshot+log-tail recovery composition. Unknown record types fail the
// replay (they would mean silently dropping durable mutations).
func ReplayWAL(l *wal.Log, reg *Registry, restoredPos map[string]uint64, logf func(format string, args ...any)) (ReplayStats, error) {
	var st ReplayStats
	r, err := l.ReadFrom(l.OldestPos())
	if err != nil {
		return st, fmt.Errorf("server: opening WAL for replay: %w", err)
	}
	defer r.Close()
	for {
		pos, rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break // caught up with the end
		}
		if err != nil {
			return st, fmt.Errorf("server: WAL replay: %w", err)
		}
		if aerr := applyRecord(reg, pos, rec, restoredPos, &st); aerr != nil {
			return st, fmt.Errorf("server: WAL replay at position %d: %w", pos, aerr)
		}
	}
	if logf != nil {
		logf("server: WAL replay: %d creates, %d deletes, %d insert batches (%d keys), %d splits, %d skipped",
			st.Creates, st.Deletes, st.Batches, st.Keys, st.Splits, st.Skipped)
	}
	return st, nil
}

// applyRecord applies one WAL record to the registry, honouring the
// snapshot-coverage skip rule. Shared by boot replay and the follower's
// streaming apply path, so a primary and its standby interpret records
// identically.
func applyRecord(reg *Registry, pos uint64, rec wal.Record, restoredPos map[string]uint64, st *ReplayStats) error {
	switch rec.Type {
	case recCreate:
		p, err := decodeCreate(rec.Data)
		if err != nil {
			return err
		}
		if pos < restoredPos[p.Name] {
			st.Skipped++
			return nil // the restored snapshot already reflects this create
		}
		if _, err := reg.Get(p.Name); err == nil {
			st.Skipped++
			return nil // already live (restored, or a replayed duplicate)
		}
		if _, err := reg.Create(p.Name, p.Options); err != nil {
			return fmt.Errorf("re-creating %q: %w", p.Name, err)
		}
		st.Creates++
	case recInsert:
		name, keys, err := decodeInsert(rec.Data)
		if err != nil {
			return err
		}
		if pos < restoredPos[name] {
			st.Skipped++
			return nil // contained in the restored snapshot
		}
		f, err := reg.Get(name)
		if err != nil {
			st.Skipped++
			return nil // filter deleted later in the log, or truncated away
		}
		f.InsertBatch(keys)
		st.Batches++
		st.Keys += len(keys)
	case recSplit:
		name, key, err := decodeSplit(rec.Data)
		if err != nil {
			return err
		}
		if pos < restoredPos[name] {
			st.Skipped++
			return nil // the restored snapshot already has the post-split topology
		}
		f, err := reg.Get(name)
		if err != nil {
			st.Skipped++
			return nil // filter deleted later in the log, or truncated away
		}
		did, err := f.replaySplit(name, key)
		if err != nil {
			return fmt.Errorf("re-splitting %q at %d: %w", name, key, err)
		}
		if did {
			st.Splits++
		} else {
			st.Skipped++
		}
	case recDelete:
		name := string(rec.Data)
		if pos < restoredPos[name] {
			st.Skipped++
			return nil // a later incarnation of the name was restored
		}
		if err := reg.Delete(name); err != nil {
			st.Skipped++
			return nil // never created in the retained log, or already gone
		}
		st.Deletes++
	case recEpoch:
		e, err := decodeEpoch(rec.Data)
		if err != nil {
			return err
		}
		if e > st.Epoch {
			st.Epoch = e
		}
	default:
		return fmt.Errorf("unknown WAL record type %d", rec.Type)
	}
	return nil
}

// Recover is the boot sequence with a WAL attached: restore every filter
// from its newest intact snapshot, then replay the WAL tail on top. It
// refuses to proceed when a snapshot claims a WAL position beyond the
// log's end — snapshots fsync the log up to the recorded position before
// committing, so a shorter log means the WAL directory was lost or rolled
// back independently of the snapshots, and silently continuing would
// reuse positions that older snapshots still reference.
func Recover(store *Store, l *wal.Log, reg *Registry, logf func(format string, args ...any)) (ReplayStats, error) {
	restored, skipped, err := store.RestoreAll(reg)
	if err != nil {
		return ReplayStats{}, err
	}
	for name, serr := range skipped {
		if logf != nil {
			logf("server: skipping filter %q: %v", name, serr)
		}
	}
	restoredPos := make(map[string]uint64, len(restored))
	for name, man := range restored {
		if man.WALPos > l.End() {
			return ReplayStats{}, fmt.Errorf(
				"server: snapshot of %q covers WAL position %d but the log ends at %d; "+
					"the WAL directory does not belong to these snapshots", name, man.WALPos, l.End())
		}
		restoredPos[name] = man.WALPos
	}
	if logf != nil {
		logf("server: restored %d filter(s) from snapshots", len(restored))
	}
	stats, err := ReplayWAL(l, reg, restoredPos, logf)
	// Manifests record the epoch too (v6); a log truncated past its epoch
	// record must not make the node forget which era it belongs to.
	for _, man := range restored {
		if man.Epoch > stats.Epoch {
			stats.Epoch = man.Epoch
		}
	}
	return stats, err
}

// TruncatableBefore returns the highest WAL position every live filter's
// latest snapshot covers — segments entirely below it hold only data that
// snapshots already contain. It returns 0 (nothing truncatable) when any
// live filter has never been snapshotted, since the WAL is that filter's
// only durable record.
func TruncatableBefore(reg *Registry) uint64 {
	names := reg.Names()
	if len(names) == 0 {
		return 0
	}
	min := ^uint64(0)
	for _, name := range names {
		f, err := reg.Get(name)
		if err != nil {
			continue // deleted since Names; its records are dead weight either way
		}
		snap := f.LastSnapshot()
		if snap == nil {
			return 0
		}
		if snap.WALPos < min {
			min = snap.WALPos
		}
	}
	if min == ^uint64(0) {
		return 0
	}
	return min
}
