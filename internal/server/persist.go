package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/wal"
)

// Durable snapshots. On-disk layout under the store's root directory:
//
//	<root>/<escaped filter name>/snap-<seq>/shard-NNNN.bin   one MarshalBinary blob per shard, streamed
//	<root>/<escaped filter name>/snap-<seq>/manifest.json    written last; its presence commits the snapshot
//
// A snapshot is written shard blobs first (each fsynced), manifest last via
// temp-file + rename + directory fsync. The manifest is the commit point: a
// crash mid-write leaves a snap directory without a valid manifest, which
// restore ignores and the next successful snapshot prunes. Sequence numbers
// grow monotonically per filter; restore picks the highest sequence whose
// manifest parses and whose shard blobs match their recorded size and
// CRC-32C, falling back to older snapshots otherwise. Format evolution
// policy: manifestVersion guards the manifest schema, and each shard blob
// carries the library's own versioned filter-block header, so either layer
// can evolve independently; readers reject versions they do not know.

// manifestField is one manifest field that a format version after the
// first introduced: the version it arrived in, how a reader tells it is
// present, the check it must pass from that version on, and the value it
// takes in a manifest written before it existed. loadManifest applies one
// rule to every row, and Manifest.Downgrade uses the rows to reproduce an
// older writer's shape.
type manifestField struct {
	name  string
	since int // the format_version that introduced the field
	// present reports whether the manifest carries the field. Nil for a
	// field readers never judge before its era.
	present func(*Manifest) bool
	// valid is the check the field must pass from since on; nil accepts
	// any value, absence included.
	valid func(*Manifest) bool
	// setDefault fills in the pre-era value; nil when that is the zero
	// value an absent field already has.
	setDefault func(*Manifest)
	// clear removes the field.
	clear func(*Manifest)
}

// oldestManifestVersion is the hash-era schema every row of manifestFields
// builds on: options without a partitioning record, shard entries with
// only file, size and CRC.
const oldestManifestVersion = 1

// manifestFields is the manifest's era table, ordered by version. The next
// format bump is one more row; manifestVersion follows it.
var manifestFields = []manifestField{
	// v2: the routing mode, so a restored filter keeps its routing.
	// Required from v2 on; v1 restores as hash, the only routing that
	// existed when it was written.
	{
		name: "partitioning", since: 2,
		present:    func(m *Manifest) bool { return m.Options.Partitioning != "" },
		valid:      func(m *Manifest) bool { return m.Options.Partitioning.Valid() },
		setDefault: func(m *Manifest) { m.Options.Partitioning = PartitionHash },
		clear:      func(m *Manifest) { m.Options.Partitioning = "" },
	},
	// v2: each shard's resident key count, so the skew gauges survive a
	// restart. Stats-only, and readers have always taken a count wherever
	// one appears; v1 restores with the counters at zero.
	{
		name: "keys", since: 2,
		clear: func(m *Manifest) {
			for i := range m.Shards {
				m.Shards[i].Keys = 0
			}
		},
	},
	// v3: the write-ahead-log position the snapshot covers, so boot
	// recovery replays only the log tail from there (durability.go).
	// Earlier eras restore with 0: replay everything retained, which is
	// idempotent, just slower.
	{
		name: "wal_pos", since: 3,
		present: func(m *Manifest) bool { return m.WALPos != 0 },
		clear:   func(m *Manifest) { m.WALPos = 0 },
	},
	// v4: the filter backend (backend.go), so a restored filter rebuilds
	// its shards with the right implementation and blob codec. Required
	// from v4 on; earlier eras restore as bloomRF, the only backend they
	// could have written.
	{
		name: "backend", since: 4,
		present:    func(m *Manifest) bool { return m.Options.Backend != "" },
		valid:      func(m *Manifest) bool { return validBackend(m.Options.Backend) },
		setDefault: func(m *Manifest) { m.Options.Backend = BackendBloomRF },
		clear:      func(m *Manifest) { m.Options.Backend = "" },
	},
	// v5: the span-start table (split.go). Required under range
	// partitioning, where splits make the spans non-uniform; forbidden
	// under hash; one span per shard, tiling the keyspace. Earlier eras
	// restore with nil, which divides the keyspace evenly: the only
	// topology they could have had.
	{
		name: "spans", since: 5,
		present: func(m *Manifest) bool { return m.Spans != nil },
		valid: func(m *Manifest) bool {
			if m.Options.Partitioning != PartitionRange {
				return m.Spans == nil
			}
			return len(m.Spans) == len(m.Shards) && validateSpans(m.Spans) == nil
		},
		clear: func(m *Manifest) { m.Spans = nil },
	},
	// v5: each shard's mutation epoch at capture, which lets the next
	// snapshot pass of the same process reuse unchanged blobs. Process-local:
	// restore ignores it, and earlier eras restore with 0.
	{
		name: "mut", since: 5,
		present: func(m *Manifest) bool {
			return slices.ContainsFunc(m.Shards, func(e ShardEntry) bool { return e.Mut != 0 })
		},
		clear: func(m *Manifest) {
			for i := range m.Shards {
				m.Shards[i].Mut = 0
			}
		},
	},
	// v6: the promotion epoch of the writing server (failover.go), so a
	// node restarted from snapshots alone still knows which era its state
	// belongs to. Required from v6 on; earlier eras restore with 0,
	// pre-failover history that any real epoch supersedes.
	{
		name: "epoch", since: 6,
		present: func(m *Manifest) bool { return m.Epoch != 0 },
		valid:   func(m *Manifest) bool { return m.Epoch != 0 },
		clear:   func(m *Manifest) { m.Epoch = 0 },
	},
}

// manifestVersion is the snapshot manifest schema version written by this
// build: the newest era in manifestFields.
var manifestVersion = manifestFields[len(manifestFields)-1].since

// manifestName is the per-snapshot manifest file; its atomic rename into
// place commits the snapshot.
const manifestName = "manifest.json"

// defaultKeepSnapshots is how many complete snapshots Store retains per
// filter. Two, so the previous snapshot survives until the next one commits
// and a torn write never leaves a filter with no restorable state.
const defaultKeepSnapshots = 2

// ErrNoSnapshot is returned by restore when a filter directory holds no
// complete, intact snapshot.
var ErrNoSnapshot = errors.New("server: no usable snapshot")

// ErrSuperseded is returned by SnapshotGuarded when the guard reports the
// filter is no longer current (deleted or replaced mid-flight).
var ErrSuperseded = errors.New("server: filter deleted or replaced during snapshot")

// castagnoli is the CRC-32C table used for shard blob checksums (the same
// polynomial storage engines use for block checksums).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ShardEntry records one shard blob in a manifest.
type ShardEntry struct {
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`
	// Keys is the shard's resident key count at snapshot time (v2+;
	// absent — zero — in v1 manifests). Stats-only, like InsertedKeys.
	Keys uint64 `json:"keys,omitempty"`
	// Mut is the shard's mutation epoch at capture (v5+): if a later
	// snapshot pass of the same process reads an unchanged epoch, the
	// shard took no insert since this blob was written and the blob is
	// reused instead of re-marshaled. Meaningless across restarts (epochs
	// reset to zero); restore ignores it.
	Mut uint64 `json:"mut,omitempty"`
}

// Manifest is the snapshot's JSON descriptor: everything needed to rebuild
// the sharded filter plus integrity data for each shard blob.
type Manifest struct {
	FormatVersion int           `json:"format_version"`
	Name          string        `json:"name"`
	Seq           uint64        `json:"seq"`
	CreatedUnix   int64         `json:"created_unix_nano"`
	Options       FilterOptions `json:"options"`
	InsertedKeys  uint64        `json:"inserted_keys"`
	Shards        []ShardEntry  `json:"shards"`
	// WALPos is the log position this snapshot covers (v3+): every WAL
	// record below it is contained in the shard blobs. 0 when no WAL was
	// attached at snapshot time or the manifest predates v3.
	WALPos uint64 `json:"wal_pos,omitempty"`
	// Spans is the span-start table of a range-partitioned filter (v5+):
	// Spans[i] is the smallest key shard i owns. Required under range
	// partitioning — span splits make the spans non-uniform, and a filter
	// restored without them would route keys to the wrong shards. Absent
	// under hash partitioning.
	Spans []uint64 `json:"spans,omitempty"`
	// Epoch is the promotion epoch of the writing server (v6+): 1 for a
	// server never involved in a failover, n+1 after the n-th promotion.
	// v6 writers always record it; restore feeds it into epoch recovery
	// so positions from different eras are never compared.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Downgrade gives m the shape a writer of format version v produced: it
// stamps the version and clears every field a later era introduced. The
// golden-fixture generator (scripts/gen_golden) writes its fixtures
// through it.
func (m *Manifest) Downgrade(v int) {
	m.FormatVersion = v
	for _, f := range manifestFields {
		if f.since > v {
			f.clear(m)
		}
	}
}

// totalBytes sums the shard blob sizes.
func (m *Manifest) totalBytes() int64 {
	var t int64
	for _, sh := range m.Shards {
		t += sh.Bytes
	}
	return t
}

// Store reads and writes filter snapshots under a root directory. All
// methods are safe for concurrent use: writes to the same filter (Snapshot,
// Remove) serialize on a per-name lock so racing snapshot triggers — the
// HTTP endpoint, the periodic snapshot loop, the shutdown flush — cannot
// collide on a sequence number.
type Store struct {
	root string
	keep int

	mu        sync.Mutex
	nameLocks map[string]*sync.Mutex

	// walPos, when non-nil, supplies the WAL position a snapshot covers:
	// it reads the log end and makes it durable, so the recorded position
	// never outruns the log (see SetWALSource).
	walPos func() (uint64, error)

	// epochSource, when non-nil, supplies the promotion epoch manifests
	// record (see SetEpochSource). Nil — a store never wired into the
	// failover machinery — writes epoch 1, the pre-failover era.
	epochSource func() uint64

	// afterShardWrite, when non-nil, runs after each shard blob is written
	// and before the manifest commits. Tests inject failures here to
	// simulate a crash mid-snapshot.
	afterShardWrite func(shard int) error

	// duringShardStream, when non-nil, runs once per streamed shard blob,
	// with its file open and the shard's lock released, just before the
	// stream starts. Tests hold a stream here.
	duringShardStream func(shard int)
}

// nameLock returns the write lock for one filter's directory.
func (st *Store) nameLock(name string) *sync.Mutex {
	st.mu.Lock()
	defer st.mu.Unlock()
	l, ok := st.nameLocks[name]
	if !ok {
		l = &sync.Mutex{}
		st.nameLocks[name] = l
	}
	return l
}

// OpenStore opens (creating if needed) a snapshot store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("server: store directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating store root: %w", err)
	}
	return &Store{root: dir, keep: defaultKeepSnapshots, nameLocks: make(map[string]*sync.Mutex)}, nil
}

// Root returns the store's root directory.
func (st *Store) Root() string { return st.root }

// SetWALSource attaches a write-ahead log to the store: every snapshot
// from now on records the WAL position it covers (manifest wal_pos), so
// boot recovery replays only the tail. The position is captured before the
// shard marshals — the handlers' apply-before-append ordering guarantees
// every record below it is already in the filters — and the log is fsynced
// up to it before the manifest commits, so a committed snapshot never
// references positions the log could lose in a crash.
func (st *Store) SetWALSource(l *wal.Log) {
	st.walPos = func() (uint64, error) {
		pos := l.End()
		if err := l.Sync(); err != nil {
			return 0, err
		}
		return pos, nil
	}
}

// SetEpochSource attaches a promotion-epoch source to the store: every
// manifest from now on records the epoch the serving layer reports
// (failover.go). Must be set before the first snapshot that should carry
// a non-default epoch; without one, manifests record epoch 1.
func (st *Store) SetEpochSource(fn func() uint64) {
	st.epochSource = fn
}

// escapeName maps a filter name to a directory name: URL-path escaping,
// which is deterministic, collision-free and filesystem-safe — except that
// "." and ".." pass through PathEscape unchanged and would alias the store
// root's self/parent, so they are forced into percent form. The registry
// rejects those names anyway; this is the store defending itself against
// callers that bypass it.
func escapeName(name string) string {
	switch esc := url.PathEscape(name); esc {
	case ".":
		return "%2E"
	case "..":
		return "%2E%2E"
	default:
		return esc
	}
}

// filterDir maps a filter name to its directory.
func (st *Store) filterDir(name string) string {
	return filepath.Join(st.root, escapeName(name))
}

// snapDirName formats a snapshot directory name; the fixed width keeps
// lexical and numeric order identical for the sequences a server will ever
// reach, though restore parses the number rather than trusting sort order.
func snapDirName(seq uint64) string { return fmt.Sprintf("snap-%010d", seq) }

// parseSnapDir extracts the sequence from a snapshot directory name.
func parseSnapDir(name string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, "snap-")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSnaps returns the snapshot sequence numbers present for a filter,
// descending (newest first), complete or not.
func (st *Store) listSnaps(name string) ([]uint64, error) {
	ents, err := os.ReadDir(st.filterDir(name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if seq, ok := parseSnapDir(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs, nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeFileSync creates path, writes it through write and fsyncs it.
func writeFileSync(path string, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// verify checks a whole shard blob against its manifest entry's size and
// CRC-32C.
func (ent ShardEntry) verify(blob []byte) error {
	if int64(len(blob)) != ent.Bytes {
		return fmt.Errorf("%d bytes, manifest says %d", len(blob), ent.Bytes)
	}
	return ent.verifyCRC(crc32.Checksum(blob, castagnoli))
}

func (ent ShardEntry) verifyCRC(crc uint32) error {
	if crc != ent.CRC32C {
		return fmt.Errorf("CRC mismatch %08x != %08x", crc, ent.CRC32C)
	}
	return nil
}

// Snapshot writes a new durable snapshot of f and prunes old ones. On
// success it records the snapshot on the filter (LastSnapshot) and returns
// the committed manifest.
func (st *Store) Snapshot(name string, f *ShardedFilter) (Manifest, error) {
	return st.SnapshotGuarded(name, f, nil)
}

// SnapshotGuarded is Snapshot with a liveness guard evaluated under the
// per-name write lock: if current returns false the snapshot is abandoned
// with ErrSuperseded before touching disk. The registry-facing callers use
// it to close the delete race — without the guard, a snapshot pass that
// fetched the filter just before DELETE removed it would re-create the
// on-disk state after Remove, resurrecting the filter on restart.
func (st *Store) SnapshotGuarded(name string, f *ShardedFilter, current func() bool) (Manifest, error) {
	snapStart := time.Now()
	l := st.nameLock(name)
	l.Lock()
	defer l.Unlock()
	if current != nil && !current() {
		return Manifest{}, ErrSuperseded
	}
	// Hold the filter's topology lock across the whole capture: a span
	// split swapping the shard table mid-pass could otherwise leave the
	// manifest mixing pre- and post-split blobs under one WAL position.
	// Lock order is name lock → splitMu → shard locks; a split takes
	// splitMu → shard locks and never a name lock, so the order is acyclic.
	f.splitMu.Lock()
	defer f.splitMu.Unlock()
	tab := f.tab.Load()
	n := len(tab.shards)
	dir := st.filterDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, fmt.Errorf("server: snapshot %q: %w", name, err)
	}
	seqs, err := st.listSnaps(name)
	if err != nil {
		return Manifest{}, fmt.Errorf("server: snapshot %q: %w", name, err)
	}
	var seq uint64 = 1
	if len(seqs) > 0 {
		seq = seqs[0] + 1
	}
	snapDir := filepath.Join(dir, snapDirName(seq))
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return Manifest{}, fmt.Errorf("server: snapshot %q: %w", name, err)
	}
	opt := f.opt
	opt.Shards = n
	man := Manifest{
		FormatVersion: manifestVersion,
		Name:          name,
		Seq:           seq,
		CreatedUnix:   time.Now().UnixNano(),
		Options:       opt,
		Shards:        make([]ShardEntry, n),
		Spans:         tab.part.spans(),
		Epoch:         1, // v6 writers always record an epoch; 1 = pre-failover era
	}
	if st.epochSource != nil {
		if e := st.epochSource(); e > 0 {
			man.Epoch = e
		}
	}
	if st.walPos != nil {
		// Capture before any shard marshal: every record below this
		// position is fully applied (apply-before-append), so the blobs
		// written next contain it and replay may start here.
		pos, err := st.walPos()
		if err != nil {
			return Manifest{}, fmt.Errorf("server: snapshot %q: syncing WAL: %w", name, err)
		}
		man.WALPos = pos
	}
	// Incremental capture: when the previous snapshot of this process
	// incarnation is intact and the topology has not changed since, any
	// shard whose mutation epoch still matches the epoch that snapshot
	// recorded took no insert in between, so its blob is reused (hard
	// link) instead of re-marshaled. The epoch check is racy on purpose
	// and errs only toward re-marshaling: mut bumps before an insert
	// applies, and an insert whose WAL append outran our walPos capture
	// must have bumped mut before we read it (apply-before-append), so a
	// "clean" read can never hide a record below walPos.
	var prev *Manifest
	var prevDir string
	reused := 0
	if f.incr != nil && f.incr.epoch == tab.epoch {
		if m := st.loadManifest(name, f.incr.seq); m != nil && len(m.Shards) == n {
			prev = m
			prevDir = filepath.Join(dir, snapDirName(m.Seq))
		}
	}
	for i := 0; i < n; i++ {
		ss := tab.shards[i]
		file := fmt.Sprintf("shard-%04d.bin", i)
		path := filepath.Join(snapDir, file)
		if mutNow := ss.mut.Load(); prev != nil && prev.Shards[i].Mut == mutNow {
			if err := linkOrCopy(filepath.Join(prevDir, prev.Shards[i].File), path); err != nil {
				return Manifest{}, fmt.Errorf("server: snapshot %q shard %d (reuse): %w", name, i, err)
			}
			man.Shards[i] = ShardEntry{
				File:   file,
				Bytes:  prev.Shards[i].Bytes,
				CRC32C: prev.Shards[i].CRC32C,
				Keys:   ss.keys.Load(),
				Mut:    mutNow,
			}
			reused++
		} else {
			// Drain the shard's inserts, then stream it without its lock,
			// so inserts to it go on while the file is written. The blob
			// holds every insert that completed before the drain, hence
			// every record below man.WALPos (apply-before-append, read
			// above), and perhaps parts of inserts that race the stream:
			// bits only go from 0 to 1, so those are never undone, and each
			// such insert bumped mut after the drain read it, so the next
			// pass captures this shard again instead of reusing this blob.
			mut := tab.drainShard(i)
			crc := crc32.New(castagnoli)
			var n int64
			err := writeFileSync(path, func(w io.Writer) error {
				if st.duringShardStream != nil {
					st.duringShardStream(i)
				}
				var err error
				n, err = writeShard(io.MultiWriter(w, crc), ss.f)
				return err
			})
			if err != nil {
				return Manifest{}, fmt.Errorf("server: snapshot %q shard %d: %w", name, i, err)
			}
			// The key count is read after the stream, so like InsertedKeys
			// it never undercounts the inserts the drain waited for;
			// racing inserts may overcount.
			man.Shards[i] = ShardEntry{
				File:   file,
				Bytes:  n,
				CRC32C: crc.Sum32(),
				Keys:   ss.keys.Load(),
				Mut:    mut,
			}
		}
		if st.afterShardWrite != nil {
			if err := st.afterShardWrite(i); err != nil {
				return Manifest{}, fmt.Errorf("server: snapshot %q shard %d: %w", name, i, err)
			}
		}
	}
	// Read after the last shard blob: every insert a drain waited for was
	// counted under its shard lock, so the count never undercounts them.
	// It may overcount keys that raced in after their shard's drain; the
	// count is stats-only either way.
	man.InsertedKeys = f.keys.Load()
	body, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return Manifest{}, fmt.Errorf("server: snapshot %q manifest: %w", name, err)
	}
	tmp := filepath.Join(snapDir, manifestName+".tmp")
	if err := writeFileSync(tmp, func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	}); err != nil {
		return Manifest{}, fmt.Errorf("server: snapshot %q manifest: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(snapDir, manifestName)); err != nil {
		return Manifest{}, fmt.Errorf("server: snapshot %q manifest: %w", name, err)
	}
	if err := syncDir(snapDir); err != nil {
		return Manifest{}, fmt.Errorf("server: snapshot %q: %w", name, err)
	}
	if err := syncDir(dir); err != nil {
		return Manifest{}, fmt.Errorf("server: snapshot %q: %w", name, err)
	}
	st.prune(name, seq)
	f.incr = &incrSnapState{seq: seq, epoch: tab.epoch}
	f.setSnapshotInfo(SnapshotInfo{Seq: seq, UnixNano: man.CreatedUnix, Bytes: man.totalBytes(), WALPos: man.WALPos, ReusedShards: reused,
		DurationNanos: time.Since(snapStart).Nanoseconds()})
	return man, nil
}

// linkOrCopy makes dst another name for src's contents, preferring a hard
// link — snapshot blobs are immutable once written, so sharing the inode
// is safe and free, and pruning the old snapshot directory leaves the
// inode alive — and falling back to a streamed, fsynced copy when the
// filesystem refuses links.
func linkOrCopy(src, dst string) error {
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	return writeFileSync(dst, func(w io.Writer) error {
		_, err := io.Copy(w, in)
		return err
	})
}

// prune removes snapshot directories other than the newest keep complete
// ones, including incomplete (crashed) attempts older than the newest
// committed snapshot. Errors are ignored: pruning is best-effort and the
// next snapshot retries.
func (st *Store) prune(name string, newest uint64) {
	seqs, err := st.listSnaps(name)
	if err != nil {
		return
	}
	kept := 0
	for _, seq := range seqs {
		if seq > newest {
			continue // a racing newer snapshot; not ours to judge
		}
		if kept < st.keep && st.loadManifest(name, seq) != nil {
			kept++
			continue
		}
		os.RemoveAll(filepath.Join(st.filterDir(name), snapDirName(seq)))
	}
}

// loadManifest parses and structurally validates the manifest of one
// snapshot, returning nil if absent or invalid. Every version from
// oldestManifestVersion to manifestVersion is accepted and normalized to
// the current schema by one rule over the era table: a field present
// before its era is corrupt (that era could not have written it), a field
// failing its check from its era on is corrupt, and otherwise the field's
// pre-era default applies.
func (st *Store) loadManifest(name string, seq uint64) *Manifest {
	body, err := os.ReadFile(filepath.Join(st.filterDir(name), snapDirName(seq), manifestName))
	if err != nil {
		return nil
	}
	var man Manifest
	if err := json.Unmarshal(body, &man); err != nil {
		return nil
	}
	if man.Seq != seq || man.Name != name ||
		len(man.Shards) == 0 || len(man.Shards) != man.Options.Shards {
		return nil
	}
	if man.FormatVersion < oldestManifestVersion || man.FormatVersion > manifestVersion {
		return nil
	}
	for _, f := range manifestFields {
		if man.FormatVersion >= f.since {
			if f.valid != nil && !f.valid(&man) {
				return nil
			}
		} else if f.present != nil && f.present(&man) {
			return nil
		} else if f.setDefault != nil {
			f.setDefault(&man)
		}
	}
	return &man
}

// shardPath returns the file of shard entry ent of the snapshot in snapDir.
// An entry whose file is not a bare name would reach outside the snapshot
// directory and is refused.
func shardPath(snapDir string, i int, ent ShardEntry) (string, error) {
	if ent.File != filepath.Base(ent.File) {
		return "", fmt.Errorf("shard %d: path %q escapes snapshot directory", i, ent.File)
	}
	return filepath.Join(snapDir, ent.File), nil
}

// readShardBlobs reads the shard blobs one snapshot's manifest lists, whole,
// and checks each against its entry's size and CRC-32C.
func (st *Store) readShardBlobs(name string, man *Manifest) ([][]byte, error) {
	snapDir := filepath.Join(st.filterDir(name), snapDirName(man.Seq))
	blobs := make([][]byte, len(man.Shards))
	for i, ent := range man.Shards {
		path, err := shardPath(snapDir, i, ent)
		if err != nil {
			return nil, err
		}
		blob, err := os.ReadFile(path)
		if err == nil {
			err = ent.verify(blob)
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		blobs[i] = blob
	}
	return blobs, nil
}

// readShard restores shard i of man from r, which yields the shard's blob:
// its snapshot file (Restore) or a replication bootstrap frame (Follower).
// It checks as it reads — the size the manifest records and the blob's own
// checksum (readShardFilter), and the manifest's CRC-32C — and a bloomRF
// shard's words go straight into its word array, so the blob is never held
// whole.
func readShard(man *Manifest, i int, r io.Reader) (shardFilter, error) {
	ent := man.Shards[i]
	crc := crc32.New(castagnoli)
	f, err := readShardFilter(man.Options.Backend, io.TeeReader(r, crc), ent.Bytes)
	if err == nil {
		err = ent.verifyCRC(crc.Sum32())
	}
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	return f, nil
}

// restoredFilter assembles the shards readShard restored into the filter
// man describes.
func restoredFilter(man *Manifest, shards []shardFilter) (*ShardedFilter, error) {
	shardKeys := make([]uint64, len(man.Shards))
	for i, ent := range man.Shards {
		shardKeys[i] = ent.Keys
	}
	f, err := restoreSharded(man.Options, shards, man.InsertedKeys, shardKeys, man.Spans)
	if err != nil {
		return nil, err
	}
	f.setSnapshotInfo(SnapshotInfo{Seq: man.Seq, UnixNano: man.CreatedUnix, Bytes: man.totalBytes(), WALPos: man.WALPos})
	return f, nil
}

// restoreSnap rebuilds a filter from one snapshot's shard files, each read
// through readShard.
func (st *Store) restoreSnap(name string, man *Manifest) (*ShardedFilter, error) {
	snapDir := filepath.Join(st.filterDir(name), snapDirName(man.Seq))
	shards := make([]shardFilter, len(man.Shards))
	for i, ent := range man.Shards {
		path, err := shardPath(snapDir, i, ent)
		if err != nil {
			return nil, err
		}
		file, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		shards[i], err = readShard(man, i, file)
		file.Close()
		if err != nil {
			return nil, err
		}
	}
	return restoredFilter(man, shards)
}

// ReadSnapshot returns the newest intact snapshot of name as its manifest
// plus the verified raw shard blobs, holding the filter's write lock so a
// racing snapshot's pruning cannot delete the directory mid-read. The
// replication stream uses it to bootstrap a follower without pausing the
// filter: the blobs on disk are already a consistent cut, and the manifest
// carries the WAL position that makes the cut resumable.
func (st *Store) ReadSnapshot(name string) (Manifest, [][]byte, error) {
	l := st.nameLock(name)
	l.Lock()
	defer l.Unlock()
	seqs, err := st.listSnaps(name)
	if err != nil {
		return Manifest{}, nil, fmt.Errorf("server: reading snapshot of %q: %w", name, err)
	}
	for _, seq := range seqs {
		man := st.loadManifest(name, seq)
		if man == nil {
			continue
		}
		if blobs, err := st.readShardBlobs(name, man); err == nil {
			return *man, blobs, nil
		}
	}
	return Manifest{}, nil, ErrNoSnapshot
}

// Restore rebuilds a filter from its newest intact snapshot, falling back
// to older snapshots when the newest is incomplete (crash mid-write) or
// fails verification. It returns ErrNoSnapshot when nothing restorable
// exists.
func (st *Store) Restore(name string) (*ShardedFilter, Manifest, error) {
	seqs, err := st.listSnaps(name)
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("server: restore %q: %w", name, err)
	}
	var lastErr error
	for _, seq := range seqs {
		man := st.loadManifest(name, seq)
		if man == nil {
			continue // incomplete or foreign directory
		}
		f, err := st.restoreSnap(name, man)
		if err != nil {
			lastErr = fmt.Errorf("server: restore %q snap %d: %w", name, seq, err)
			continue
		}
		return f, *man, nil
	}
	if lastErr != nil {
		return nil, Manifest{}, fmt.Errorf("%w (%v)", ErrNoSnapshot, lastErr)
	}
	return nil, Manifest{}, ErrNoSnapshot
}

// Names lists the filter names with a directory in the store (restorable
// or not), sorted.
func (st *Store) Names() ([]string, error) {
	ents, err := os.ReadDir(st.root)
	if err != nil {
		return nil, fmt.Errorf("server: listing store: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name, err := url.PathUnescape(e.Name())
		if err != nil {
			continue // not a directory this store wrote
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// RestoreAll restores every filter in the store into reg, returning the
// manifest each restored filter came from (keyed by name — recovery uses
// the manifests' WAL positions to bound replay). Filters without a usable
// snapshot are skipped and reported in skipped; other errors abort. Names
// already registered are skipped as already-live.
func (st *Store) RestoreAll(reg *Registry) (restored map[string]Manifest, skipped map[string]error, err error) {
	names, err := st.Names()
	if err != nil {
		return nil, nil, err
	}
	restored = make(map[string]Manifest)
	skipped = make(map[string]error)
	for _, name := range names {
		f, man, err := st.Restore(name)
		if err != nil {
			skipped[name] = err
			continue
		}
		if err := reg.Register(name, f); err != nil {
			skipped[name] = err
			continue
		}
		restored[name] = man
	}
	return restored, skipped, nil
}

// Remove deletes every snapshot of name from disk (used when a filter is
// deleted, so a restart does not resurrect it).
func (st *Store) Remove(name string) error {
	l := st.nameLock(name)
	l.Lock()
	defer l.Unlock()
	if err := os.RemoveAll(st.filterDir(name)); err != nil {
		return fmt.Errorf("server: removing snapshots of %q: %w", name, err)
	}
	return syncDir(st.root)
}
