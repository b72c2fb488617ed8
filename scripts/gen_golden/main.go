// Command gen_golden regenerates one checked-in golden snapshot fixture,
// internal/server/testdata/golden-v<N>-store: a snapshot as a writer of
// manifest format_version N left it. TestGoldenSnapshotRestore restores
// each fixture to pin that every manifest era stays restorable.
//
// It marshals the current server.Manifest after Manifest.Downgrade has
// cleared every field a later era introduced, so the manifest era table
// in internal/server/persist.go is the only record of which era wrote
// which field. Timestamps are fixed, so regeneration is byte-stable; CI
// regenerates every fixture and fails if any byte changed. Run it from the
// repository root:
//
//	go run ./scripts/gen_golden -version N
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"

	"repro/internal/server"
)

// fixtures are the golden snapshots by format version: the filter's name and
// options, and the WAL position a snapshot of that era recorded (cleared by
// Downgrade for eras before the WAL).
var fixtures = map[int]struct {
	name   string
	opt    server.FilterOptions
	walPos uint64
}{
	1: {"users", server.FilterOptions{Shards: 2, Partitioning: server.PartitionHash}, 0},
	2: {"events", server.FilterOptions{Shards: 4, Partitioning: server.PartitionRange}, 0},
	3: {"sessions", server.FilterOptions{Shards: 4, Partitioning: server.PartitionRange}, 8192},
	4: {"orders", server.FilterOptions{Shards: 4, Partitioning: server.PartitionRange}, 8192},
	5: {"ledger", server.FilterOptions{Shards: 4, Partitioning: server.PartitionRange}, 8192},
}

// fixtureKeys is the deterministic insert set shared by every fixture; the
// restore test probes the same sequence.
func fixtureKeys() []uint64 {
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15 // spread across the keyspace
	}
	return keys
}

func main() {
	version := flag.Int("version", 0, "manifest format version of the fixture to regenerate")
	flag.Parse()
	fx, ok := fixtures[*version]
	if !ok {
		log.Fatalf("no golden fixture for -version %d", *version)
	}
	opt := fx.opt
	opt.ExpectedKeys = 4096
	opt.BitsPerKey = 16
	opt.Backend = server.BackendBloomRF
	f, err := server.NewSharded(opt)
	if err != nil {
		log.Fatal(err)
	}
	keys := fixtureKeys()
	f.InsertBatch(keys)

	snapDir := filepath.Join("internal", "server", "testdata",
		fmt.Sprintf("golden-v%d-store", *version), fx.name, "snap-0000000001")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		log.Fatal(err)
	}
	st := f.Stats()
	man := server.Manifest{
		Name:         fx.name,
		Seq:          1,
		CreatedUnix:  1753600000000000000, // fixed so regeneration is byte-stable
		Options:      opt,
		InsertedKeys: uint64(len(keys)),
		WALPos:       fx.walPos,
		Spans:        st.Spans,
		Epoch:        1,
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for i := 0; i < f.NumShards(); i++ {
		blob, err := f.MarshalShard(i)
		if err != nil {
			log.Fatal(err)
		}
		file := fmt.Sprintf("shard-%04d.bin", i)
		if err := os.WriteFile(filepath.Join(snapDir, file), blob, 0o644); err != nil {
			log.Fatal(err)
		}
		man.Shards = append(man.Shards, server.ShardEntry{
			File:   file,
			Bytes:  int64(len(blob)),
			CRC32C: crc32.Checksum(blob, castagnoli),
			Keys:   st.ShardKeys[i],
			// Writers record the shard's live mutation epoch; restore
			// ignores the value, so the fixture freezes a plausible one.
			Mut: 1,
		})
	}
	man.Downgrade(*version)
	body, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snapDir, "manifest.json"), body, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote v%d fixture under %s", *version, snapDir)
}
