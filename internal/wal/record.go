package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// On-disk record framing. Every record is
//
//	offset 0  crc32c  uint32 LE   over bytes [8, 9+len): the type byte and payload
//	offset 4  length  uint32 LE   payload length
//	offset 8  type    uint8
//	offset 9  payload
//
// so a record occupies headerSize + len bytes. The CRC is CRC-32C
// (Castagnoli), the same polynomial the snapshot store uses for shard
// blobs. A record whose header or payload is cut short, whose length
// exceeds MaxRecordBytes, or whose CRC does not match is invalid. Where an
// invalid record sits decides what it means: at the tail of the newest
// segment it is a torn final write (a crash mid-append) and is dropped;
// anywhere in an older, rotation-sealed segment it is corruption and is
// surfaced as ErrCorrupt rather than silently skipped or replayed.

// headerSize is the fixed per-record framing overhead.
const headerSize = 9

// MaxRecordBytes bounds one record's payload so a corrupt length field
// cannot drive a multi-gigabyte allocation. 64 MiB fits the server's
// largest insert batch (MaxBatch = 1<<20 keys = 8 MiB) with a wide margin.
const MaxRecordBytes = 64 << 20

// castagnoli is the shared CRC-32C table.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one logical log entry: an application-defined type byte plus
// an opaque payload. The WAL does not interpret either.
type Record struct {
	Type byte
	Data []byte
}

// EncodedLen returns the record's on-disk size, framing included: a
// record at position p is followed by one at p + EncodedLen. Replication
// followers use it to advance their applied position exactly as the
// primary's log does.
func (r Record) EncodedLen() int { return headerSize + len(r.Data) }

// appendRecord encodes r onto buf and returns the extended slice.
func appendRecord(buf []byte, r Record) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(r.Data)))
	hdr[8] = r.Type
	crc := crc32.Update(0, castagnoli, hdr[8:9])
	crc = crc32.Update(crc, castagnoli, r.Data)
	binary.LittleEndian.PutUint32(hdr[0:4], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, r.Data...)
}

// Log errors.
var (
	// errTorn marks an incomplete or checksum-failing record; the scanner
	// decides whether it is a droppable torn tail or hard corruption based
	// on where it sits.
	errTorn = errors.New("wal: torn or corrupt record")
	// ErrCorrupt is returned when an invalid record is found in a
	// rotation-sealed segment (or a manually truncated one): unlike a torn
	// tail, data after it existed and is unrecoverable.
	ErrCorrupt = errors.New("wal: corrupt record in sealed segment")
	// ErrTooOld is returned by ReadFrom when the requested position
	// precedes the oldest retained segment (truncated away); callers fall
	// back to a snapshot bootstrap.
	ErrTooOld = errors.New("wal: position older than the oldest retained segment")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log is closed")
)

// parseRecord decodes the record at the start of b, returning errTorn when
// b holds no complete, checksum-clean record.
func parseRecord(b []byte) (Record, int, error) {
	if len(b) < headerSize {
		return Record{}, 0, errTorn
	}
	n := int(binary.LittleEndian.Uint32(b[4:8]))
	if n > MaxRecordBytes {
		return Record{}, 0, errTorn
	}
	if len(b) < headerSize+n {
		return Record{}, 0, errTorn
	}
	crc := crc32.Update(0, castagnoli, b[8:9+n])
	if crc != binary.LittleEndian.Uint32(b[0:4]) {
		return Record{}, 0, errTorn
	}
	return Record{Type: b[8], Data: b[9 : 9+n]}, headerSize + n, nil
}
