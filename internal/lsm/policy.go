package lsm

import (
	"errors"
	"fmt"
)

// FilterPolicy builds and reads per-SSTable filter blocks, the RocksDB
// extension point through which the paper integrates every candidate
// filter ("implemented ... through a standard filter policy", §9). The
// policy is extended with range information, mirroring the paper's
// slice-based lower/upper-bound extension.
//
// Concrete policies (bloomRF, Bloom, prefix Bloom, fence pointers,
// Rosetta, SuRF) live in the internal/lsm/policies subpackage; the engine
// itself only depends on this interface.
type FilterPolicy interface {
	// Name identifies the policy inside the filter block.
	Name() string
	// CreateFilter builds the filter block payload over the SST's keys.
	CreateFilter(keys []uint64) ([]byte, error)
	// NewReader deserializes a filter block for probing.
	NewReader(data []byte) (FilterReader, error)
}

// FilterReader answers point and range membership for one SSTable.
type FilterReader interface {
	// KeyMayMatch reports whether the key may be present.
	KeyMayMatch(key uint64) bool
	// RangeMayMatch reports whether any key in [lo, hi] may be present.
	RangeMayMatch(lo, hi uint64) bool
}

// RangeSetReader is an optional FilterReader extension for filters whose
// range probe splits into a plan, which depends only on the query and the
// filter's layout, and its execution against one filter's bits. DB.Scan
// hands the readers of up to 64 tables at once to the newest one's
// RangeMayMatchSet when it implements this, so that the tables sharing a
// layout are probed from one plan.
type RangeSetReader interface {
	FilterReader
	// RangeMayMatchSet returns a mask whose bit j is
	// rs[j].RangeMayMatch(lo, hi), for len(rs) ≤ 64. rs may hold readers
	// of any policy.
	RangeMayMatchSet(lo, hi uint64, rs []FilterReader) uint64
}

// ErrUnknownPolicy is returned when opening a table whose filter block was
// written by an unregistered policy.
var ErrUnknownPolicy = errors.New("lsm: unknown filter policy")

// Registry maps policy names to policies for table opening.
type Registry map[string]FilterPolicy

func (r Registry) lookup(name string) (FilterPolicy, error) {
	p, ok := r[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPolicy, name)
	}
	return p, nil
}
