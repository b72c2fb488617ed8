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

// FilterSet answers point and range membership for up to 64 tables at
// once: bit j of each mask is the answer of the set's j-th reader. DB
// builds one set per 64 tables when it publishes a read view, at Open and
// after each flush, and probes it for every Get and Scan.
type FilterSet interface {
	// KeyMayMatch returns the mask of the readers that may hold key.
	KeyMayMatch(key uint64) uint64
	// RangeMayMatch returns the mask of the readers that may hold a key in
	// [lo, hi].
	RangeMayMatch(lo, hi uint64) uint64
}

// SetReader is an optional FilterReader extension for filters that answer
// faster together than one by one, as bloomRF filters of one layout do:
// they share each probe's hashes and plan. When the newest reader of up
// to 64 tables implements it, DB builds their set with its NewSet, and
// otherwise with ReaderSet.
type SetReader interface {
	FilterReader
	// NewSet returns the set of rs, len(rs) ≤ 64; rs may hold readers of
	// any policy, and the set may keep rs. The readers are those of
	// committed tables, which never change, so the set may copy what they
	// hold.
	NewSet(rs []FilterReader) FilterSet
}

// ReaderSet is the FilterSet that asks each reader in turn.
type ReaderSet []FilterReader

// KeyMayMatch implements FilterSet.
func (rs ReaderSet) KeyMayMatch(key uint64) uint64 {
	var m uint64
	for j, r := range rs {
		if r.KeyMayMatch(key) {
			m |= 1 << j
		}
	}
	return m
}

// RangeMayMatch implements FilterSet.
func (rs ReaderSet) RangeMayMatch(lo, hi uint64) uint64 {
	var m uint64
	for j, r := range rs {
		if r.RangeMayMatch(lo, hi) {
			m |= 1 << j
		}
	}
	return m
}

// newFilterSet returns the set of rs, len(rs) ≤ 64, built by the newest
// reader's NewSet when it has one.
func newFilterSet(rs []FilterReader) FilterSet {
	if s, ok := rs[len(rs)-1].(SetReader); ok {
		return s.NewSet(rs)
	}
	return ReaderSet(rs)
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
