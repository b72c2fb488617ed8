// Package lsm implements the LSM key-value store substrate the experiments
// run in — a RocksDB stand-in (the paper integrates bloomRF into RocksDB
// v6.3.6 with compaction disabled): a memtable of sorted leaves over one
// value arena, SSTables with data blocks, an index block and one filter
// block built through a pluggable FilterPolicy, and a DB front-end with
// Put/Get/Delete/Scan over L0 files.
//
// I/O is accounted per block read and can be charged a configurable
// synthetic latency so that filter quality translates into end-to-end
// latency shape the way it does on the paper's disk-backed testbed.
package lsm

import (
	"slices"
	"sync"
	"sync/atomic"
)

// leafCap is the most entries one memtable leaf holds; a full leaf splits
// in half.
const leafCap = 64

// entry is one memtable record. It holds no pointer: its value is
// arena[off:off+n].
type entry struct {
	key  uint64
	off  uint64
	n    uint32
	tomb bool
}

// memtable is an ordered map from uint64 to ([]byte, tombstone) protected
// by a RWMutex. Later Puts of the same key overwrite. Entries sit in
// leaves of at most leafCap, sorted by key; firsts[i] is leaves[i]'s first
// key, so a binary search over firsts finds the leaf and one within the
// leaf finds the entry.
//
// Values are copied into one append-only arena and handed out as views
// capped at their own length. Bytes once written never change: an
// overwrite appends a new copy, and a compaction copies the live values
// into a fresh arena, leaving the old one to readers still holding values
// from it.
type memtable struct {
	mu     sync.RWMutex
	leaves [][]entry
	firsts []uint64
	arena  []byte
	// n is the record count. It is written under mu and read without it
	// by get and scan, which skip an empty memtable without taking mu: a
	// put that has not counted its record yet has not returned either.
	n    atomic.Int64
	mem  int // live payload bytes plus 16 per record
	dead int // arena bytes no entry refers to
}

func newMemtable() *memtable { return &memtable{} }

// leafOf returns the index of the leaf that holds or would hold key: the
// last leaf whose first key is ≤ key, or the first leaf.
func (s *memtable) leafOf(key uint64) int {
	i, found := slices.BinarySearch(s.firsts, key)
	if !found && i > 0 {
		i--
	}
	return i
}

// search returns the position of key in leaf, or where it would go.
func search(leaf []entry, key uint64) (int, bool) {
	lo, hi := 0, len(leaf)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if leaf[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(leaf) && leaf[lo].key == key
}

// value returns e's value as a view of the arena.
func (s *memtable) value(e entry) []byte {
	if e.tomb {
		return nil
	}
	end := e.off + uint64(e.n)
	return s.arena[e.off:end:end]
}

// put inserts or overwrites key and returns the memtable's size: live
// payload bytes plus 16 per record.
func (s *memtable) put(key uint64, value []byte, tomb bool) int {
	if tomb {
		value = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := entry{key: key, off: uint64(len(s.arena)), n: uint32(len(value)), tomb: tomb}
	s.arena = append(s.arena, value...)
	if len(s.leaves) == 0 {
		s.leaves = [][]entry{make([]entry, 0, leafCap)}
		s.firsts = []uint64{key}
	}
	li := s.leafOf(key)
	leaf := s.leaves[li]
	j, found := search(leaf, key)
	if found {
		old := leaf[j].n
		leaf[j] = e
		s.mem += len(value) - int(old)
		s.dead += int(old)
		if s.dead > s.mem {
			s.compact()
		}
		return s.mem
	}
	if len(leaf) == leafCap {
		right := append(make([]entry, 0, leafCap), leaf[leafCap/2:]...)
		s.leaves[li] = leaf[:leafCap/2]
		s.leaves = slices.Insert(s.leaves, li+1, right)
		s.firsts = slices.Insert(s.firsts, li+1, right[0].key)
		if j > leafCap/2 {
			li, j = li+1, j-leafCap/2
		}
		leaf = s.leaves[li]
	}
	s.leaves[li] = slices.Insert(leaf, j, e)
	if j == 0 {
		s.firsts[li] = key
	}
	s.n.Add(1)
	s.mem += len(value) + 16
	return s.mem
}

// compact copies the live values into a fresh arena. It runs once the
// dead bytes exceed the memtable's size, so its cost, linear in that
// size, is paid for by the overwrites that made them dead.
func (s *memtable) compact() {
	arena := make([]byte, 0, s.mem-16*int(s.n.Load()))
	for _, leaf := range s.leaves {
		for j := range leaf {
			v := s.value(leaf[j])
			leaf[j].off = uint64(len(arena))
			arena = append(arena, v...)
		}
	}
	s.arena, s.dead = arena, 0
}

// get returns the value and whether the key exists (found reports presence
// of any record, including tombstones — tomb distinguishes).
func (s *memtable) get(key uint64) (value []byte, tomb, found bool) {
	if s.n.Load() == 0 {
		return nil, false, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	leaf := s.leaves[s.leafOf(key)]
	if j, ok := search(leaf, key); ok {
		return s.value(leaf[j]), leaf[j].tomb, true
	}
	return nil, false, false
}

// scan calls fn for each record with lo ≤ key ≤ hi in order; fn returns
// false to stop.
func (s *memtable) scan(lo, hi uint64, fn func(key uint64, value []byte, tomb bool) bool) {
	if s.n.Load() == 0 {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	li := s.leafOf(lo)
	j, _ := search(s.leaves[li], lo)
	for ; li < len(s.leaves); li, j = li+1, 0 {
		for _, e := range s.leaves[li][j:] {
			if e.key > hi || !fn(e.key, s.value(e), e.tomb) {
				return
			}
		}
	}
}

// length returns the number of records.
func (s *memtable) length() int { return int(s.n.Load()) }

// all returns every record in key order (for flushing).
func (s *memtable) all() []record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]record, 0, s.n.Load())
	for _, leaf := range s.leaves {
		for _, e := range leaf {
			out = append(out, record{key: e.key, value: s.value(e), tomb: e.tomb})
		}
	}
	return out
}

// record is one key-value-tombstone entry.
type record struct {
	key   uint64
	value []byte
	tomb  bool
}
