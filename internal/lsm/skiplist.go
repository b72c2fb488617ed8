// Package lsm implements the LSM key-value store substrate the experiments
// run in — a RocksDB stand-in (the paper integrates bloomRF into RocksDB
// v6.3.6 with compaction disabled): a skiplist memtable, SSTables with data
// blocks, an index block and one filter block built through a pluggable
// FilterPolicy, and a DB front-end with Put/Get/Delete/Scan over L0 files.
//
// I/O is accounted per block read and can be charged a configurable
// synthetic latency so that filter quality translates into end-to-end
// latency shape the way it does on the paper's disk-backed testbed.
package lsm

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

const maxHeight = 16

// skipNode is one tower in the skiplist.
type skipNode struct {
	key   uint64
	value []byte
	tomb  bool
	next  [maxHeight]*skipNode
	h     int
}

// skiplist is an ordered map from uint64 to ([]byte, tombstone) protected
// by a RWMutex — the memtable. Later Puts of the same key overwrite.
type skiplist struct {
	mu   sync.RWMutex
	head *skipNode
	rng  *rand.Rand
	// n is the record count. It is written under mu and read without it
	// by get and scan, which skip an empty memtable without taking mu: a
	// put that has not counted its record yet has not returned either.
	n   atomic.Int64
	mem int // approximate payload bytes
}

func newSkiplist(seed int64) *skiplist {
	return &skiplist{
		head: &skipNode{h: maxHeight},
		rng:  rand.New(rand.NewSource(seed)),
	}
}

func (s *skiplist) randomHeight() int {
	h := 1
	for h < maxHeight && s.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// put inserts or overwrites key.
func (s *skiplist) put(key uint64, value []byte, tomb bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var prev [maxHeight]*skipNode
	x := s.head
	for lvl := maxHeight - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && x.next[lvl].key < key {
			x = x.next[lvl]
		}
		prev[lvl] = x
	}
	if nx := prev[0].next[0]; nx != nil && nx.key == key {
		s.mem += len(value) - len(nx.value)
		nx.value = value
		nx.tomb = tomb
		return
	}
	h := s.randomHeight()
	node := &skipNode{key: key, value: value, tomb: tomb, h: h}
	for lvl := 0; lvl < h; lvl++ {
		node.next[lvl] = prev[lvl].next[lvl]
		prev[lvl].next[lvl] = node
	}
	s.n.Add(1)
	s.mem += len(value) + 16
}

// get returns the value and whether the key exists (found reports presence
// of any record, including tombstones — tomb distinguishes).
func (s *skiplist) get(key uint64) (value []byte, tomb, found bool) {
	if s.n.Load() == 0 {
		return nil, false, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	x := s.head
	for lvl := maxHeight - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && x.next[lvl].key < key {
			x = x.next[lvl]
		}
	}
	if nx := x.next[0]; nx != nil && nx.key == key {
		return nx.value, nx.tomb, true
	}
	return nil, false, false
}

// scan calls fn for each record with lo ≤ key ≤ hi in order; fn returns
// false to stop.
func (s *skiplist) scan(lo, hi uint64, fn func(key uint64, value []byte, tomb bool) bool) {
	if s.n.Load() == 0 {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	x := s.head
	for lvl := maxHeight - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && x.next[lvl].key < lo {
			x = x.next[lvl]
		}
	}
	for nx := x.next[0]; nx != nil && nx.key <= hi; nx = nx.next[0] {
		if !fn(nx.key, nx.value, nx.tomb) {
			return
		}
	}
}

// length returns the number of records.
func (s *skiplist) length() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int(s.n.Load())
}

// memory returns the approximate payload size.
func (s *skiplist) memory() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mem
}

// all returns every record in key order (for flushing).
func (s *skiplist) all() []record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]record, 0, s.n.Load())
	for nx := s.head.next[0]; nx != nil; nx = nx.next[0] {
		out = append(out, record{key: nx.key, value: nx.value, tomb: nx.tomb})
	}
	return out
}

// record is one key-value-tombstone entry.
type record struct {
	key   uint64
	value []byte
	tomb  bool
}
