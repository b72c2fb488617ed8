package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// modelRec is what the reference model holds per key.
type modelRec struct {
	value []byte
	tomb  bool
}

// checkMemtable compares s with the model: length, all() order and
// contents, get of every stored key and of absent ones, and scans at the
// extreme bounds, over empty and one-key ranges and at random bounds.
func checkMemtable(t *testing.T, s *memtable, ref map[uint64]modelRec, rng *rand.Rand) {
	t.Helper()
	keys := make([]uint64, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if s.length() != len(keys) {
		t.Fatalf("length = %d, want %d", s.length(), len(keys))
	}
	all := s.all()
	if len(all) != len(keys) {
		t.Fatalf("all() has %d records, want %d", len(all), len(keys))
	}
	for i, r := range all {
		want := ref[keys[i]]
		if r.key != keys[i] || r.tomb != want.tomb || !bytes.Equal(r.value, want.value) {
			t.Fatalf("all()[%d] = %d %q %v, want %d %q %v", i, r.key, r.value, r.tomb, keys[i], want.value, want.tomb)
		}
		if cap(r.value) != len(r.value) {
			t.Fatalf("all()[%d]: value has capacity %d past its length %d", i, cap(r.value), len(r.value))
		}
		v, tomb, found := s.get(r.key)
		if !found || tomb != want.tomb || !bytes.Equal(v, want.value) {
			t.Fatalf("get(%d) = %q %v %v, want %q %v", r.key, v, tomb, found, want.value, want.tomb)
		}
	}
	for i := 0; i < 200; i++ {
		k := rng.Uint64()
		if _, ok := ref[k]; ok {
			continue
		}
		if _, _, found := s.get(k); found {
			t.Fatalf("get(%d) found an absent key", k)
		}
	}
	scan := func(lo, hi uint64) {
		t.Helper()
		i, _ := slices.BinarySearch(keys, lo)
		s.scan(lo, hi, func(k uint64, v []byte, tomb bool) bool {
			if i == len(keys) || keys[i] > hi || k != keys[i] {
				t.Fatalf("scan(%d, %d) yielded %d out of order or bounds", lo, hi, k)
			}
			if want := ref[k]; tomb != want.tomb || !bytes.Equal(v, want.value) {
				t.Fatalf("scan(%d, %d) yielded %d = %q %v, want %q %v", lo, hi, k, v, tomb, want.value, want.tomb)
			}
			i++
			return true
		})
		if i < len(keys) && keys[i] <= hi {
			t.Fatalf("scan(%d, %d) stopped before %d", lo, hi, keys[i])
		}
	}
	scan(0, ^uint64(0))
	scan(0, 0)
	scan(^uint64(0), ^uint64(0))
	for i := 0; i < 50 && len(keys) > 1; i++ {
		j := rng.Intn(len(keys) - 1)
		scan(keys[j], keys[j])
		if keys[j+1]-keys[j] > 1 {
			scan(keys[j]+1, keys[j+1]-1) // empty
		}
		lo, hi := keys[j], keys[j+rng.Intn(len(keys)-j)]
		scan(lo+uint64(rng.Intn(2)), hi)
		a, b := rng.Uint64(), rng.Uint64()
		scan(min(a, b), max(a, b))
	}
	// fn returning false stops the scan.
	calls := 0
	s.scan(0, ^uint64(0), func(uint64, []byte, bool) bool { calls++; return calls < 3 })
	if want := min(3, len(keys)); calls != want {
		t.Fatalf("scan stopped after %d calls, want %d", calls, want)
	}
}

// TestMemtableModel holds the memtable to a map over ascending, descending
// and random insertion orders across many leaf splits, then over random
// overwrites with longer and shorter values and deletes, which also make
// the arena compact.
func TestMemtableModel(t *testing.T) {
	const n = 4000
	for _, order := range []string{"ascending", "descending", "random"} {
		t.Run(order, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(order))))
			keys := []uint64{0, ^uint64(0)}
			for len(keys) < n {
				keys = append(keys, rng.Uint64()>>uint(rng.Intn(64)))
			}
			slices.Sort(keys)
			keys = slices.Compact(keys)
			switch order {
			case "descending":
				slices.Reverse(keys)
			case "random":
				rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			}
			s := newMemtable()
			ref := map[uint64]modelRec{}
			mem := 0
			put := func(k uint64, v []byte, tomb bool) {
				t.Helper()
				if old, ok := ref[k]; ok {
					mem -= len(old.value)
				} else {
					mem += 16
				}
				if tomb {
					v = nil
				}
				ref[k] = modelRec{value: v, tomb: tomb}
				mem += len(v)
				if got := s.put(k, v, tomb); got != mem {
					t.Fatalf("put(%d) returned size %d, want %d", k, got, mem)
				}
			}
			value := func(maxLen int) []byte {
				v := make([]byte, rng.Intn(maxLen+1))
				rng.Read(v)
				return v
			}
			checkMemtable(t, s, ref, rng)
			for i, k := range keys {
				put(k, value(23), false)
				if i%1000 == 0 {
					checkMemtable(t, s, ref, rng)
				}
			}
			checkMemtable(t, s, ref, rng)
			if len(s.leaves) < len(keys)/leafCap {
				t.Fatalf("%d keys in %d leaves: too few splits", len(keys), len(s.leaves))
			}
			compactions := 0
			for i := 0; i < 30000; i++ {
				k := keys[rng.Intn(len(keys))]
				dead := s.dead
				switch rng.Intn(4) {
				case 0:
					put(k, nil, true)
				case 1:
					put(k, value(4), false) // mostly shorter
				default:
					put(k, value(40), false) // mostly longer
				}
				if s.dead < dead {
					compactions++
				}
				if i%5000 == 0 {
					checkMemtable(t, s, ref, rng)
				}
			}
			checkMemtable(t, s, ref, rng)
			if compactions == 0 {
				t.Fatal("no arena compaction in 30000 overwrites and deletes")
			}
		})
	}
}

// TestMemtableCompactionKeepsValues checks that values handed out before
// an arena compaction keep their bytes after it, and that reads after it
// see the same values from the fresh arena.
func TestMemtableCompactionKeepsValues(t *testing.T) {
	s := newMemtable()
	held := map[uint64][]byte{}
	for k := uint64(0); k < 100; k++ {
		s.put(k, []byte(fmt.Sprintf("value-%d", k)), false)
	}
	for k := uint64(0); k < 100; k += 2 {
		v, _, _ := s.get(k)
		held[k] = v
	}
	var scanned [][]byte
	s.scan(1, 9, func(_ uint64, v []byte, _ bool) bool {
		scanned = append(scanned, v)
		return true
	})
	all := s.all()
	// A compaction is the one thing that lowers the dead byte count.
	for i, dead := 0, 0; s.dead >= dead; i++ {
		if i == 10000 {
			t.Fatal("no arena compaction in 10000 overwrites and deletes")
		}
		dead = s.dead
		if k := uint64(i % 100); k%2 == 0 {
			s.put(k, []byte(fmt.Sprintf("new-%d-%d", k, i)), false)
		} else {
			s.put(k, nil, true)
		}
	}
	for k, v := range held {
		if want := fmt.Sprintf("value-%d", k); string(v) != want {
			t.Fatalf("held value of %d = %q after compaction, want %q", k, v, want)
		}
	}
	for i, v := range scanned {
		if want := fmt.Sprintf("value-%d", 1+i); string(v) != want {
			t.Fatalf("scanned value %d = %q after compaction, want %q", i, v, want)
		}
	}
	for _, r := range all {
		if want := fmt.Sprintf("value-%d", r.key); string(r.value) != want {
			t.Fatalf("all() value of %d = %q after compaction, want %q", r.key, r.value, want)
		}
	}
	for _, r := range s.all() {
		v, tomb, _ := s.get(r.key)
		if !bytes.Equal(v, r.value) || tomb != r.tomb || tomb != (r.key%2 == 1) || !tomb && !bytes.HasPrefix(v, []byte("new-")) {
			t.Fatalf("get(%d) = %q %v after compaction, all() has %q %v", r.key, v, tomb, r.value, r.tomb)
		}
	}
}

// TestMemtableWritesRaceReads runs puts, overwrites and deletes beside
// gets and scans. Every value read must be whole, and every value held
// must keep its bytes while writers split leaves, grow the arena and
// compact it.
func TestMemtableWritesRaceReads(t *testing.T) {
	const keys, writes = 2048, 40000
	s := newMemtable()
	// A value is its key, then a tag, then up to 23 filler bytes equal to
	// the tag, so a reader can check it whole.
	value := func(k uint64, tag byte) []byte {
		v := binary.LittleEndian.AppendUint64(nil, k)
		return append(v, bytes.Repeat([]byte{tag}, 1+int(tag)%24)...)
	}
	whole := func(k uint64, v []byte) bool {
		return len(v) >= 9 && binary.LittleEndian.Uint64(v) == k &&
			len(v) == 9+int(v[8])%24 && bytes.Count(v[8:], v[8:9]) == len(v)-8
	}
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < writes; i++ {
				k := uint64(rng.Intn(keys))*2 + uint64(w)
				if rng.Intn(8) == 0 {
					s.put(k, nil, true)
				} else {
					s.put(k, value(k, byte(rng.Intn(256))), false)
				}
			}
		}()
	}
	reader := func(seed int64, read func(rng *rand.Rand, held map[uint64][]byte) error) {
		defer readers.Done()
		rng := rand.New(rand.NewSource(seed))
		held := map[uint64][]byte{}
		for {
			select {
			case <-done:
				for k, v := range held {
					if !whole(k, v) {
						errs <- fmt.Errorf("held value of %d changed to %x", k, v)
						return
					}
				}
				return
			default:
			}
			if err := read(rng, held); err != nil {
				errs <- err
				return
			}
		}
	}
	readers.Add(2)
	go reader(10, func(rng *rand.Rand, held map[uint64][]byte) error {
		k := uint64(rng.Intn(2 * keys))
		v, tomb, found := s.get(k)
		if found && !tomb {
			if !whole(k, v) {
				return fmt.Errorf("get(%d) = %x", k, v)
			}
			held[k] = v
		}
		return nil
	})
	go reader(11, func(rng *rand.Rand, held map[uint64][]byte) error {
		lo := uint64(rng.Intn(2 * keys))
		hi, prev, first := lo+uint64(rng.Intn(64)), uint64(0), true
		var err error
		s.scan(lo, hi, func(k uint64, v []byte, tomb bool) bool {
			switch {
			case k < lo || k > hi || !first && k <= prev:
				err = fmt.Errorf("scan(%d, %d) yielded %d after %d", lo, hi, k, prev)
			case !tomb && !whole(k, v):
				err = fmt.Errorf("scan(%d, %d) yielded %d = %x", lo, hi, k, v)
			case !tomb:
				held[k] = v
			}
			prev, first = k, false
			return err == nil
		})
		return err
	})
	writers.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
