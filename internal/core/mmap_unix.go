//go:build unix

package core

import (
	"math"
	"runtime"
	"syscall"
	"unsafe"
)

// mapWords maps n zeroed words from one anonymous private mapping, which a
// cleanup on the returned owner unmaps. It returns a nil owner when the
// mapping fails (past vm.max_map_count, say), and the caller falls back to
// the heap.
func mapWords(n uint64) ([]uint64, *wordMapping) {
	if n > math.MaxInt/8 {
		return nil, nil
	}
	mem, err := syscall.Mmap(-1, 0, int(n*8), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil
	}
	mappedBytes.Add(int64(len(mem)))
	owner := &wordMapping{mem: mem}
	runtime.AddCleanup(owner, unmapWords, mem)
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(mem))), n), owner
}

func unmapWords(mem []byte) {
	if syscall.Munmap(mem) == nil {
		mappedBytes.Add(-int64(len(mem)))
	}
}
