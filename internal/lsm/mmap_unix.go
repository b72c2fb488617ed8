//go:build unix

package lsm

import (
	"math"
	"os"
	"runtime"
	"syscall"
)

// mapTable maps the first n bytes of f read-only and shared, and registers
// a cleanup on the returned owner that unmaps them should the table never
// be closed. It returns a nil owner when the mapping fails (past
// vm.max_map_count, say), and the caller reads the bytes instead.
func mapTable(f *os.File, n uint64) ([]byte, *tableMapping) {
	if n > math.MaxInt {
		return nil, nil
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil
	}
	owner := &tableMapping{mem: mem}
	owner.cleanup = runtime.AddCleanup(owner, unmapTable, mem)
	return mem, owner
}

func unmapTable(mem []byte) { syscall.Munmap(mem) }
