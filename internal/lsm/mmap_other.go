//go:build !unix

package lsm

import "os"

// mapTable maps nothing on platforms without syscall.Mmap: every table
// reads its data blocks into the heap.
func mapTable(*os.File, uint64) ([]byte, *tableMapping) { return nil, nil }

func unmapTable([]byte) {}
