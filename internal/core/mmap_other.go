//go:build !unix

package core

// mapWords maps nothing on platforms without syscall.Mmap: every filter's
// words stay on the Go heap.
func mapWords(uint64) ([]uint64, *wordMapping) { return nil, nil }
