package lsm

import (
	"fmt"
	"testing"
)

// Policy-comparing DB benchmarks live in the policies subpackage; here we
// only measure the engine-internal memtable, at one lsm-empty-scan table's
// records (2^19 keys over 25 tables) and at 128k records.
func BenchmarkMemtable(b *testing.B) {
	value := make([]byte, 16)
	for _, n := range []int{20972, 128 << 10} {
		b.Run(fmt.Sprintf("put/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := newMemtable()
				for j := 0; j < n; j++ {
					s.put(uint64(j)*0x9e3779b97f4a7c15, value, false)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
		b.Run(fmt.Sprintf("get/n=%d", n), func(b *testing.B) {
			s := newMemtable()
			for j := 0; j < n; j++ {
				s.put(uint64(j)*0x9e3779b97f4a7c15, value, false)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.get(uint64(i%n) * 0x9e3779b97f4a7c15)
			}
		})
	}
}
