package lsm

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMemtableSet inserts 100k distinct keys that share the row-key
// prefix the transaction layer writes ("s/<state>/", txn.appendRowKey), in
// the shuffled order a keyed stream delivers them — the memtable's share
// of a commit batch. One op is one set; a fresh memtable starts whenever
// the 100k keys are used up, as a flush would.
func BenchmarkMemtableSet(b *testing.B) {
	const n = 100_000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("s/state0/key-%08d", i))
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	val := make([]byte, 24)
	b.ReportAllocs()
	b.ResetTimer()
	var m *memtable
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			m = newMemtable()
		}
		m.set(keys[i%n], val, kindPut)
	}
}
