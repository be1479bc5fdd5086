package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sistream/internal/kv"
)

// rowKeys returns n distinct keys that share the row-key prefix the
// transaction layer writes ("s/<state>/", txn.appendRowKey), in the
// shuffled order a keyed stream delivers them.
func rowKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("s/state0/key-%08d", i))
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// BenchmarkMemtableSet inserts 100k distinct row keys in shuffled order —
// the memtable's share of a commit batch. One op is one set; a fresh
// memtable starts whenever the 100k keys are used up, as a flush would.
func BenchmarkMemtableSet(b *testing.B) {
	const n = 100_000
	keys := rowKeys(n)
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

// BenchmarkMemtableOrder40k is the cost BenchmarkMemtableSet no longer
// contains: one op puts one full generation — 40k shuffled row keys with
// 24-byte values, what the default 4 MiB threshold holds — in key order
// and walks it, as the flush worker does once per memtable.
func BenchmarkMemtableOrder40k(b *testing.B) {
	m := newMemtableSized(4 << 20)
	val := make([]byte, 24)
	for _, k := range rowKeys(40_000) {
		m.set(k, val, kindPut)
	}
	b.ReportAllocs()
	b.ResetTimer()
	walked := 0
	for i := 0; i < b.N; i++ {
		it := m.iterator(nil)
		for it.seekToFirst(); it.valid(); it.next() {
			walked += len(it.key())
		}
	}
	if walked != b.N*40_000*len("s/state0/key-00000000") {
		b.Fatalf("walked %d key bytes", walked)
	}
}

// BenchmarkApplySynced64 is one durable commit batch in the store: 64 row
// puts, one WAL record, one data-only sync, 64 memtable inserts. Like the
// commit path it rebuilds its keys, all new, in one arena per batch, so
// memtable and log fill at the pace of a real run, and it starts timing
// on the first recycled log segment, where every store that has flushed
// twice lives and a sync waits for no journal commit.
func BenchmarkApplySynced64(b *testing.B) {
	d, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	const rows, klen = 64, len("s/state0/key-00000000")
	arena := bytes.Repeat([]byte("s/state0/key-00000000"), rows)
	val := make([]byte, 24)
	batch := kv.NewBatch(rows)
	row := uint32(0)
	apply := func(sync bool) {
		batch.Reset()
		for i := 0; i < rows; i++ {
			k := arena[i*klen : (i+1)*klen]
			n := row * 2654435761 % 100_000_000 // scattered, and distinct but for a few
			row++
			for at := klen - 1; at >= klen-8; at-- {
				k[at] = '0' + byte(n%10)
				n /= 10
			}
			batch.PutOwned(k, val)
		}
		if err := d.Apply(batch, sync); err != nil {
			b.Fatal(err)
		}
	}
	for d.Stats().WALSegmentsRecycled == 0 {
		apply(false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(true)
	}
}

// memModel is the reference the memtable is checked against: a map, put
// in order by sorting its keys.
type memModel map[string]memModelEntry

type memModelEntry struct {
	value string
	kind  entryKind
}

func (mm memModel) sortedKeys() []string {
	keys := make([]string, 0, len(mm))
	for k := range mm {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkMemtableAgainstModel compares len, every get (and one miss) and a
// fresh iterator — a full walk and a seek to probe — with the model.
func checkMemtableAgainstModel(t *testing.T, m *memtable, model memModel, probe string) {
	t.Helper()
	if m.len() != len(model) {
		t.Fatalf("len() = %d, model holds %d distinct keys", m.len(), len(model))
	}
	keys := model.sortedKeys()
	for _, k := range keys {
		v, kind, found := m.get([]byte(k))
		if want := model[k]; !found || kind != want.kind || string(v) != want.value {
			t.Fatalf("get(%q) = %q kind %d found %t, model has %q kind %d", k, v, kind, found, want.value, want.kind)
		}
	}
	if _, _, found := m.get([]byte(probe + "\x00absent")); found {
		t.Fatalf("get finds a key that was never set")
	}
	it := m.iterator(nil)
	if it.valid() {
		t.Fatal("a new iterator is positioned before any seek")
	}
	walk := func(from int) {
		t.Helper()
		for _, k := range keys[from:] {
			if !it.valid() {
				t.Fatalf("iterator ends before %q", k)
			}
			if want := model[k]; string(it.key()) != k || string(it.value()) != want.value || it.kind() != want.kind {
				t.Fatalf("iterator at %q=%q kind %d, model next is %q=%q kind %d", it.key(), it.value(), it.kind(), k, want.value, want.kind)
			}
			it.next()
		}
		if it.valid() {
			t.Fatalf("iterator continues past the model's last key, at %q", it.key())
		}
	}
	it.seekToFirst()
	walk(0)
	it.seek([]byte(probe))
	walk(sort.SearchStrings(keys, probe))
}

// runMemtableScript interprets script as memtable operations, three bytes
// each (what, which key, which value), over a small key space so that
// overwrites are the rule: put, put of an empty value, put of a longer
// value, put of a shorter value, tombstone, tombstone-then-put, and full
// checks against the model — one of them with an iterator taken before
// further sets and a second one after them.
func runMemtableScript(t *testing.T, script []byte) {
	m := newMemtable()
	model := memModel{}
	key := func(b byte) string { return fmt.Sprintf("s/state%d/key-%03d", b%2, b%48) }
	set := func(k, v string, kind entryKind) {
		m.set([]byte(k), []byte(v), kind)
		model[k] = memModelEntry{v, kind}
	}
	for ; len(script) >= 3; script = script[3:] {
		k, arg := key(script[1]), script[2]
		switch script[0] % 8 {
		case 0, 1:
			set(k, fmt.Sprintf("v%d", arg), kindPut)
		case 2:
			set(k, "", kindPut)
		case 3:
			set(k, model[k].value+string(bytes.Repeat([]byte{'L'}, 1+int(arg)%300)), kindPut)
		case 4:
			set(k, model[k].value[:len(model[k].value)/2], kindPut)
		case 5:
			set(k, "", kindDelete)
		case 6:
			set(k, "", kindDelete)
			set(k, fmt.Sprintf("back%d", arg), kindPut)
		case 7:
			m.iterator(nil).seekToFirst() // must leave nothing behind that the next iterator trusts
			set(k, "set-under-an-iterator", kindPut)
			set(key(arg), "", kindDelete)
			checkMemtableAgainstModel(t, m, model, key(arg))
		}
	}
	checkMemtableAgainstModel(t, m, model, "s/state1/")
}

// TestMemtableModel runs seeded random scripts, long enough to regrow the
// index and to fill several chunks, through runMemtableScript; the fuzz
// target below explores the same interpreter.
func TestMemtableModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		script := make([]byte, 3*600)
		rand.New(rand.NewSource(seed)).Read(script)
		runMemtableScript(t, script)
	}
	// Many distinct keys: index growth from empty, several chunks, and a
	// record larger than a chunk.
	m := newMemtableSized(1 << 10)
	model := memModel{}
	for i, k := range rowKeys(5000) {
		v := fmt.Sprintf("value-%d", i)
		if i == 2500 {
			v = string(bytes.Repeat([]byte{'x'}, memChunkBytes+1))
		}
		m.set(k, []byte(v), kindPut)
		model[string(k)] = memModelEntry{v, kindPut}
	}
	checkMemtableAgainstModel(t, m, model, "s/state0/key-00002500")
}

// FuzzMemtableModel lets the fuzzer write the operation scripts.
func FuzzMemtableModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 200, 4, 1, 0, 5, 1, 0, 6, 1, 9, 2, 7, 0, 7, 1, 7})
	f.Add(bytes.Repeat([]byte{3, 5, 255, 7, 5, 6}, 40))
	f.Fuzz(func(t *testing.T, script []byte) { runMemtableScript(t, script) })
}
