package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"sistream/internal/kv"
)

func testDB(t *testing.T, opts Options) *DB {
	t.Helper()
	d, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// smallOpts force frequent flushes and compactions so tests exercise the
// whole write path with little data.
func smallOpts() Options {
	return Options{
		MemtableBytes:       4 << 10,
		BlockBytes:          512,
		L0CompactionTrigger: 2,
		BaseLevelBytes:      16 << 10,
		LevelMultiplier:     4,
		MaxOutputBytes:      8 << 10,
	}
}

func TestBasicCRUD(t *testing.T) {
	d := testDB(t, Options{})
	if _, ok, err := d.Get([]byte("a")); err != nil || ok {
		t.Fatalf("empty get: %v %v", ok, err)
	}
	if err := d.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := d.Get([]byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if err := d.Put([]byte("a"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := d.Get([]byte("a")); string(v) != "2" {
		t.Fatalf("overwrite: %q", v)
	}
	if err := d.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d.Get([]byte("a")); ok {
		t.Fatal("delete did not take")
	}
}

func TestGetAfterFlush(t *testing.T) {
	d := testDB(t, smallOpts())
	for i := 0; i < 500; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Flushes == 0 {
		t.Fatal("expected at least one flush")
	}
	for i := 0; i < 500; i++ {
		v, ok, err := d.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %d after flush: %q %v %v", i, v, ok, err)
		}
	}
}

func TestDeleteShadowsFlushedValue(t *testing.T) {
	d := testDB(t, smallOpts())
	if err := d.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	// Tombstone in memtable must shadow the SSTable value.
	if _, ok, _ := d.Get([]byte("k")); ok {
		t.Fatal("tombstone did not shadow table value")
	}
	if err := d.Flush(); err != nil { // tombstone flushed to its own table
		t.Fatal(err)
	}
	if _, ok, _ := d.Get([]byte("k")); ok {
		t.Fatal("tombstone in L0 did not shadow older table")
	}
}

func TestReopenRecoversWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := kv.NewBatch(2)
	b.Put([]byte("x"), []byte("1"))
	b.Put([]byte("y"), []byte("2"))
	if err := d.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no Close, no flush. The WAL holds the data.
	d.wal.f.Close() // release the handle so reopen's cleanup can proceed on all platforms

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, kvp := range [][2]string{{"x", "1"}, {"y", "2"}} {
		v, ok, err := d2.Get([]byte(kvp[0]))
		if err != nil || !ok || string(v) != kvp[1] {
			t.Fatalf("recovered %s: %q %v %v", kvp[0], v, ok, err)
		}
	}
}

func TestReopenAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("post-flush"), []byte("wal-only")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	n, err := kv.Len(d2)
	if err != nil || n != 101 {
		t.Fatalf("after reopen: %d keys, %v", n, err)
	}
	if v, ok, _ := d2.Get([]byte("post-flush")); !ok || string(v) != "wal-only" {
		t.Fatalf("wal-only key lost: %q %v", v, ok)
	}
}

func TestTornWALTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	walFile := walPath(dir, d.walNum)
	d.wal.f.Sync()
	d.wal.f.Close()

	// Truncate mid-record to simulate a crash during the last append.
	st, err := os.Stat(walFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walFile, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	// First 9 records must be intact; the torn 10th is discarded.
	for i := 0; i < 9; i++ {
		if _, ok, _ := d2.Get([]byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("durable record k%d lost", i)
		}
	}
	if _, ok, _ := d2.Get([]byte("k9")); ok {
		t.Fatal("torn record resurrected")
	}
}

func TestCorruptWALTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	walFile := walPath(dir, d.walNum)
	d.wal.f.Sync()
	d.wal.f.Close()
	// Flip a payload byte in the final record.
	data, err := os.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(walFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for i := 0; i < 4; i++ {
		if _, ok, _ := d2.Get([]byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("record k%d before corruption lost", i)
		}
	}
	if _, ok, _ := d2.Get([]byte("k4")); ok {
		t.Fatal("corrupt record resurrected")
	}
}

func TestCompactionReducesL0(t *testing.T) {
	d := testDB(t, smallOpts())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := []byte(fmt.Sprintf("key-%05d", rng.Intn(2000)))
		if err := d.Put(k, bytes.Repeat([]byte{byte(i)}, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Compactions == 0 {
		t.Fatal("expected compactions to run")
	}
	if st.LevelFiles[0] >= smallOpts().L0CompactionTrigger {
		t.Fatalf("L0 still has %d files after compaction", st.LevelFiles[0])
	}
	// All data still readable.
	n, err := kv.Len(d)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n > 2000 {
		t.Fatalf("unexpected key count %d", n)
	}
}

func TestLevel1KeyRangesDisjoint(t *testing.T) {
	d := testDB(t, smallOpts())
	for i := 0; i < 8000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key-%06d", i)), bytes.Repeat([]byte("v"), 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	for l := 1; l < numLevels; l++ {
		files := d.cur.levels[l]
		for i := 1; i < len(files); i++ {
			if bytes.Compare(files[i-1].largest, files[i].smallest) >= 0 {
				t.Fatalf("level %d files overlap: %q >= %q", l, files[i-1].largest, files[i].smallest)
			}
		}
	}
}

func TestScanMergedAcrossLevels(t *testing.T) {
	d := testDB(t, smallOpts())
	// Three generations of the same key range to exercise shadowing.
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 300; i++ {
			if err := d.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("g%d", gen))); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Delete([]byte("k0000")); err != nil {
		t.Fatal(err)
	}
	var keys []string
	err := d.Scan([]byte("k0000"), []byte("k0010"), func(k, v []byte) bool {
		keys = append(keys, string(k))
		if string(v) != "g2" {
			t.Errorf("key %q: stale value %q", k, v)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 9 // k0001..k0009 (k0000 deleted)
	if len(keys) != want {
		t.Fatalf("scan returned %d keys (%v), want %d", len(keys), keys, want)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order: %q then %q", keys[i-1], keys[i])
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	d := testDB(t, Options{})
	for i := 0; i < 20; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := d.Scan(nil, nil, func(_, _ []byte) bool { n++; return n < 5 }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("visited %d", n)
	}
}

func TestClosedErrors(t *testing.T) {
	d, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != kv.ErrClosed {
		t.Fatalf("double close: %v", err)
	}
	if _, _, err := d.Get([]byte("k")); err != kv.ErrClosed {
		t.Fatalf("get: %v", err)
	}
	if err := d.Put([]byte("k"), nil); err != kv.ErrClosed {
		t.Fatalf("put: %v", err)
	}
	if err := d.Scan(nil, nil, nil); err != kv.ErrClosed {
		t.Fatalf("scan: %v", err)
	}
	if err := d.Sync(); err != kv.ErrClosed {
		t.Fatalf("sync: %v", err)
	}
}

func TestConcurrentReadersOneWriter(t *testing.T) {
	d := testDB(t, smallOpts())
	for i := 0; i < 1000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("init")); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("k%04d", rng.Intn(1000)))
				if _, _, err := d.Get(k); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r))
	}
	for i := 0; i < 5000; i++ {
		k := []byte(fmt.Sprintf("k%04d", i%1000))
		if err := d.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPropertyDBMatchesModel runs random operation sequences against the
// DB and an in-memory model, with periodic flush/compact/reopen, and
// verifies full agreement.
func TestPropertyDBMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		d, err := Open(dir, smallOpts())
		if err != nil {
			t.Log(err)
			return false
		}
		model := map[string]string{}
		for step := 0; step < 400; step++ {
			k := fmt.Sprintf("key-%03d", rng.Intn(60))
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				v := fmt.Sprintf("v-%d", rng.Int())
				if err := d.Put([]byte(k), []byte(v)); err != nil {
					t.Log(err)
					return false
				}
				model[k] = v
			case 4, 5:
				if err := d.Delete([]byte(k)); err != nil {
					t.Log(err)
					return false
				}
				delete(model, k)
			case 6:
				if err := d.Flush(); err != nil {
					t.Log(err)
					return false
				}
			case 7:
				if rng.Intn(4) == 0 {
					if err := d.Close(); err != nil {
						t.Log(err)
						return false
					}
					if d, err = Open(dir, smallOpts()); err != nil {
						t.Log(err)
						return false
					}
				}
			default:
				got, ok, err := d.Get([]byte(k))
				if err != nil {
					t.Log(err)
					return false
				}
				want, wok := model[k]
				if ok != wok || (ok && string(got) != want) {
					t.Logf("mismatch on %q: got %q/%v want %q/%v", k, got, ok, want, wok)
					return false
				}
			}
		}
		// Final full comparison via scan.
		seen := map[string]string{}
		err = d.Scan(nil, nil, func(k, v []byte) bool {
			seen[string(k)] = string(v)
			return true
		})
		if err != nil {
			t.Log(err)
			return false
		}
		d.Close()
		if len(seen) != len(model) {
			t.Logf("scan count %d != model %d", len(seen), len(model))
			return false
		}
		for k, v := range model {
			if seen[k] != v {
				t.Logf("scan %q = %q, want %q", k, seen[k], v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomFilter(t *testing.T) {
	var hashes []uint32
	for i := 0; i < 10000; i++ {
		hashes = append(hashes, bloomHash([]byte(fmt.Sprintf("key-%d", i))))
	}
	f := buildBloom(hashes, bloomBitsPerKey)
	for i := 0; i < 10000; i++ {
		if !f.mayContain(bloomHash([]byte(fmt.Sprintf("key-%d", i)))) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.mayContain(bloomHash([]byte(fmt.Sprintf("absent-%d", i)))) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Fatalf("bloom false-positive rate %.4f too high", rate)
	}
}

func TestBloomRoundTrip(t *testing.T) {
	hashes := []uint32{1, 2, 3, 0xdeadbeef}
	f := buildBloom(hashes, 10)
	g := unmarshalBloom(f.marshal())
	for _, h := range hashes {
		if !g.mayContain(h) {
			t.Fatalf("false negative after round trip for %x", h)
		}
	}
	if (bloomFilter{}).mayContain(42) != true {
		t.Fatal("empty filter must not filter")
	}
}

func TestSSTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	b, err := newTableBuilder(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i))
		if i%7 == 0 {
			b.add(key, nil, kindDelete)
		} else {
			b.add(key, []byte(fmt.Sprintf("value-%d", i)), kindPut)
		}
	}
	count, smallest, largest, size, err := b.finish()
	if err != nil {
		t.Fatal(err)
	}
	if count != n || string(smallest) != "key-00000" || string(largest) != fmt.Sprintf("key-%05d", n-1) || size == 0 {
		t.Fatalf("meta: count=%d smallest=%q largest=%q size=%d", count, smallest, largest, size)
	}
	r, err := openTable(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i))
		v, kind, found, err := r.get(key)
		if err != nil || !found {
			t.Fatalf("get %q: found=%v err=%v", key, found, err)
		}
		if i%7 == 0 {
			if kind != kindDelete {
				t.Fatalf("%q should be tombstone", key)
			}
		} else if kind != kindPut || string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("%q = %q (%v)", key, v, kind)
		}
	}
	if _, _, found, _ := r.get([]byte("absent")); found {
		t.Fatal("found absent key")
	}
	if _, _, found, _ := r.get([]byte("a")); found {
		t.Fatal("found key before table range")
	}
	// Full iteration in order.
	it := r.iterator()
	it.seekToFirst()
	var prev []byte
	total := 0
	for it.next() {
		if prev != nil && bytes.Compare(prev, it.key()) >= 0 {
			t.Fatalf("iterator out of order: %q then %q", prev, it.key())
		}
		prev = append(prev[:0], it.key()...)
		total++
	}
	if it.err != nil {
		t.Fatal(it.err)
	}
	if total != n {
		t.Fatalf("iterated %d entries, want %d", total, n)
	}
	// Seek semantics.
	it.seek([]byte("key-00500"))
	if !it.next() || string(it.key()) != "key-00500" {
		t.Fatalf("seek landed on %q", it.key())
	}
	it.seek([]byte("key-005001")) // between keys
	if !it.next() || string(it.key()) != "key-00501" {
		t.Fatalf("between-keys seek landed on %q", it.key())
	}
	it.seek([]byte("zzz"))
	if it.next() {
		t.Fatal("seek past end should exhaust")
	}
}

func TestSSTableRejectsOutOfOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	b, err := newTableBuilder(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	b.add([]byte("b"), []byte("1"), kindPut)
	b.add([]byte("a"), []byte("2"), kindPut)
	if _, _, _, _, err := b.finish(); err == nil {
		t.Fatal("expected out-of-order error")
	}
}

func TestSSTableCorruptFooter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	b, err := newTableBuilder(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	b.add([]byte("a"), []byte("1"), kindPut)
	if _, _, _, _, err := b.finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // clobber magic
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openTable(path, 0, nil); err == nil {
		t.Fatal("expected corruption error")
	}
}

func TestMemtableOrderAndOverwrite(t *testing.T) {
	m := newMemtable()
	for _, k := range []string{"d", "a", "c", "b"} {
		m.set([]byte(k), []byte("v-"+k), kindPut)
	}
	m.set([]byte("b"), []byte("v2"), kindPut)
	if m.len() != 4 {
		t.Fatalf("len = %d", m.len())
	}
	it := m.iterator(nil)
	var keys []string
	for it.seekToFirst(); it.valid(); it.next() {
		keys = append(keys, string(it.key()))
	}
	if fmt.Sprint(keys) != "[a b c d]" {
		t.Fatalf("order: %v", keys)
	}
	v, kind, found := m.get([]byte("b"))
	if !found || kind != kindPut || string(v) != "v2" {
		t.Fatalf("get b: %q %v %v", v, kind, found)
	}
	m.set([]byte("b"), nil, kindDelete)
	if _, kind, found := m.get([]byte("b")); !found || kind != kindDelete {
		t.Fatal("tombstone lost")
	}
}

func TestPropertyMemtableMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := newMemtable()
		model := map[string]string{}
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("k%02d", rng.Intn(30))
			if rng.Intn(3) == 0 {
				m.set([]byte(k), nil, kindDelete)
				delete(model, k)
			} else {
				v := fmt.Sprintf("v%d", i)
				m.set([]byte(k), []byte(v), kindPut)
				model[k] = v
			}
		}
		for k, want := range model {
			v, kind, found := m.get([]byte(k))
			if !found || kind != kindPut || string(v) != want {
				return false
			}
		}
		// Iterator sorted and complete (tombstones included).
		it := m.iterator(nil)
		var prev []byte
		for it.seekToFirst(); it.valid(); it.next() {
			if prev != nil && bytes.Compare(prev, it.key()) >= 0 {
				return false
			}
			prev = append(prev[:0], it.key()...)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWALBatchCodec(t *testing.T) {
	ops := []walOp{
		{kind: kindPut, key: []byte("a"), value: []byte("1")},
		{kind: kindDelete, key: []byte("b")},
		{kind: kindPut, key: []byte{}, value: []byte{}},
	}
	payload := encodeBatchPayload(nil, ops)
	got, err := decodeBatchPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops", len(got))
	}
	for i := range ops {
		if got[i].kind != ops[i].kind || !bytes.Equal(got[i].key, ops[i].key) || !bytes.Equal(got[i].value, ops[i].value) {
			t.Fatalf("op %d mismatch: %+v vs %+v", i, got[i], ops[i])
		}
	}
	if _, err := decodeBatchPayload([]byte{0xff}); err == nil {
		t.Fatal("expected decode error on garbage")
	}
}

func TestApplyBatchAtomicityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := kv.NewBatch(3)
	b.Put([]byte("s1/k"), []byte("v1"))
	b.Put([]byte("s2/k"), []byte("v2"))
	b.Delete([]byte("never-existed"))
	if err := d.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	d.wal.f.Close() // crash
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	v1, ok1, _ := d2.Get([]byte("s1/k"))
	v2, ok2, _ := d2.Get([]byte("s2/k"))
	if !ok1 || !ok2 || string(v1) != "v1" || string(v2) != "v2" {
		t.Fatalf("batch not atomic across recovery: %q/%v %q/%v", v1, ok1, v2, ok2)
	}
}

func TestStatsShape(t *testing.T) {
	d := testDB(t, smallOpts())
	for i := 0; i < 2000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte("x"), 20)); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Flushes == 0 {
		t.Fatal("expected flushes")
	}
	total := 0
	for _, n := range st.LevelFiles {
		total += n
	}
	if total == 0 {
		t.Fatal("expected table files")
	}
}

func BenchmarkPutAsync(b *testing.B) {
	d, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	key := make([]byte, 8)
	val := bytes.Repeat([]byte("v"), 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			key[j] = byte(i >> (8 * j))
		}
		if err := d.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplySync(b *testing.B) {
	d, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	val := bytes.Repeat([]byte("v"), 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := kv.NewBatch(10)
		for j := 0; j < 10; j++ {
			batch.Put([]byte(fmt.Sprintf("key-%07d", (i*10+j)%100000)), val)
		}
		if err := d.Apply(batch, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetHot(b *testing.B) {
	d, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 10000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte("v"), 20)); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Get([]byte(fmt.Sprintf("key-%05d", i%10000))); err != nil {
			b.Fatal(err)
		}
	}
}
