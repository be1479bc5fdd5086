package kv_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"sistream/internal/kv"
)

// putKey writes one key through Apply, the store's one write.
func putKey(s kv.Store, key, value []byte) error {
	b := kv.NewBatch(1)
	b.Put(key, value)
	return s.Apply(b, false)
}

// deleteKey deletes one key through Apply.
func deleteKey(s kv.Store, key []byte) error {
	b := kv.NewBatch(1)
	b.Delete(key)
	return s.Apply(b, false)
}

// countingStore wraps a Store to record how Apply/Sync are invoked, so
// the cache tests can pin down the write-behind flushing rules.
type countingStore struct {
	kv.Store
	mu         sync.Mutex
	applies    int
	syncApply  int
	syncCalls  int
	opsApplied int
}

func (c *countingStore) Apply(b *kv.Batch, sync bool) error {
	c.mu.Lock()
	c.applies++
	if sync {
		c.syncApply++
	}
	c.opsApplied += b.Len()
	c.mu.Unlock()
	return c.Store.Apply(b, sync)
}

func (c *countingStore) Sync() error {
	c.mu.Lock()
	c.syncCalls++
	c.mu.Unlock()
	return c.Store.Sync()
}

func (c *countingStore) counts() (applies, syncApply, syncCalls, ops int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applies, c.syncApply, c.syncCalls, c.opsApplied
}

func TestCacheWriteBehind(t *testing.T) {
	inner := &countingStore{Store: kv.NewMem()}
	c := kv.NewCache(inner, 64)
	defer c.Close()

	// Puts and non-sync Applies stage only: the inner store sees nothing.
	if err := putKey(c, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	b := kv.NewBatch(2)
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("zz"))
	if err := c.Apply(b, false); err != nil {
		t.Fatal(err)
	}
	if applies, _, _, _ := inner.counts(); applies != 0 {
		t.Fatalf("inner saw %d applies before any durability point", applies)
	}
	if _, found, _ := inner.Store.Get([]byte("a")); found {
		t.Fatal("write-behind put leaked to inner store")
	}
	// Reads are served from the staged state.
	if v, found, err := c.Get([]byte("a")); err != nil || !found || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v, %v", v, found, err)
	}

	// A sync Apply pushes the whole dirty set + the batch in ONE
	// synchronous inner Apply — the durability point is preserved.
	b2 := kv.NewBatch(1)
	b2.Put([]byte("c"), []byte("3"))
	if err := c.Apply(b2, true); err != nil {
		t.Fatal(err)
	}
	applies, syncApply, _, ops := inner.counts()
	if applies != 1 || syncApply != 1 {
		t.Fatalf("sync Apply: inner saw applies=%d syncApply=%d, want 1/1", applies, syncApply)
	}
	if ops != 4 { // a, b, delete zz, c
		t.Fatalf("flush batch had %d ops, want 4", ops)
	}
	for _, k := range []string{"a", "b", "c"} {
		if v, found, _ := inner.Store.Get([]byte(k)); !found || len(v) == 0 {
			t.Fatalf("key %q missing from inner store after sync Apply", k)
		}
	}

	// Nothing dirty: another sync Apply flushes just its own batch; a
	// Sync with a clean cache degrades to inner.Sync().
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, _, syncCalls, _ := inner.counts(); syncCalls != 1 {
		t.Fatalf("clean Sync: inner.Sync called %d times, want 1", syncCalls)
	}
}

func TestCacheReadThroughAndCounters(t *testing.T) {
	inner := kv.NewMem()
	if err := putKey(inner, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	c := kv.NewCache(inner, 8)
	defer c.Close()

	if v, found, err := c.Get([]byte("k")); err != nil || !found || string(v) != "v" {
		t.Fatalf("read-through Get = %q, %v, %v", v, found, err)
	}
	if v, found, err := c.Get([]byte("k")); err != nil || !found || string(v) != "v" {
		t.Fatalf("cached Get = %q, %v, %v", v, found, err)
	}
	if _, found, err := c.Get([]byte("missing")); err != nil || found {
		t.Fatalf("Get(missing) = %v, %v", found, err)
	}
	// A staged delete is a resident not-found, served as a hit.
	if err := deleteKey(c, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, found, err := c.Get([]byte("k")); err != nil || found {
		t.Fatalf("Get after staged delete = %v, %v", found, err)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits, 2 misses", st)
	}
	if st.Dirty != 1 {
		t.Errorf("stats = %+v, want 1 dirty (the staged delete)", st)
	}
	// Scan flushes: the delete reaches the inner store.
	n := 0
	if err := c.Scan(nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("scan saw %d keys after delete, want 0", n)
	}
	if _, found, _ := inner.Get([]byte("k")); found {
		t.Error("staged delete not flushed by Scan")
	}
	if st := c.Stats(); st.Dirty != 0 || st.DirtyFlushed != 1 {
		t.Errorf("post-scan stats = %+v", st)
	}
}

func TestCacheEviction(t *testing.T) {
	inner := kv.NewMem()
	c := kv.NewCache(inner, 4)
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := putKey(c, []byte(fmt.Sprintf("k%02d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Resident != 4 {
		t.Errorf("resident = %d, want 4", st.Resident)
	}
	if st.Evictions != 6 {
		t.Errorf("evictions = %d, want 6", st.Evictions)
	}
	// Evicted dirty entries were written back; every key is readable.
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		if v, found, err := c.Get(k); err != nil || !found || v[0] != byte(i) {
			t.Fatalf("Get(%s) = %v, %v, %v", k, v, found, err)
		}
	}
	// LRU order: the most recently used keys stay resident.
	before := c.Stats().Hits
	if _, _, err := c.Get([]byte("k09")); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits != before+1 {
		t.Error("most recently read key was not resident")
	}
}

func TestCacheScanSeesStagedWrites(t *testing.T) {
	c := kv.NewCache(kv.NewMem(), 16)
	defer c.Close()
	b := kv.NewBatch(3)
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Put([]byte("c"), []byte("3"))
	if err := c.Apply(b, false); err != nil {
		t.Fatal(err)
	}
	var keys []string
	if err := c.Scan([]byte("a"), []byte("c"), func(k, v []byte) bool {
		keys = append(keys, string(k)+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(keys); got != "[a=1 b=2]" {
		t.Errorf("scan = %v", got)
	}
}

func TestCacheAliasing(t *testing.T) {
	c := kv.NewCache(kv.NewMem(), 16)
	defer c.Close()
	k := []byte("key")
	v := []byte("value")
	if err := putKey(c, k, v); err != nil {
		t.Fatal(err)
	}
	v[0] = 'X' // the cache must have copied
	got, _, err := c.Get([]byte("key"))
	if err != nil || !bytes.Equal(got, []byte("value")) {
		t.Fatalf("Get = %q, %v — cache aliased the caller's value buffer", got, err)
	}
}

func TestCacheClose(t *testing.T) {
	inner := kv.NewMem()
	c := kv.NewCache(inner, 16)
	if err := putKey(c, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Close flushed the write-behind set before closing the inner store.
	if _, found, err := inner.Get([]byte("k")); err == nil || found {
		// inner is closed too; the flush happened before that.
		if err == nil {
			t.Error("inner store still open after cache Close")
		}
	}
	if err := putKey(c, []byte("x"), []byte("y")); !errors.Is(err, kv.ErrClosed) {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
	if err := c.Close(); !errors.Is(err, kv.ErrClosed) {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
}

// TestCacheScanFlushesDirtyOverlap is the Scan-as-durability-point
// regression: dirty write-behind entries staged BEFORE a Scan must be
// (a) visible to that very Scan and (b) flushed to the inner store in
// exactly ONE atomic inner Apply — a scan must never read around the
// write-behind set, and must never split the staged batch.
func TestCacheScanFlushesDirtyOverlap(t *testing.T) {
	inner := &countingStore{Store: kv.NewMem()}
	c := kv.NewCache(inner, 64)
	defer c.Close()

	// Stage dirty entries through several write-behind Applies, including
	// a delete over a previously staged key — no durability point yet.
	b := kv.NewBatch(2)
	b.Put([]byte("scan/a"), []byte("1"))
	b.Put([]byte("scan/b"), []byte("2"))
	if err := c.Apply(b, false); err != nil {
		t.Fatal(err)
	}
	b = kv.NewBatch(2)
	b.Put([]byte("scan/c"), []byte("3"))
	b.Delete([]byte("scan/b"))
	if err := c.Apply(b, false); err != nil {
		t.Fatal(err)
	}
	if applies, _, _, _ := inner.counts(); applies != 0 {
		t.Fatalf("inner saw %d applies before the scan", applies)
	}

	// The scan is a durability point: it must observe the staged state
	// (a and c present, b deleted) ...
	seen := map[string]string{}
	if err := c.Scan([]byte("scan/"), []byte("scan/\xff"), func(k, v []byte) bool {
		seen[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen["scan/a"] != "1" || seen["scan/c"] != "3" {
		t.Fatalf("scan saw %v, want staged a=1 and c=3 with b deleted", seen)
	}

	// ... and have pushed the whole staged set down in ONE inner Apply
	// carrying all three net operations (two puts + one delete; the
	// staged b put and its delete coalesce into the delete).
	applies, syncApply, _, ops := inner.counts()
	if applies != 1 {
		t.Fatalf("scan flushed in %d inner applies, want exactly 1 atomic apply", applies)
	}
	if syncApply != 0 {
		t.Fatalf("scan flush requested fsync (%d), want an unsynced flush", syncApply)
	}
	if ops != 3 {
		t.Fatalf("scan flush carried %d ops, want 3 (a, c, delete b)", ops)
	}

	// A second scan with nothing staged must not apply again.
	if err := c.Scan([]byte("scan/"), []byte("scan/\xff"), func(_, _ []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if applies, _, _, _ = inner.counts(); applies != 1 {
		t.Fatalf("clean scan re-applied (%d total applies), want still 1", applies)
	}
}
