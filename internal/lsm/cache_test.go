package lsm

import (
	"fmt"
	"testing"
)

// TestBlockCacheHitsOnRepeatedGets verifies the point-lookup path fills
// the shared block cache: the first read of a flushed key misses, repeats
// hit, and the counters surface through DB.Stats.
func TestBlockCacheHitsOnRepeatedGets(t *testing.T) {
	db, err := Open(t.TempDir(), Options{BlockBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 64; i++ {
		if err := applyPut(db, []byte(fmt.Sprintf("key-%03d", i)), []byte("value"), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	if _, ok, err := db.Get([]byte("key-007")); err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	st := db.Stats()
	if st.BlockCacheMisses == 0 {
		t.Fatalf("first lookup should miss the cache: %+v", st)
	}
	if st.BlockCacheBlocks == 0 {
		t.Fatal("miss did not populate the cache")
	}
	misses := st.BlockCacheMisses

	for i := 0; i < 10; i++ {
		if _, ok, err := db.Get([]byte("key-007")); err != nil || !ok {
			t.Fatalf("get: %v %v", ok, err)
		}
	}
	st = db.Stats()
	if st.BlockCacheHits < 10 {
		t.Fatalf("repeated lookups should hit the cache: %+v", st)
	}
	if st.BlockCacheMisses != misses {
		t.Fatalf("repeated lookups should not miss again: %+v", st)
	}
}

// TestBlockCacheEviction bounds the cache at its configured capacity.
func TestBlockCacheEviction(t *testing.T) {
	c := newBlockCache(2)
	c.put(blockKey{1, 0}, []byte("a"))
	c.put(blockKey{1, 1}, []byte("b"))
	if _, ok := c.get(blockKey{1, 0}); !ok {
		t.Fatal("resident block evicted early")
	}
	// Insert a third block: LRU (1,1) must fall out, (1,0) was just used.
	c.put(blockKey{1, 2}, []byte("c"))
	if c.len() != 2 {
		t.Fatalf("cache over capacity: %d", c.len())
	}
	if _, ok := c.get(blockKey{1, 1}); ok {
		t.Fatal("LRU block survived eviction")
	}
	if _, ok := c.get(blockKey{1, 0}); !ok {
		t.Fatal("recently used block evicted")
	}
}

// TestBlockCacheDisabled: negative capacity turns caching off without
// breaking reads.
func TestBlockCacheDisabled(t *testing.T) {
	db, err := Open(t.TempDir(), Options{BlockCacheBlocks: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := applyPut(db, []byte("k"), []byte("v"), false); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := db.Get([]byte("k")); err != nil || !ok {
		t.Fatalf("get without cache: %v %v", ok, err)
	}
	st := db.Stats()
	if st.BlockCacheHits != 0 || st.BlockCacheMisses != 0 || st.BlockCacheBlocks != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", st)
	}
}
