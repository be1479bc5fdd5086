package kv

import (
	"container/list"
	"sync"
)

// DefaultCacheEntries is the cache tier's entry capacity when the spec
// gives none ("cache" instead of "cache(256)").
const DefaultCacheEntries = 256

// Cache is a chainable key-level read-through/write-behind tier over an
// inner store — the generalization of the LSM block cache to a store
// adapter: reads fill the cache from the inner store, writes stage in
// the cache and reach the inner store on eviction, on Scan, and — in
// one atomic inner Apply — at every durability point. That last rule is
// what keeps group-commit semantics intact over a cache tier: an
// Apply(sync=true) returns only after every write-behind entry staged
// so far, plus the batch itself, is durable below. Batches applied with
// sync=false stay write-behind, so a chain like cache+mem defers inner
// writes until eviction or scan.
//
// The cache owns the inner store: closing the Cache flushes the dirty
// set and closes the inner store.
type Cache struct {
	inner Store

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	cap     int
	dirty   int // entries with unflushed writes
	closed  bool

	hits, misses, evictions, dirtyFlushed int64
}

// cacheEntry is one resident key. A dirty entry is a write the inner
// store has not seen yet; del marks a staged delete (val nil). Clean
// deletes are never kept — once a delete is flushed the entry leaves
// the cache (no negative caching of flushed state).
type cacheEntry struct {
	key   string
	val   []byte
	del   bool
	dirty bool
}

// NewCache wraps inner in a cache tier holding up to capEntries keys.
// A capEntries < 1 falls back to DefaultCacheEntries.
func NewCache(inner Store, capEntries int) *Cache {
	if capEntries < 1 {
		capEntries = DefaultCacheEntries
	}
	return &Cache{
		inner:   inner,
		entries: make(map[string]*list.Element, capEntries),
		lru:     list.New(),
		cap:     capEntries,
	}
}

// Capabilities derive entirely from the inner store: the flush-at-sync
// rule means the tier weakens no durability property, and it adds none.
func (c *Cache) Capabilities() Capabilities { return CapabilitiesOf(c.inner) }

// CacheStats is a point-in-time snapshot of the tier's counters.
type CacheStats struct {
	Hits, Misses int64 // Get lookups served from / past the cache
	Evictions    int64 // entries dropped for capacity
	DirtyFlushed int64 // write-behind ops pushed to the inner store
	Resident     int   // keys currently cached
	Dirty        int   // resident keys with unflushed writes
}

// Stats returns the tier's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		DirtyFlushed: c.dirtyFlushed,
		Resident:     len(c.entries),
		Dirty:        c.dirty,
	}
}

// Get serves from the cache when resident (a staged delete is a
// resident "not found"), otherwise reads through the inner store and
// caches the result.
func (c *Cache) Get(key []byte) ([]byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, false, ErrClosed
	}
	if el, ok := c.entries[string(key)]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		if e.del {
			return nil, false, nil
		}
		return e.val, true, nil
	}
	c.misses++
	val, found, err := c.inner.Get(key)
	if err != nil || !found {
		return nil, false, err
	}
	c.insertLocked(string(key), val, false, false)
	if err := c.evictLocked(); err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// Apply stages the batch. With sync=false the ops stay write-behind;
// with sync=true the whole dirty set — the batch included — is pushed
// to the inner store in one synchronous inner Apply, preserving the
// caller's durability point.
func (c *Cache) Apply(b *Batch, sync bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	for _, op := range b.Ops() {
		// Keys are copied (the group-commit path reuses its key arena
		// across batches); values are immutable once handed over and
		// retained by reference, matching the in-memory store.
		if op.Kind == OpDelete {
			c.insertLocked(string(op.Key), nil, true, true)
		} else {
			c.insertLocked(string(op.Key), op.Value, false, true)
		}
	}
	if sync {
		if err := c.flushLocked(true); err != nil {
			return err
		}
	}
	return c.evictLocked()
}

// Scan flushes the write-behind set (non-durably) and scans the inner
// store, which then holds every staged write.
func (c *Cache) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if err := c.flushLocked(false); err != nil {
		c.mu.Unlock()
		return err
	}
	if err := c.evictLocked(); err != nil {
		c.mu.Unlock()
		return err
	}
	c.mu.Unlock()
	// The inner scan runs outside the tier lock so resident reads keep
	// serving; writes racing the scan are unordered with it either way.
	return c.inner.Scan(start, end, fn)
}

// Sync flushes the write-behind set and syncs the inner store.
func (c *Cache) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if err := c.flushLocked(true); err != nil {
		return err
	}
	return c.evictLocked()
}

// Close flushes the write-behind set and closes the inner store.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	flushErr := c.flushLocked(false)
	c.closed = true
	c.entries = nil
	c.lru = nil
	if err := c.inner.Close(); err != nil {
		return err
	}
	return flushErr
}

// insertLocked upserts a resident entry at the MRU position.
func (c *Cache) insertLocked(key string, val []byte, del, dirty bool) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		if dirty && !e.dirty {
			c.dirty++
		} else if !dirty && e.dirty {
			// A clean read-through fill never overwrites staged state; the
			// only clean insert path is a Get miss, which cannot race a
			// resident dirty entry under the lock.
			dirty = true
		}
		e.val, e.del, e.dirty = val, del, dirty
		c.lru.MoveToFront(el)
		return
	}
	e := &cacheEntry{key: key, val: val, del: del, dirty: dirty}
	c.entries[key] = c.lru.PushFront(e)
	if dirty {
		c.dirty++
	}
}

// evictLocked drops LRU entries past capacity, writing dirty victims
// back to the inner store (non-durably) first.
func (c *Cache) evictLocked() error {
	for len(c.entries) > c.cap {
		el := c.lru.Back()
		e := el.Value.(*cacheEntry)
		if e.dirty {
			var b Batch
			if e.del {
				b.DeleteHandle([]byte(e.key), nil)
			} else {
				b.PutHandle([]byte(e.key), e.val, nil)
			}
			if err := c.inner.Apply(&b, false); err != nil {
				return err
			}
			c.dirty--
			c.dirtyFlushed++
		}
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.evictions++
	}
	return nil
}

// flushLocked pushes the whole write-behind set to the inner store in
// one atomic Apply (synchronous when sync is true: that Apply is the
// caller's durability point). Flushed puts stay resident and clean;
// flushed deletes leave the cache.
func (c *Cache) flushLocked(sync bool) error {
	if c.dirty == 0 {
		if sync {
			return c.inner.Sync()
		}
		return nil
	}
	b := NewBatch(c.dirty)
	flushed := make([]*list.Element, 0, c.dirty)
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		if !e.dirty {
			continue
		}
		// Fresh key bytes per flush (the entry's string key backs the
		// map); values are immutable once staged, so handing them over
		// by reference is safe.
		if e.del {
			b.DeleteHandle([]byte(e.key), nil)
		} else {
			b.PutHandle([]byte(e.key), e.val, nil)
		}
		flushed = append(flushed, el)
	}
	if err := c.inner.Apply(b, sync); err != nil {
		return err
	}
	c.dirtyFlushed += int64(len(flushed))
	for _, el := range flushed {
		e := el.Value.(*cacheEntry)
		if e.del {
			c.lru.Remove(el)
			delete(c.entries, e.key)
		} else {
			e.dirty = false
		}
	}
	c.dirty = 0
	return nil
}
