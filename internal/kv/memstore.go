package kv

import (
	"bytes"
	"slices"
	"strings"
	"sync"
)

// memShards splits the key space to reduce mutex contention between the
// continuous writer and concurrent ad-hoc readers. Must be a power of two.
const memShards = 16

// Mem is an in-memory Store backed by sharded hash maps. It is volatile:
// Sync is a no-op and nothing survives Close. It serves unit tests and the
// memory-vs-LSM backend ablation (experiment A4 in DESIGN.md).
type Mem struct {
	shards [memShards]memShard
	closed sync.RWMutex // write-locked only by Close
	dead   bool
}

type memShard struct {
	mu sync.RWMutex
	m  map[string]*memEntry
}

// memEntry boxes a value so that overwriting an existing key — the steady
// state of a table whose key set has settled — is a store through the
// pointer found by an allocation-free m[string(key)] lookup; assigning
// m[string(key)] = v would allocate the key string on every write. The
// entry is also what a Handle holds: owner and shard say who issued it and
// where its lock is, dead that a delete removed it from the map. v and
// dead are guarded by the shard's lock.
type memEntry struct {
	v     []byte
	owner *Mem
	shard uint8
	dead  bool
}

// put stores value under key and returns its entry. Caller holds sh.mu.
func (sh *memShard) put(s *Mem, i int, key, value []byte) *memEntry {
	if e := sh.m[string(key)]; e != nil {
		e.v = value
		return e
	}
	e := &memEntry{v: value, owner: s, shard: uint8(i)}
	sh.m[string(key)] = e
	return e
}

// del removes key, revoking every handle of its entry. Caller holds sh.mu.
func (sh *memShard) del(key []byte) {
	if e := sh.m[string(key)]; e != nil {
		e.dead = true
		delete(sh.m, string(key))
	}
}

// trusted returns the entry h holds when s issued it; the caller checks
// dead under the entry's shard lock.
func (s *Mem) trusted(h *Handle) *memEntry {
	if h != nil && h.mem != nil && h.mem.owner == s {
		return h.mem
	}
	return nil
}

// Capabilities: the memory store is volatile — nothing survives the
// process, and a sync request has nothing to sync (Apply's sync flag and
// Sync are no-ops). Declaring it not Durable lets the group-commit
// leader skip the sync point instead of requesting one the store would
// ignore.
func (s *Mem) Capabilities() Capabilities { return Capabilities{} }

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	s := &Mem{}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*memEntry)
	}
	return s
}

func shardFor(key []byte) int {
	// FNV-1a, inlined to avoid interface allocations on the hot path.
	var h uint32 = 2166136261
	for _, c := range key {
		h ^= uint32(c)
		h *= 16777619
	}
	return int(h & (memShards - 1))
}

func (s *Mem) check() error {
	if s.dead {
		return ErrClosed
	}
	return nil
}

// Get implements Store.
func (s *Mem) Get(key []byte) ([]byte, bool, error) {
	s.closed.RLock()
	defer s.closed.RUnlock()
	if err := s.check(); err != nil {
		return nil, false, err
	}
	sh := &s.shards[shardFor(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e := sh.m[string(key)]; e != nil {
		return e.v, true, nil
	}
	return nil, false, nil
}

// applyScratch recycles the per-shard grouping buffers of Apply so the
// write hot path does not regrow 16 slices on every batch. A shard's
// buffer holds the positions of its ops in the batch, not copies of them.
var applyScratch = sync.Pool{New: func() any { return new([memShards][]int32) }}

// Apply implements Store. The batch is applied under per-shard locks in
// shard order, so concurrent readers of a single key never observe a torn
// batch for that key; cross-key atomicity for readers is provided a level
// up by the MVCC table, which is the component responsible for isolation.
//
// An op whose Handle holds a live entry this store issued is a pointer
// store: no key hash, no map probe. Any other put fills its handle with
// the key's entry; a delete empties it.
func (s *Mem) Apply(b *Batch, _ bool) error {
	s.closed.RLock()
	defer s.closed.RUnlock()
	if err := s.check(); err != nil {
		return err
	}
	ops := b.Ops()
	s.touchEntries(ops)
	// Group ops per shard to take each lock once.
	perShard := applyScratch.Get().(*[memShards][]int32)
	for k := range ops {
		var i int
		if e := s.trusted(ops[k].Handle); e != nil {
			i = int(e.shard)
		} else {
			i = shardFor(ops[k].Key)
		}
		perShard[i] = append(perShard[i], int32(k))
	}
	for i := range perShard {
		if len(perShard[i]) == 0 {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, k := range perShard[i] {
			op := &ops[k]
			if op.Kind == OpDelete {
				sh.del(op.Key)
				if op.Handle != nil {
					op.Handle.mem = nil
				}
				continue
			}
			if e := s.trusted(op.Handle); e != nil && !e.dead {
				e.v = op.Value
				continue
			}
			e := sh.put(s, i, op.Key, op.Value)
			if op.Handle != nil {
				op.Handle.mem = e
			}
		}
		sh.mu.Unlock()
		// Keep the grown backing array for the next batch.
		perShard[i] = perShard[i][:0]
	}
	applyScratch.Put(perShard)
	return nil
}

// touchEntries loads the entry of every trusted handle among ops, a
// gather pass in the form txn's touchSlots documents: the grouping and
// the stores that follow find the entries in cache.
//
//go:noinline
func (s *Mem) touchEntries(ops []Op) uint64 {
	var sum uint64
	for i := range ops {
		if e := s.trusted(ops[i].Handle); e != nil {
			sum += uint64(e.shard)
		}
	}
	return sum
}

// Scan implements Store. It snapshots the matching keys under shard read
// locks, sorts them, and then yields; mutations concurrent with Scan may
// or may not be observed, which matches the interface contract for a
// non-transactional base table.
func (s *Mem) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	s.closed.RLock()
	if err := s.check(); err != nil {
		s.closed.RUnlock()
		return err
	}
	type pair struct {
		k string
		v []byte
	}
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	pairs := make([]pair, 0, n)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, e := range sh.m {
			if start != nil && k < string(start) {
				continue
			}
			if end != nil && k >= string(end) {
				continue
			}
			pairs = append(pairs, pair{k, e.v})
		}
		sh.mu.RUnlock()
	}
	s.closed.RUnlock()
	slices.SortFunc(pairs, func(a, b pair) int { return strings.Compare(a.k, b.k) })
	for _, p := range pairs {
		if !fn([]byte(p.k), p.v) {
			break
		}
	}
	return nil
}

// Sync implements Store; the memory store has nothing to flush.
func (s *Mem) Sync() error {
	s.closed.RLock()
	defer s.closed.RUnlock()
	return s.check()
}

// Close implements Store.
func (s *Mem) Close() error {
	s.closed.Lock()
	defer s.closed.Unlock()
	if s.dead {
		return ErrClosed
	}
	s.dead = true
	for i := range s.shards {
		s.shards[i].m = nil
	}
	return nil
}

// compile-time interface check
var _ Store = (*Mem)(nil)

// CompareKeys orders keys byte-lexicographically; exported for reuse by
// other packages that must agree with Store's scan order.
func CompareKeys(a, b []byte) int { return bytes.Compare(a, b) }
