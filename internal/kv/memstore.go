package kv

import (
	"bytes"
	"encoding/binary"
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

// Scan implements Store. It copies the pairs in range under the shard
// read locks, sorts them and yields them with no lock held; mutations
// concurrent with Scan may or may not be observed, which matches the
// interface contract for a non-transactional base table. The pair buffer
// holds the keys in range, not the whole store, and the key handed
// to fn is one buffer refilled for every pair, as the contract allows.
func (s *Mem) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	s.closed.RLock()
	if err := s.check(); err != nil {
		s.closed.RUnlock()
		return err
	}
	// Every key in [start, end) begins with the prefix the two bounds
	// share: a key without it is rejected by one short compare, and start
	// itself needs no compare when it is that prefix (a table's range).
	lo, hi := string(start), string(end)
	pre := ""
	if start != nil && end != nil {
		n := 0
		for n < len(lo) && n < len(hi) && lo[n] == hi[n] {
			n++
		}
		pre = lo[:n]
	}
	in := func(k string) bool {
		return strings.HasPrefix(k, pre) && (len(lo) == len(pre) || k >= lo) && (end == nil || k < hi)
	}
	var pairs memPairs
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, e := range sh.m {
			if in(k) {
				pairs.add(k, e.v)
			}
		}
		sh.mu.RUnlock()
	}
	s.closed.RUnlock()
	var key []byte
	for _, pos := range pairs.sorted() {
		p := pairs.at(pos.i)
		key = append(key[:0], p.k...)
		if !fn(key, p.v) {
			break
		}
	}
	return nil
}

// memPair is one pair a Scan copied out of the store.
type memPair struct {
	k string
	v []byte
}

// memPairs holds a Scan's pairs in chunks of 1 << memPairBits, so that
// collecting them allocates about what the keys in range need, never
// copies a pair twice and never sizes a buffer by the whole store.
type memPairs struct {
	chunks [][]memPair
	n      int
}

const memPairBits = 12

func (ps *memPairs) add(k string, v []byte) {
	if ps.n>>memPairBits == len(ps.chunks) {
		ps.chunks = append(ps.chunks, make([]memPair, 0, 1<<memPairBits))
	}
	c := &ps.chunks[len(ps.chunks)-1]
	*c = append(*c, memPair{k, v})
	ps.n++
}

func (ps *memPairs) at(i uint32) *memPair {
	return &ps.chunks[i>>memPairBits][i&(1<<memPairBits-1)]
}

// sorted returns the positions of the pairs in ascending key order. Keys in
// one range mostly share a prefix (a table's "s/<state>/"), so it sorts
// each key's 8-byte window after the prefix all of them share, read big
// endian and zero padded, with a least-significant-byte-first radix sort —
// a pass whose byte is equal in every window is skipped — and compares
// whole keys only within a run of equal windows. A window orders two keys
// as they are ordered unless it ties; a tie (keys equal in those 8 bytes,
// or a key that is a prefix of the other within them, padded with zeros)
// is what the runs resolve.
func (ps *memPairs) sorted() []pairPos {
	n := ps.n
	byKey := func(a, b pairPos) int { return strings.Compare(ps.at(a.i).k, ps.at(b.i).k) }
	pos := make([]pairPos, n)
	if n == 0 {
		return pos
	}
	first := ps.at(0).k
	shared := len(first)
	for i := 1; i < n && shared > 0; i++ {
		k := ps.at(uint32(i)).k
		j := 0
		for j < shared && j < len(k) && k[j] == first[j] {
			j++
		}
		shared = j
	}
	var counts [8][256]uint32
	for i := range pos {
		var b [8]byte
		copy(b[:], ps.at(uint32(i)).k[shared:])
		w := binary.BigEndian.Uint64(b[:])
		pos[i] = pairPos{w, uint32(i)}
		for d := range counts {
			counts[d][byte(w>>(8*d))]++
		}
	}
	spare := make([]pairPos, n)
	for d := range counts {
		c := &counts[d]
		if c[byte(pos[0].w>>(8*d))] == uint32(n) {
			continue // every window has the same byte here
		}
		var at uint32
		for x := range c {
			at, c[x] = at+c[x], at
		}
		for _, p := range pos {
			x := byte(p.w >> (8 * d))
			spare[c[x]] = p
			c[x]++
		}
		pos, spare = spare, pos
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && pos[hi].w == pos[lo].w {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(pos[lo:hi], byKey)
		}
		lo = hi
	}
	return pos
}

// pairPos is a pair's position i in a Scan's memPairs and its sort window w.
type pairPos struct {
	w uint64
	i uint32
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
