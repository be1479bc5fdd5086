package kv

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

const (
	// memShards splits the key space to reduce mutex contention between
	// the continuous writer and concurrent ad-hoc readers; the top
	// memShardBits bits of a key's hash pick its shard.
	memShards    = 1 << memShardBits
	memShardBits = 4
	// memChunkBits sets the entries per chunk, 1 << memChunkBits: a chunk
	// of 64-byte entries is one 8 KiB allocation.
	memChunkBits = 7
	memChunk     = 1 << memChunkBits
	// memArenaMin and memArenaMax bound a key arena block: a shard's
	// blocks start small, so a store of a few keys stays small, and double
	// up to the cap. A key longer than a quarter of the cap gets its own.
	memArenaMin = 512
	memArenaMax = 16 << 10
)

// memSeed seeds memHash; the store is in memory only, so the hash need
// not be stable across processes.
var memSeed = maphash.MakeSeed()

// memHash is a key's hash: its top memShardBits bits pick the shard, its
// low 32 bits are what the shard's index keeps and probes from.
func memHash(key []byte) uint64 { return maphash.Bytes(memSeed, key) }

// Mem is an in-memory Store. It is volatile: Sync is a no-op and nothing
// survives Close. It serves unit tests, the mem backend of the benchmark
// workloads and the memory-vs-LSM backend ablation (experiment A4 in
// DESIGN.md).
//
// Each of its shards is an open-addressing index over entries kept in
// fixed chunks that never move, with the keys copied into the shard's
// byte arena; no Go map is involved (DESIGN.md "In-memory store"). A
// Handle holds a pointer to its key's entry, so a write through it is a
// pointer store. Entry memory is never reused for another key: a delete
// marks the entry dead, and when a shard's dead entries outnumber its
// live ones, the shard copies the live ones into fresh chunks and marks
// every old entry dead, so a stale handle only ever finds a dead entry.
type Mem struct {
	shards [memShards]memShard
	closed sync.RWMutex // write-locked only by Close
	dead   bool
}

// memShard is one lock's share of the keys. All of it is guarded by mu.
type memShard struct {
	mu sync.RWMutex
	// slots is the index, linear probing over a power-of-two table at most
	// half full: 0 is an empty slot, otherwise the low 32 bits of the
	// key's hash above its entry's position plus one. A delete shifts the
	// slots after it back, so a probe stops at the first empty slot.
	slots []uint64
	// chunks hold the entries in the order their keys were inserted, at
	// positions 0 to n-1; live of them are not dead.
	chunks  memChunks
	n, live int
	arena   []byte // the key block being filled
}

// memEntry is one key of a shard, and what a Handle holds: owner and
// shard say who issued it and where its lock is, dead that a delete or a
// rebuild retired it. key is the shard's arena copy of the key. key, v
// and dead are guarded by the shard's lock; owner and shard never change.
type memEntry struct {
	v     []byte
	key   []byte
	owner *Mem
	shard uint8
	dead  bool
}

// memChunks holds a shard's entries, memChunk to a chunk.
type memChunks []*[memChunk]memEntry

// at returns the entry at position pos.
func (cs memChunks) at(pos uint32) *memEntry {
	return &cs[pos>>memChunkBits][pos&(memChunk-1)]
}

// find returns the entry of key (low hash bits hash) and its slot, or nil
// and the slot its index would go to. The index must not be empty.
func (sh *memShard) find(hash uint32, key []byte) (*memEntry, int) {
	mask := len(sh.slots) - 1
	for i := int(hash) & mask; ; i = (i + 1) & mask {
		w := sh.slots[i]
		if w == 0 {
			return nil, i
		}
		if uint32(w>>32) == hash {
			if e := sh.chunks.at(uint32(w) - 1); bytes.Equal(e.key, key) {
				return e, i
			}
		}
	}
}

// get returns the live entry of key, nil when the shard has none.
func (sh *memShard) get(hash uint32, key []byte) *memEntry {
	if sh.live == 0 {
		return nil
	}
	e, _ := sh.find(hash, key)
	return e
}

// put stores value under key and returns its entry: a new key gets an
// entry at the next position, its key copied into the arena.
func (sh *memShard) put(s *Mem, i int, hash uint32, key, value []byte) *memEntry {
	if 2*(sh.live+1) > len(sh.slots) {
		sh.grow()
	}
	e, slot := sh.find(hash, key)
	if e != nil {
		e.v = value
		return e
	}
	pos := sh.n
	e = sh.add(memEntry{v: value, key: sh.copyKey(key), owner: s, shard: uint8(i)})
	sh.slots[slot] = uint64(hash)<<32 | uint64(pos+1)
	return e
}

// add stores e at the next position and returns it there.
func (sh *memShard) add(e memEntry) *memEntry {
	if sh.n&(memChunk-1) == 0 {
		sh.chunks = append(sh.chunks, new([memChunk]memEntry))
	}
	p := sh.chunks.at(uint32(sh.n))
	*p = e
	sh.n++
	sh.live++
	return p
}

// copyKey returns the arena copy of key.
func (sh *memShard) copyKey(key []byte) []byte {
	if len(key) > memArenaMax/4 {
		return bytes.Clone(key)
	}
	if len(key) > cap(sh.arena)-len(sh.arena) {
		sh.arena = make([]byte, 0, max(min(2*cap(sh.arena), memArenaMax), memArenaMin))
	}
	n := len(sh.arena)
	sh.arena = append(sh.arena, key...)
	return sh.arena[n:len(sh.arena):len(sh.arena)]
}

// del removes key, revoking every handle of its entry.
func (sh *memShard) del(hash uint32, key []byte) {
	if sh.live == 0 {
		return
	}
	e, slot := sh.find(hash, key)
	if e == nil {
		return
	}
	retire(e)
	sh.live--
	// Backward-shift delete: move each slot of the run that follows into
	// the hole when the hole lies on its probe path, so no probe ever
	// stops short of its key.
	mask := len(sh.slots) - 1
	for j := (slot + 1) & mask; sh.slots[j] != 0; j = (j + 1) & mask {
		home := int(uint32(sh.slots[j]>>32)) & mask
		if (j-home)&mask >= (j-slot)&mask {
			sh.slots[slot] = sh.slots[j]
			slot = j
		}
	}
	sh.slots[slot] = 0
}

// retire marks e dead and lets go of its key and value. owner and shard
// are never written after add: Apply reads them without the shard lock.
func retire(e *memEntry) { e.v, e.key, e.dead = nil, nil, true }

// grow doubles the index (or creates it) and re-seats every slot by its
// stored hash.
func (sh *memShard) grow() {
	old := sh.slots
	sh.slots = make([]uint64, max(2*len(old), 16))
	mask := len(sh.slots) - 1
	for _, w := range old {
		if w != 0 {
			i := int(uint32(w>>32)) & mask
			for sh.slots[i] != 0 {
				i = (i + 1) & mask
			}
			sh.slots[i] = w
		}
	}
}

// compact rebuilds the shard once its dead entries outnumber its live
// ones (and fill a chunk, so a shard of a few keys is left alone): it
// copies the live entries, keys included, into fresh chunks and a fresh
// arena, repoints their slots, and retires every old entry. A handle to
// an old entry finds it dead and looks its key up again. Between
// rebuilds the shard holds at most max(2·live, live+memChunk) entries.
func (sh *memShard) compact() {
	dead := sh.n - sh.live
	if dead <= sh.live || dead < memChunk {
		return
	}
	old := sh.chunks
	sh.chunks, sh.n, sh.live, sh.arena = nil, 0, 0, nil
	for k, w := range sh.slots {
		if w == 0 {
			continue
		}
		e := old.at(uint32(w) - 1)
		pos := sh.n
		sh.add(memEntry{v: e.v, key: sh.copyKey(e.key), owner: e.owner, shard: e.shard})
		sh.slots[k] = w>>32<<32 | uint64(pos+1)
	}
	for _, c := range old {
		for j := range c {
			retire(&c[j])
		}
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
func NewMem() *Mem { return &Mem{} }

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
	h := memHash(key)
	sh := &s.shards[h>>(64-memShardBits)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e := sh.get(uint32(h), key); e != nil {
		return e.v, true, nil
	}
	return nil, false, nil
}

// applyScratch recycles the per-shard grouping buffers of Apply so the
// write hot path does not regrow 16 slices on every batch. A shard's
// buffer holds its ops' positions in the batch, each with the key's low
// hash bits above it when the grouping hashed the key (memHashed).
var applyScratch = sync.Pool{New: func() any { return new([memShards][]uint64) }}

const memHashed = 1 << 31

// Apply implements Store. The batch is applied under per-shard locks in
// shard order, so concurrent readers of a single key never observe a torn
// batch for that key; cross-key atomicity for readers is provided a level
// up by the MVCC table, which is the component responsible for isolation.
//
// An op whose Handle holds a live entry this store issued is a pointer
// store: no key hash, no probe. Any other put fills its handle with the
// key's entry; a delete empties it.
func (s *Mem) Apply(b *Batch, _ bool) error {
	s.closed.RLock()
	defer s.closed.RUnlock()
	if err := s.check(); err != nil {
		return err
	}
	ops := b.Ops()
	s.touchEntries(ops)
	// Group ops per shard to take each lock once.
	perShard := applyScratch.Get().(*[memShards][]uint64)
	for k := range ops {
		if e := s.trusted(ops[k].Handle); e != nil {
			perShard[e.shard] = append(perShard[e.shard], uint64(k))
			continue
		}
		h := memHash(ops[k].Key)
		i := h >> (64 - memShardBits)
		perShard[i] = append(perShard[i], h<<32|memHashed|uint64(k))
	}
	for i := range perShard {
		if len(perShard[i]) == 0 {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, w := range perShard[i] {
			op := &ops[uint32(w)&^memHashed]
			if e := s.trusted(op.Handle); e != nil && !e.dead && op.Kind == OpPut {
				e.v = op.Value
				continue
			}
			// An op grouped by its trusted handle left the key unhashed:
			// it is a delete, or its entry was retired since.
			hash := uint32(w >> 32)
			if w&memHashed == 0 {
				hash = uint32(memHash(op.Key))
			}
			if op.Kind == OpDelete {
				sh.del(hash, op.Key)
				if op.Handle != nil {
					op.Handle.mem = nil
				}
				continue
			}
			e := sh.put(s, i, hash, op.Key, op.Value)
			if op.Handle != nil {
				op.Handle.mem = e
			}
		}
		sh.compact()
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

// Scan implements Store. It walks every shard's chunks under its read
// lock, copies out the live pairs in range, sorts them and yields them
// with no lock held; mutations concurrent with Scan may or may not be
// observed, which matches the interface contract for a non-transactional
// base table. The pair buffer holds the keys in range, not the whole
// store, and the key handed to fn is one buffer refilled for every pair,
// as the contract allows.
func (s *Mem) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	s.closed.RLock()
	if err := s.check(); err != nil {
		s.closed.RUnlock()
		return err
	}
	// Every key in [start, end) begins with the prefix the two bounds
	// share: a key without it is rejected by one short compare, and start
	// itself needs no compare when it is that prefix (a table's range).
	var pre []byte
	if start != nil && end != nil {
		n := 0
		for n < len(start) && n < len(end) && start[n] == end[n] {
			n++
		}
		pre = start[:n]
	}
	in := func(k []byte) bool {
		return bytes.HasPrefix(k, pre) && (len(start) == len(pre) || bytes.Compare(k, start) >= 0) &&
			(end == nil || bytes.Compare(k, end) < 0)
	}
	var pairs memPairs
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for c, chunk := range sh.chunks {
			for j := range chunk[:min(sh.n-c<<memChunkBits, memChunk)] {
				if e := &chunk[j]; !e.dead && in(e.key) {
					pairs.add(unsafe.String(unsafe.SliceData(e.key), len(e.key)), e.v)
				}
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

// memPair is one pair a Scan copied out of the store: the key is its
// entry's arena copy, whose bytes no write changes, seen as a string.
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
		sh := &s.shards[i]
		sh.slots, sh.chunks, sh.arena = nil, nil, nil
		sh.n, sh.live = 0, 0
	}
	return nil
}

// compile-time interface check
var _ Store = (*Mem)(nil)

// CompareKeys orders keys byte-lexicographically; exported for reuse by
// other packages that must agree with Store's scan order.
func CompareKeys(a, b []byte) int { return bytes.Compare(a, b) }
