package lsm

import (
	"bytes"
	"hash/maphash"
	"slices"
)

// entryKind discriminates live values from tombstones, both in the
// memtable and inside SSTables.
type entryKind byte

const (
	kindPut    entryKind = 1
	kindDelete entryKind = 2
)

const (
	// memChunkBytes is the size of one block of key/value storage; a
	// record larger than that gets a block of its own.
	memChunkBytes = 64 << 10
	// memEntryOverhead is the bookkeeping charged per distinct key: its
	// memEntry and its two index slots at the maximum load.
	memEntryOverhead = 48
	// memSizedRow is the row a sized memtable plans for — 32 bytes of key
	// and value; smaller rows regrow it — and memSizedEntries caps the
	// entries it reserves room for.
	memSizedRow     = 32 + memEntryOverhead
	memSizedEntries = 1 << 16
)

var memSeed = maphash.MakeSeed()

// memtable is the in-memory buffer of the most recent writes. It is
// unordered: set appends the entry in arrival order — key and value bytes
// copied into chunks, so the caller's buffers are free on return — and
// finds it again through an open-addressing hash index, so a write costs
// one probe however many keys there are. Key order is produced only for
// those who need it, by iterator(). Last writer wins per key; deletions
// are stored as tombstones so they shadow older values in SSTables below.
//
// The memtable itself is not synchronized; the DB serializes writers and
// protects readers with its own lock. An immutable memtable (one being
// flushed) is never written again and is read without any lock.
type memtable struct {
	entries []memEntry
	// slots is the index, linear probing over a power-of-two table at most
	// half full: 0 is an empty slot, otherwise the low 32 bits of the
	// key's hash above the entry's position in entries plus one.
	slots []uint64
	chunk []byte // the block being filled; earlier ones live on through the entries
	bytes int    // storage handed out, plus memEntryOverhead per entry
	// sized is the number of entries to make room for at the first set.
	sized int
}

// memEntry is one key: kv is the key followed by the value, capacity
// clipped to the room reserved for it, so a later value that fits is
// written in place.
type memEntry struct {
	kv   []byte
	klen uint32
	kind entryKind
}

func (e *memEntry) key() []byte   { return e.kv[:e.klen] }
func (e *memEntry) value() []byte { return e.kv[e.klen:] }

func newMemtable() *memtable { return &memtable{} }

// newMemtableSized returns a memtable whose first set makes room for the
// entries that fill it to a flush threshold of limit bytes, so that on the
// way there neither the index nor the entry slice is regrown.
func newMemtableSized(limit int) *memtable {
	return &memtable{sized: min(limit/memSizedRow, memSizedEntries)}
}

// find returns the entry of key, or nil and the slot its index goes to.
func (m *memtable) find(key []byte) (e *memEntry, slot int, hash uint32) {
	hash = uint32(maphash.Bytes(memSeed, key))
	mask := len(m.slots) - 1
	for slot = int(hash) & mask; ; slot = (slot + 1) & mask {
		s := m.slots[slot]
		if s == 0 {
			return nil, slot, hash
		}
		if uint32(s>>32) == hash {
			if e = &m.entries[uint32(s)-1]; bytes.Equal(e.key(), key) {
				return e, slot, hash
			}
		}
	}
}

// grow doubles the index (or creates it) and re-seats every entry.
func (m *memtable) grow() {
	n := max(2*len(m.slots), 16)
	if m.slots == nil && m.sized > 0 {
		m.entries = make([]memEntry, 0, m.sized)
		for n < 2*m.sized {
			n *= 2
		}
	}
	old := m.slots
	m.slots = make([]uint64, n)
	for _, s := range old {
		if s != 0 {
			i := int(uint32(s>>32)) & (n - 1)
			for m.slots[i] != 0 {
				i = (i + 1) & (n - 1)
			}
			m.slots[i] = s
		}
	}
}

// store copies key and value next to each other into chunk storage.
func (m *memtable) store(key, value []byte) []byte {
	n := len(key) + len(value)
	if n > cap(m.chunk)-len(m.chunk) {
		m.chunk = make([]byte, 0, max(n, memChunkBytes))
	}
	off := len(m.chunk)
	m.chunk = append(append(m.chunk, key...), value...)
	m.bytes += n
	return m.chunk[off : off+n : off+n]
}

// set inserts or overwrites key with (kind, value), copying both.
func (m *memtable) set(key, value []byte, kind entryKind) {
	if 2*len(m.entries) >= len(m.slots) {
		m.grow()
	}
	e, slot, hash := m.find(key)
	switch {
	case e == nil:
		m.entries = append(m.entries, memEntry{kv: m.store(key, value), klen: uint32(len(key)), kind: kind})
		m.slots[slot] = uint64(hash)<<32 | uint64(len(m.entries))
		m.bytes += memEntryOverhead
	case len(key)+len(value) <= cap(e.kv):
		e.kv = append(e.kv[:e.klen], value...)
		e.kind = kind
	default:
		e.kv, e.kind = m.store(key, value), kind
	}
}

// get looks up key. found=false means the memtable knows nothing about the
// key; found=true with kind==kindDelete means the key is known deleted.
func (m *memtable) get(key []byte) (value []byte, kind entryKind, found bool) {
	if len(m.entries) == 0 {
		return nil, 0, false
	}
	if e, _, _ := m.find(key); e != nil {
		return e.value(), e.kind, true
	}
	return nil, 0, false
}

// approximateBytes returns the estimated memory footprint. Storage an
// overwrite with a longer value leaves behind stays counted.
func (m *memtable) approximateBytes() int { return m.bytes }

// len returns the number of distinct keys (including tombstones).
func (m *memtable) len() int { return len(m.entries) }

// memIterator walks a memtable in ascending key order, over a sorted copy
// of the entries as they were when it was made. It shares nothing with
// other iterators and leaves the memtable as it found it, so any number
// of readers may hold one at a time; it must not be used across a set.
type memIterator struct {
	sorted []memEntry
	pos    int
}

// iterator puts the entries in key order: the n·log n comparisons no set
// ever pays are paid here, once per flush or Scan. The sorted copy goes
// into buf's storage (nil: a fresh array), which the iterator then owns.
func (m *memtable) iterator(buf []memEntry) *memIterator {
	sorted := append(buf[:0], m.entries...)
	slices.SortFunc(sorted, func(a, b memEntry) int { return bytes.Compare(a.key(), b.key()) })
	return &memIterator{sorted: sorted, pos: len(sorted)}
}

// seekToFirst positions at the smallest key.
func (it *memIterator) seekToFirst() { it.pos = 0 }

// seek positions at the first key >= k.
func (it *memIterator) seek(k []byte) {
	it.pos, _ = slices.BinarySearchFunc(it.sorted, k, func(e memEntry, k []byte) int { return bytes.Compare(e.key(), k) })
}

// valid reports whether the iterator is positioned at an entry.
func (it *memIterator) valid() bool { return it.pos < len(it.sorted) }

// next advances to the following entry.
func (it *memIterator) next() { it.pos++ }

func (it *memIterator) key() []byte     { return it.sorted[it.pos].key() }
func (it *memIterator) value() []byte   { return it.sorted[it.pos].value() }
func (it *memIterator) kind() entryKind { return it.sorted[it.pos].kind }
