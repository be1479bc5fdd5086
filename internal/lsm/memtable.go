package lsm

import "bytes"

// entryKind discriminates live values from tombstones, both in the
// memtable and inside SSTables.
type entryKind byte

const (
	kindPut    entryKind = 1
	kindDelete entryKind = 2
)

const (
	maxSkipHeight = 12
	skipBranching = 4
)

// memtable is a sorted in-memory buffer of the most recent writes,
// implemented as a skip list. Last-writer-wins per key: an insert for an
// existing key overwrites the node's value in place. Deletions are stored
// as tombstones so they shadow older values in SSTables below.
//
// The memtable itself is not synchronized; the DB serializes writers and
// protects readers with its own lock. An immutable memtable (one being
// flushed) is never written again and is read without any lock.
type memtable struct {
	head   *skipNode
	height int
	rng    uint64 // xorshift state for tower heights
	bytes  int    // approximate memory footprint of keys+values
	count  int
}

// skipNode is one entry. Key and value share one backing array (kv, the
// key first) and the tower is exactly as tall as the height drawn for the
// node — three quarters of all nodes have height 1 — allocated together
// with the node for the common heights.
type skipNode struct {
	kv   []byte
	klen int32
	kind entryKind
	next []*skipNode
}

func (n *skipNode) key() []byte   { return n.kv[:n.klen] }
func (n *skipNode) value() []byte { return n.kv[n.klen:] }

// newSkipNode allocates a node with a tower of height h; towers of up to
// four levels (255 nodes in 256) sit in the node's own allocation.
func newSkipNode(h int) *skipNode {
	switch {
	case h == 1:
		n := new(struct {
			skipNode
			tower [1]*skipNode
		})
		n.next = n.tower[:]
		return &n.skipNode
	case h <= 4:
		n := new(struct {
			skipNode
			tower [4]*skipNode
		})
		n.next = n.tower[:h]
		return &n.skipNode
	}
	return &skipNode{next: make([]*skipNode, h)}
}

func newMemtable() *memtable {
	return &memtable{
		head:   newSkipNode(maxSkipHeight),
		height: 1,
		rng:    0x9e3779b97f4a7c15,
	}
}

func (m *memtable) randomHeight() int {
	// xorshift64: two bits per level decide whether the tower grows.
	x := m.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.rng = x
	h := 1
	for h < maxSkipHeight && x&(skipBranching-1) == 0 {
		h++
		x >>= 2
	}
	return h
}

// findGreaterOrEqual returns the first node with key >= k, filling prev
// with the rightmost node before it on every level when prev != nil.
func (m *memtable) findGreaterOrEqual(k []byte, prev *[maxSkipHeight]*skipNode) *skipNode {
	x := m.head
	for level := m.height - 1; level >= 0; level-- {
		for next := x.next[level]; next != nil && bytes.Compare(next.key(), k) < 0; next = x.next[level] {
			x = next
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// set inserts or overwrites key with (kind, value), copying both.
func (m *memtable) set(key, value []byte, kind entryKind) {
	var prev [maxSkipHeight]*skipNode
	node := m.findGreaterOrEqual(key, &prev)
	if node != nil && bytes.Equal(node.key(), key) {
		m.bytes += len(value) - len(node.value())
		node.kv = append(node.kv[:node.klen], value...)
		node.kind = kind
		return
	}
	h := m.randomHeight()
	if h > m.height {
		for level := m.height; level < h; level++ {
			prev[level] = m.head
		}
		m.height = h
	}
	n := newSkipNode(h)
	n.kv = append(append(make([]byte, 0, len(key)+len(value)), key...), value...)
	n.klen = int32(len(key))
	n.kind = kind
	for level := 0; level < h; level++ {
		n.next[level] = prev[level].next[level]
		prev[level].next[level] = n
	}
	m.bytes += len(key) + len(value) + 48 // node overhead estimate
	m.count++
}

// get looks up key. found=false means the memtable knows nothing about the
// key; found=true with kind==kindDelete means the key is known deleted.
func (m *memtable) get(key []byte) (value []byte, kind entryKind, found bool) {
	n := m.findGreaterOrEqual(key, nil)
	if n != nil && bytes.Equal(n.key(), key) {
		return n.value(), n.kind, true
	}
	return nil, 0, false
}

// approximateBytes returns the estimated memory footprint.
func (m *memtable) approximateBytes() int { return m.bytes }

// len returns the number of distinct keys (including tombstones).
func (m *memtable) len() int { return m.count }

// iterator walks the memtable in ascending key order.
type memIterator struct {
	m    *memtable
	node *skipNode
}

func (m *memtable) iterator() *memIterator {
	return &memIterator{m: m}
}

// seekToFirst positions at the smallest key.
func (it *memIterator) seekToFirst() { it.node = it.m.head.next[0] }

// seek positions at the first key >= k.
func (it *memIterator) seek(k []byte) { it.node = it.m.findGreaterOrEqual(k, nil) }

// valid reports whether the iterator is positioned at an entry.
func (it *memIterator) valid() bool { return it.node != nil }

// next advances to the following entry.
func (it *memIterator) next() { it.node = it.node.next[0] }

func (it *memIterator) key() []byte     { return it.node.key() }
func (it *memIterator) value() []byte   { return it.node.value() }
func (it *memIterator) kind() entryKind { return it.node.kind }
