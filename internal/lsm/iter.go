package lsm

import (
	"bytes"
	"container/heap"
)

// internalIterator is the common shape of memtable and SSTable iterators
// after adapting: position with seekToFirst/seek, then repeatedly call
// next. key/value/kind are valid until the following next call.
type internalIterator interface {
	seekToFirst()
	seek(k []byte)
	next() bool
	key() []byte
	value() []byte
	kind() entryKind
}

// memtable iterator adaption: the memtable's iterator exposes a
// valid/next protocol; wrap it into the pull protocol.
type memIterAdapter struct {
	it      *memIterator
	started bool
}

func (a *memIterAdapter) seekToFirst() { a.it.seekToFirst(); a.started = false }
func (a *memIterAdapter) seek(k []byte) {
	a.it.seek(k)
	a.started = false
}
func (a *memIterAdapter) next() bool {
	if !a.started {
		a.started = true
	} else if a.it.valid() {
		a.it.next()
	}
	return a.it.valid()
}
func (a *memIterAdapter) key() []byte     { return a.it.key() }
func (a *memIterAdapter) value() []byte   { return a.it.value() }
func (a *memIterAdapter) kind() entryKind { return a.it.kind() }

// mergeSource is one input to the k-way merge, tagged with its age: lower
// age values shadow higher ones when keys collide (age 0 = memtable,
// then immutable memtable, then L0 newest..oldest, then deeper levels).
type mergeSource struct {
	it  internalIterator
	age int
	ok  bool
}

type mergeHeap []*mergeSource

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	c := bytes.Compare(h[i].it.key(), h[j].it.key())
	if c != 0 {
		return c < 0
	}
	return h[i].age < h[j].age
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*mergeSource)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mergingIterator yields the newest entry per user key across all sources
// in ascending key order, including tombstones (callers filter them).
type mergingIterator struct {
	h       mergeHeap
	curKey  []byte
	curVal  []byte
	curKind entryKind
}

// newMergingIterator builds a merge over sources positioned by seek or
// seekToFirst; start may be nil for "from the beginning".
func newMergingIterator(sources []*mergeSource, start []byte) *mergingIterator {
	m := &mergingIterator{}
	for _, s := range sources {
		if start == nil {
			s.it.seekToFirst()
		} else {
			s.it.seek(start)
		}
		s.ok = s.it.next()
		if s.ok {
			m.h = append(m.h, s)
		}
	}
	heap.Init(&m.h)
	return m
}

// next advances to the next distinct user key, returning false at the end.
func (m *mergingIterator) next() bool {
	for m.h.Len() > 0 {
		top := m.h[0]
		key := top.it.key()
		if m.curKey != nil && bytes.Equal(key, m.curKey) {
			// Shadowed duplicate of the key we already emitted.
			m.advanceTop()
			continue
		}
		m.curKey = append(m.curKey[:0], key...)
		m.curVal = append(m.curVal[:0], top.it.value()...)
		m.curKind = top.it.kind()
		m.advanceTop()
		return true
	}
	return false
}

func (m *mergingIterator) advanceTop() {
	top := m.h[0]
	if top.it.next() {
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
}

func (m *mergingIterator) key() []byte     { return m.curKey }
func (m *mergingIterator) value() []byte   { return m.curVal }
func (m *mergingIterator) kind() entryKind { return m.curKind }
