// Package mvcc implements the multi-versioned state representation of the
// paper's Section 4.1: each key of a transactional table maps to an MVCC
// object holding an array of version slots. A slot is the classic MVCC
// triple <[cts, dts], value> — the commit timestamp and deletion
// timestamp delimit the version's lifetime. Garbage collection runs on
// demand: only when a writer needs a slot and none can be reclaimed do
// versions that no active transaction can see (dts <= OldestActiveVersion)
// get dropped; if nothing is reclaimable the array grows, so long-pinned
// snapshots trade memory for writer progress (the paper's single 64-bit
// UsedSlots word caps a key at 64 live versions, which is unsound when a
// reader can hold its pin across scheduler quanta — see the growth rule).
//
// Concurrency is read-copy-update with an append-in-place fast path.
// Because commit timestamps are handed out monotonically per object (the
// group-commit pipeline serializes installers), versions are stored in
// ascending cts order and a new version is an APPEND: the writer fills
// the next free slot and then publishes it with one atomic store of the
// element count. Terminating the predecessor mutates only its atomic dts
// word. Readers load the count, scan backward without any locks, and can
// never observe a torn slot: the slot's contents happen-before the count
// that exposes it. The array is cloned only when it is full (reclaim or
// grow) — the steady-state install allocates nothing but the value copy,
// where the original RCU design cloned the whole slot array on every
// install.
//
// A reader between the predecessor's termination and the count publish
// could in principle see "deleted" at rts >= cts — but no snapshot reader
// can hold rts >= cts before the commit publishes LastCTS (which happens
// after all installs), S2PL readers are excluded by the row lock, and
// BOCC's unsynchronized Infinity-readers already tolerate torn commits by
// construction (their validation aborts them — see bocc.go).
package mvcc

import (
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
)

// Timestamp is a logical commit timestamp drawn from the global atomic
// counter in the transaction context. Timestamp 0 is reserved: as a CTS it
// marks "never committed" (unused slot) and as a DTS it marks "still
// alive".
type Timestamp = uint64

// Infinity is a read timestamp greater than any commit timestamp; reading
// at Infinity returns the latest committed version (used by the locking
// and optimistic protocols, which do not read from snapshots).
const Infinity Timestamp = ^uint64(0)

// DefaultSlots is the initial version-array capacity. Arrays grow on
// demand (doubling) when garbage collection cannot reclaim a slot.
const DefaultSlots = 8

// slot is one version: the [cts, dts] header plus its value. cts and the
// value are written before the slot is published (via versionSet.n) and
// immutable afterwards; dts is atomic because termination mutates it in
// place while lock-free readers scan.
type slot struct {
	cts Timestamp
	dts atomic.Uint64
	val []byte
}

// versionSet is one generation of an object's version array: slots[0:n)
// hold versions in ascending cts order. The array itself is fixed-size;
// appends publish a new n, and only reclaim/growth replaces the set.
type versionSet struct {
	slots []slot
	n     atomic.Int64
}

// Object is the per-key version container. All methods are safe for
// concurrent use; reads are wait-free (atomic loads only), writers
// serialize on a short mutex.
type Object struct {
	mu     sync.Mutex // writers only: Install, InstallRecovered, GC, Retained
	snap   atomic.Pointer[versionSet]
	latest atomic.Uint64 // newest installed cts, deletions included
}

func newVersionSet(slots int) *versionSet {
	return &versionSet{slots: make([]slot, slots)}
}

// NewObject creates an object with initial capacity for slots versions
// (0 selects DefaultSlots; values are clamped to at least 1).
func NewObject(slots int) *Object {
	if slots == 0 {
		slots = DefaultSlots
	}
	if slots < 1 {
		slots = 1
	}
	o := &Object{}
	o.snap.Store(newVersionSet(slots))
	return o
}

// Read returns the version visible at read timestamp rts: the version
// with the greatest cts satisfying cts <= rts and (dts == 0 or dts > rts).
// ok is false when no version is visible (the key did not exist, or was
// deleted, in that snapshot). The returned slice is owned by the object
// and must not be modified. Read takes no locks.
//
// The backward scan is exact: versions ascend by cts, so the first slot
// from the top with cts <= rts is the only candidate — every older
// version was terminated at or before that slot's cts (dts chains), hence
// is invisible at rts too.
func (o *Object) Read(rts Timestamp) (value []byte, ok bool) {
	s := o.snap.Load()
	for i := int(s.n.Load()) - 1; i >= 0; i-- {
		sl := &s.slots[i]
		if sl.cts > rts {
			continue
		}
		if dts := sl.dts.Load(); dts == 0 || dts > rts {
			return sl.val, true
		}
		return nil, false
	}
	return nil, false
}

// LatestCTS returns the commit timestamp of the newest version, whether
// alive or deleted; the SI protocol's First-Committer-Wins rule compares
// it against the writer's snapshot.
func (o *Object) LatestCTS() Timestamp {
	return o.latest.Load()
}

// Install makes a new version visible: the currently live version (if
// any) gets dts = cts, and unless the write is a deletion a new slot
// <[cts, 0], value> is appended. oldestActive drives on-demand garbage
// collection when the array is full; if nothing is reclaimable the array
// grows, so Install never fails for capacity reasons. Install takes
// OWNERSHIP of value: the caller must not modify it afterwards (commit
// paths hand over their private write-set copies, so the hot path pays
// no extra copy). Concurrent readers observe the old or the new version
// count, never a torn slot.
//
// Install must only be called by a committing transaction holding the
// group commit latch, with cts greater than every previously installed
// cts for this object.
func (o *Object) Install(cts Timestamp, value []byte, delete bool, oldestActive Timestamp) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if cts <= o.latest.Load() {
		return fmt.Errorf("mvcc: non-monotonic install: cts %d <= latest %d", cts, o.latest.Load())
	}
	cur := o.snap.Load()
	n := int(cur.n.Load())
	// Terminate the currently live version — by cts order it can only be
	// the newest slot.
	if n > 0 {
		if sl := &cur.slots[n-1]; sl.dts.Load() == 0 {
			sl.dts.Store(cts)
		}
	}
	o.latest.Store(cts)
	// A deletion installs no new version: the terminated predecessor
	// alone makes the key invisible to snapshots at or after cts.
	if !delete {
		next := cur
		if n == len(cur.slots) {
			next = cur.reclaimOrGrow(oldestActive)
			n = int(next.n.Load())
		}
		sl := &next.slots[n]
		sl.cts = cts
		sl.dts.Store(0)
		sl.val = value
		next.n.Store(int64(n + 1)) // publish: slot contents happen-before this
		if next != cur {
			o.snap.Store(next)
		}
	}
	return nil
}

// InstallRecovered seeds the object with one committed version during
// recovery, bypassing the monotonicity bookkeeping of live commits.
func (o *Object) InstallRecovered(cts Timestamp, value []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	cur := o.snap.Load()
	sl := &cur.slots[0]
	sl.cts = cts
	sl.dts.Store(0)
	sl.val = append([]byte(nil), value...)
	if cur.n.Load() < 1 {
		cur.n.Store(1)
	}
	if cts > o.latest.Load() {
		o.latest.Store(cts)
	}
}

// reclaimOrGrow builds the successor of a full set: dead versions
// (dts <= oldestActive) are dropped; if none are, the array doubles.
// The caller publishes the result after appending into it.
func (s *versionSet) reclaimOrGrow(oldestActive Timestamp) *versionSet {
	n := int(s.n.Load())
	live := 0
	for i := 0; i < n; i++ {
		if dts := s.slots[i].dts.Load(); dts == 0 || dts > oldestActive {
			live++
		}
	}
	size := len(s.slots)
	if live == size {
		// Nothing reclaimable: grow (see package comment).
		size *= 2
	}
	next := newVersionSet(size)
	j := 0
	for i := 0; i < n; i++ {
		sl := &s.slots[i]
		dts := sl.dts.Load()
		if dts != 0 && dts <= oldestActive {
			continue
		}
		nsl := &next.slots[j]
		nsl.cts = sl.cts
		nsl.dts.Store(dts)
		nsl.val = sl.val
		j++
	}
	next.n.Store(int64(j))
	return next
}

// LiveVersions returns the number of occupied slots (reclaimable ones
// included); used by tests and the slot-size ablation.
func (o *Object) LiveVersions() int {
	return int(o.snap.Load().n.Load())
}

// Retained calls fn once with the values of the retained versions, oldest
// first — every occupied slot, reclaimable ones included: the values some
// reader may still see. The writer mutex is held until fn returns, so no
// Install or GC interleaves and whatever fn concludes from the versions
// it may act on before the next one is installed (the secondary index
// drops a candidate entry that way, see txn.Index). The sequence is
// valid only inside fn, which must not call a writer method of o.
func (o *Object) Retained(fn func(values iter.Seq[[]byte])) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.snap.Load()
	n := int(s.n.Load())
	fn(func(yield func([]byte) bool) {
		for i := 0; i < n; i++ {
			if !yield(s.slots[i].val) {
				return
			}
		}
	})
}

// Capacity returns the current version-array length.
func (o *Object) Capacity() int {
	return len(o.snap.Load().slots)
}

// GC reclaims all versions invisible at oldestActive and reports how many
// slots were freed. The table wrapper exposes this for explicit
// housekeeping; the normal path garbage-collects lazily inside Install.
func (o *Object) GC(oldestActive Timestamp) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	cur := o.snap.Load()
	n := int(cur.n.Load())
	dead := 0
	for i := 0; i < n; i++ {
		if dts := cur.slots[i].dts.Load(); dts != 0 && dts <= oldestActive {
			dead++
		}
	}
	if dead == 0 {
		return 0
	}
	next := newVersionSet(len(cur.slots))
	j := 0
	for i := 0; i < n; i++ {
		sl := &cur.slots[i]
		dts := sl.dts.Load()
		if dts != 0 && dts <= oldestActive {
			continue
		}
		nsl := &next.slots[j]
		nsl.cts = sl.cts
		nsl.dts.Store(dts)
		nsl.val = sl.val
		j++
	}
	next.n.Store(int64(j))
	o.snap.Store(next)
	return dead
}
