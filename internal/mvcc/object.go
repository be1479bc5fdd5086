// Package mvcc implements the multi-versioned state representation of the
// paper's Section 4.1: each key of a transactional table owns an array of
// version slots, each the classic MVCC triple <[cts, dts], value> — the
// commit and deletion timestamps delimit the version's lifetime
// [cts, dts), and dts 0 marks the live version.
//
// # Slot layout
//
// An Object keeps DefaultSlots slots inline, so a table row that embeds
// its Object by value holds the key's versions with no pointer between
// them and the row. Only when more versions must be retained than fit does
// the object spill to a heap array of further slots, which doubles each
// time it fills again; capacity never shrinks. Slots are not kept in cts
// order — a version lives wherever Install found room — so readers check
// every slot. At most one is visible at any snapshot, because a key's
// version lifetimes are disjoint.
//
// # Reuse in place
//
// Install puts a new version into a free slot (never used, or freed by
// GC) and otherwise overwrites, in place, a dead one: a version ended at
// or below the oldest snapshot any reader may still hold
// (dts <= oldestActive). The array grows only when every slot holds a
// version some reader may still see: under a long-pinned snapshot, or for
// a key rewritten twice in one commit batch (the batch's horizon precedes
// its own commit timestamps, so when the second rewrite arrives neither
// the first one's version nor the one it replaced is dead). The paper's
// single 64-bit UsedSlots word caps a key at 64
// versions; growth removes that cap, so a pinned snapshot costs memory,
// never writer progress. GC frees every dead slot at once, for
// housekeeping sweeps.
//
// # Writers
//
// Install, InstallRecovered, GC and Retained must be serialized by the
// caller — package txn runs all four under the table's group commit latch
// — and take no lock of their own. The serialization is what keeps
// Retained exact: between a Retained call's look at the versions and
// whatever its callback does about them, no version is installed or
// freed. The secondary-index sweeper relies on that (txn.Index): it drops
// a row from a candidate set when no retained version carries the set's
// index key, and the commit path installs a version and then adds its
// candidate without releasing the latch, so a sweep step falls entirely
// before an install and its add, or entirely after them.
//
// # Readers
//
// Read, LatestCTS, LiveVersions and Capacity take no lock and never wait,
// and may run while a writer rewrites the very slot they read. Every slot
// field is atomic; the value is held as its data pointer and its length,
// two words loaded one at a time (a slice header is three), and rebuilt
// with unsafe.Slice once the reader knows both belong to one version. The
// slot's cts doubles as its sequence number: a reader loads cts, checks
// the lifetime against its rts, loads the value and loads cts again, and
// skips the slot if cts changed — the slot was rewritten under it. The
// writer orders its stores so that a slot whose cts did not change was
// whole:
//
//   - into a free slot, which readers skip while its cts is 0: the value
//     and dts = 0 first, cts last;
//   - over a dead slot: cts first — the slot then reads [new cts, old dts),
//     an empty lifetime, because the old dts is at most the new cts —
//     then the value, and dts = 0 last;
//   - GC frees a slot by storing cts = 0 before it drops the value.
//
// Go's atomics are sequentially consistent, so a reader that saw any store
// of a rewrite sees that rewrite's first store, to cts, when it re-loads
// cts. A grown spill array is copied, published, and never written again;
// a reader still scanning the old one sees the versions as they were when
// it was copied.
//
// What a reader may take from that depends on its pin. A snapshot reader
// (SI transactions, txn.Snapshot, change feeds) pins its rts into the
// oldestActive of every later Install and GC before it reads, so a slot
// reused or freed under it held a version invisible at rts (dts <=
// oldestActive <= rts): skipping it loses nothing, and the version it
// needs is never written while it reads. A stale copy in an old spill
// array is right for it too: a version ended after the reader pinned was
// ended by a commit above rts. Readers that hold no pin — BOCC reads at
// Infinity, txn.Table.ReadAt, an unpinned txn.Index.Lookup — are exactly
// as memory-safe: they never see a value torn between two versions, only,
// like any RCU reader, a version that was current a moment ago; BOCC's
// validation aborts a transaction that read one. So Read returns the
// first visible version it finds: for a pinned reader the only one, for
// an unpinned reader one that was current while it read.
//
// Between Install's termination of the live version and the publication
// of its successor, a reader at rts >= cts could see the key deleted — but
// no snapshot reader holds such an rts before the commit publishes LastCTS
// (after all its installs), S2PL readers are excluded by the row lock, and
// BOCC's Infinity readers tolerate torn commits by validation (bocc.go).
package mvcc

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"sync/atomic"
	"unsafe"
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

// DefaultSlots is the number of version slots an Object keeps inline: the
// live version and the one it replaced, which is all a key needs while no
// snapshot pins an older one. More spill to the heap (see the package
// comment).
const DefaultSlots = 2

// slot is one version <[cts, dts], value>; cts 0 marks a free slot. The
// value is kept as its data pointer (which keeps its array alive) and its
// length: readers load them while the slot may be rewritten, and no
// atomic operation covers a three-word slice header. unsafe.Slice
// rebuilds the value once a reader has checked both belong to one version
// (see Readers in the package comment).
type slot struct {
	cts atomic.Uint64
	dts atomic.Uint64
	ptr atomic.Pointer[byte]
	n   atomic.Uint64
}

// Object is one key's versions. The zero value is an empty object with
// DefaultSlots slots; Init sizes it otherwise. Which methods the caller
// must serialize is in the package comment.
type Object struct {
	latest atomic.Uint64 // newest installed cts, deletions included
	inline [DefaultSlots]slot
	spill  atomic.Pointer[spill] // nil: every inline slot in use, none beyond
}

// spill is an object's layout beyond the default: how many inline slots
// are in use (fewer than DefaultSlots only for an object made smaller) and
// the heap slots after them.
type spill struct {
	inline int
	slots  []slot
}

func newSpill(capacity int) *spill {
	in := min(capacity, DefaultSlots)
	return &spill{inline: in, slots: make([]slot, capacity-in)}
}

// Init sets the capacity of o, which must hold no version yet, to slots
// versions (0 selects DefaultSlots; values are clamped to at least 1). It
// initializes an Object in place — embedded in a larger struct — where
// NewObject would allocate one.
func (o *Object) Init(slots int) {
	if slots == 0 {
		slots = DefaultSlots
	}
	if slots = max(slots, 1); slots != DefaultSlots {
		o.spill.Store(newSpill(slots))
	}
}

// NewObject creates an object with capacity for slots versions (see Init).
func NewObject(slots int) *Object {
	o := new(Object)
	o.Init(slots)
	return o
}

// layout returns the slots of o in use: the inline ones and the spilled.
func (o *Object) layout() (inline, spilled []slot) {
	if sp := o.spill.Load(); sp != nil {
		return o.inline[:sp.inline], sp.slots
	}
	return o.inline[:], nil
}

// Read returns the version visible at read timestamp rts: the version
// with cts <= rts and (dts == 0 or dts > rts). ok is false when no version
// is visible (the key did not exist, or was deleted, in that snapshot).
// The returned slice is owned by the object and must not be modified.
// Read takes no locks.
func (o *Object) Read(rts Timestamp) (value []byte, ok bool) {
	inline, spilled := o.layout()
	for _, part := range [...][]slot{inline, spilled} {
		for i := range part {
			if value, ok = part[i].read(rts); ok {
				return value, true
			}
		}
	}
	return nil, false
}

// read returns the slot's version when it is visible at rts, skipping a
// slot rewritten while it was read (see the package comment).
func (s *slot) read(rts Timestamp) (value []byte, ok bool) {
	cts := s.cts.Load()
	if cts == 0 || cts > rts {
		return nil, false
	}
	if dts := s.dts.Load(); dts != 0 && dts <= rts {
		return nil, false
	}
	p, n := s.ptr.Load(), s.n.Load()
	if s.cts.Load() != cts {
		return nil, false
	}
	return unsafe.Slice(p, n), true
}

// put writes version <[cts, 0], value> into s, which is free or holds a
// dead version, in the store order the package comment gives. A store
// that would not change a word is skipped: each is a locked instruction.
func (s *slot) put(cts Timestamp, value []byte) {
	if s.cts.Load() == 0 {
		s.setValue(value)
		if s.dts.Load() != 0 {
			s.dts.Store(0)
		}
		s.cts.Store(cts)
		return
	}
	s.cts.Store(cts)
	s.setValue(value)
	s.dts.Store(0)
}

// setValue stores value's data pointer and length.
func (s *slot) setValue(value []byte) {
	s.ptr.Store(unsafe.SliceData(value))
	if n := uint64(len(value)); s.n.Load() != n {
		s.n.Store(n)
	}
}

// LatestCTS returns the commit timestamp of the newest version, whether
// alive or deleted; the SI protocol's First-Committer-Wins rule compares
// it against the writer's snapshot.
func (o *Object) LatestCTS() Timestamp {
	return o.latest.Load()
}

// Install makes a new version visible: the live version (if any) gets
// dts = cts, and unless the write is a deletion the version
// <[cts, 0], value> goes into a free slot, else over a slot dead at
// oldestActive, else into a grown array — Install never fails for
// capacity reasons. Install takes OWNERSHIP of value: the caller must not
// modify it afterwards (commit paths hand over their private write-set
// copies, so the hot path pays no extra copy). Concurrent readers see the
// old version or the new one, never a torn slot.
//
// Install must only be called by a committing transaction holding the
// group commit latch (see Writers in the package comment), with cts
// greater than every previously installed cts for this object.
func (o *Object) Install(cts Timestamp, value []byte, delete bool, oldestActive Timestamp) error {
	if latest := o.latest.Load(); cts <= latest {
		return fmt.Errorf("mvcc: non-monotonic install: cts %d <= latest %d", cts, latest)
	}
	// One pass finds the live version and the first free and dead slot —
	// dead once the live version is ended at cts.
	var live, free, dead *slot
	inline, spilled := o.layout()
	for _, part := range [...][]slot{inline, spilled} {
		for i := range part {
			s := &part[i]
			if s.cts.Load() == 0 {
				if free == nil {
					free = s
				}
				continue
			}
			dts := s.dts.Load()
			if dts == 0 {
				live, dts = s, cts
			}
			if dead == nil && dts <= oldestActive {
				dead = s
			}
		}
	}
	if live != nil {
		live.dts.Store(cts)
	}
	o.latest.Store(cts)
	// A deletion installs no new version: the terminated predecessor
	// alone makes the key invisible to snapshots at or after cts.
	if delete {
		return nil
	}
	switch {
	case free != nil:
		free.put(cts, value)
	case dead != nil:
		dead.put(cts, value)
	default:
		o.grow(inline, spilled).put(cts, value)
	}
	return nil
}

// grow doubles the capacity of o, whose slots in use are inline and
// spilled, and returns a free slot of the new layout. The spilled slots
// are copied into a fresh array before it is published.
func (o *Object) grow(inline, spilled []slot) *slot {
	next := newSpill(2 * (len(inline) + len(spilled)))
	for i := range spilled {
		from, to := &spilled[i], &next.slots[i]
		to.cts.Store(from.cts.Load())
		to.dts.Store(from.dts.Load())
		to.ptr.Store(from.ptr.Load())
		to.n.Store(from.n.Load())
	}
	o.spill.Store(next)
	if next.inline > len(inline) {
		return &o.inline[len(inline)]
	}
	return &next.slots[len(spilled)]
}

// InstallRecovered seeds an object that holds no version yet with one
// committed version during recovery, bypassing the monotonicity
// bookkeeping of live commits. It copies value.
func (o *Object) InstallRecovered(cts Timestamp, value []byte) {
	o.inline[0].put(cts, append([]byte(nil), value...))
	if cts > o.latest.Load() {
		o.latest.Store(cts)
	}
}

// LiveVersions returns the number of occupied slots (reclaimable ones
// included); used by tests and the slot-size ablation.
func (o *Object) LiveVersions() int {
	inline, spilled := o.layout()
	n := 0
	for _, part := range [...][]slot{inline, spilled} {
		for i := range part {
			if part[i].cts.Load() != 0 {
				n++
			}
		}
	}
	return n
}

// Capacity returns the number of versions o holds before it grows.
func (o *Object) Capacity() int {
	inline, spilled := o.layout()
	return len(inline) + len(spilled)
}

// Retained calls fn once with the values of the retained versions, oldest
// first — every occupied slot, reclaimable ones included: the values some
// reader may still see. Callers serialize it with the writer methods (see
// Writers in the package comment), so no version is installed or freed
// until fn returns, and whatever fn concludes from the versions it may act
// on before the next one is installed (the secondary index drops a
// candidate entry that way, see txn.Index). The sequence is valid only
// inside fn, which must not call a writer method of o.
func (o *Object) Retained(fn func(values iter.Seq[[]byte])) {
	fn(func(yield func([]byte) bool) {
		inline, spilled := o.layout()
		var buf [2 * DefaultSlots]*slot
		held := buf[:0]
		for _, part := range [...][]slot{inline, spilled} {
			for i := range part {
				if part[i].cts.Load() != 0 {
					held = append(held, &part[i])
				}
			}
		}
		slices.SortFunc(held, func(a, b *slot) int { return cmp.Compare(a.cts.Load(), b.cts.Load()) })
		for _, s := range held {
			if !yield(unsafe.Slice(s.ptr.Load(), s.n.Load())) {
				return
			}
		}
	})
}

// GC frees every slot whose version is invisible at oldestActive and
// reports how many it freed. The table wrapper's sweeps call it; Install
// reuses dead slots on its own.
func (o *Object) GC(oldestActive Timestamp) int {
	inline, spilled := o.layout()
	freed := 0
	for _, part := range [...][]slot{inline, spilled} {
		for i := range part {
			s := &part[i]
			if s.cts.Load() == 0 {
				continue
			}
			if dts := s.dts.Load(); dts != 0 && dts <= oldestActive {
				s.cts.Store(0) // readers skip the slot from here on
				s.ptr.Store(nil)
				freed++
			}
		}
	}
	return freed
}
