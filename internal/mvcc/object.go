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
// time it fills again. Slots are not kept in cts order — a version lives
// wherever Install found room — so readers check every slot. At most one
// is visible at any snapshot, because a key's version lifetimes are
// disjoint.
//
// The writer keeps its own view of a spilled object's slots in the heap
// header: the occupied ones in cts order, followed by the free ones.
// Versions die oldest first — a version's dts is its successor's cts — so
// the live version is the newest occupied slot, the only one that can be
// dead is the oldest, and a free slot is the first after the occupied
// ones: Install and GC touch the slots they change and no other, however
// many the object has. The paper's 64-bit UsedSlots word found a free
// slot in one step but capped a key at 64 versions; the order keeps the
// one step without the cap.
//
// A default-sized object returns to the inline layout once it has gone
// calmRounds times its capacity in installs in a row with every version
// but the newest DefaultSlots dead: the kept versions are copied into
// inline slots before the inline layout is published, the protocol grow
// uses. A key pinned again within that many installs keeps its array, so
// recurring pins do not make it grow and shrink on every pin. An object
// sized by Init never shrinks.
//
// # Reuse in place
//
// Install puts a new version into a free slot (never used, or freed by
// GC) and otherwise overwrites, in place, the oldest version if it is
// dead: ended at or below the oldest snapshot any reader may still hold
// (dts <= oldestActive). The array grows only when every slot holds a
// version some reader may still see: under a long-pinned snapshot, or for
// a key rewritten twice in one commit batch (the batch's horizon precedes
// its own commit timestamps, so when the second rewrite arrives neither
// the first one's version nor the one it replaced is dead). So a pinned
// snapshot costs memory, never writer progress. GC frees every dead slot
// at once, for housekeeping sweeps.
//
// # Writers
//
// Install, InstallRecovered, GC and Retained must be serialized by the
// caller — package txn runs all four under the table's group commit latch,
// or seeds rows that no other goroutine can reach yet (recovery) — and
// take no lock of their own. The serialization is what keeps
// Retained exact: between a Retained call's look at the versions and
// whatever its callback does about them, no version is installed or
// freed. The secondary-index sweep relies on that (txn.Index): it drops
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
//     then the value, and dts = 0 last (a return to the inline layout
//     stores the copied version's dts there);
//   - GC frees a slot by storing cts = 0 before it drops the value.
//
// Go's atomics are sequentially consistent, so a reader that saw any store
// of a rewrite sees that rewrite's first store, to cts, when it re-loads
// cts. A heap array that grow or a return to the inline slots replaced is
// never written again; a reader still scanning it sees its versions as
// they were when the next layout was published. Every version a reader
// may need is in the layout it loaded: grow copies the spilled slots
// before it publishes the larger array, and a return copies the kept
// versions into the inline slots before it publishes the inline layout.
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
	"fmt"
	"iter"
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
// the heap slots after them. Slot index i names inline slot i below inline
// and heap slot i-inline from there.
//
// The rest is the writer's view of the slots (see Slot layout and Writers
// in the package comment), which readers never look at: order holds every
// slot index once — from head, wrapping, the n occupied slots in cts
// order, then the free ones.
type spill struct {
	inline int
	slots  []slot
	order  []int32
	head   int
	n      int
	// shrinks marks a default-sized object, which returns to the inline
	// layout after enough installs in a row — calm counts them — whose
	// retained versions some reader may still see fit inline (see settle).
	shrinks bool
	calm    int
}

func newSpill(capacity int) *spill {
	in := min(capacity, DefaultSlots)
	sp := &spill{inline: in, slots: make([]slot, capacity-in), order: make([]int32, capacity)}
	for i := range sp.order {
		sp.order[i] = int32(i)
	}
	return sp
}

// index returns the slot index at position i of sp's order (0: the
// oldest occupied slot), 0 <= i < len(sp.order).
func (sp *spill) index(i int) int {
	if i += sp.head; i >= len(sp.order) {
		i -= len(sp.order)
	}
	return int(sp.order[i])
}

// at returns the slot at position i of sp's order.
func (o *Object) at(sp *spill, i int) *slot {
	if j := sp.index(i); j >= sp.inline {
		return &sp.slots[j-sp.inline]
	} else {
		return &o.inline[j]
	}
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
// dead version (see set).
func (s *slot) put(cts Timestamp, value []byte) {
	s.set(cts, 0, unsafe.SliceData(value), uint64(len(value)))
}

// set writes version <[cts, dts], value> — the value as its data pointer
// and length — into s, which is free or holds a dead version older than
// cts, in the store order the package comment gives. A store that would
// not change a word is skipped: each is a locked instruction.
func (s *slot) set(cts, dts Timestamp, p *byte, n uint64) {
	if s.cts.Load() == 0 {
		s.setValue(p, n)
		if s.dts.Load() != dts {
			s.dts.Store(dts)
		}
		s.cts.Store(cts)
		return
	}
	s.cts.Store(cts)
	s.setValue(p, n)
	s.dts.Store(dts)
}

// setValue stores a value's data pointer and length.
func (s *slot) setValue(p *byte, n uint64) {
	s.ptr.Store(p)
	if s.n.Load() != n {
		s.n.Store(n)
	}
}

// deadAt reports whether the occupied slot s holds a version ended at or
// below oldestActive: one no reader can see.
func (s *slot) deadAt(oldestActive Timestamp) bool {
	dts := s.dts.Load()
	return dts != 0 && dts <= oldestActive
}

// LatestCTS returns the commit timestamp of the newest version, whether
// alive or deleted; the SI protocol's First-Committer-Wins rule compares
// it against the writer's snapshot.
func (o *Object) LatestCTS() Timestamp {
	return o.latest.Load()
}

// Install makes a new version visible: the live version (if any) gets
// dts = cts, and unless the write is a deletion the version
// <[cts, 0], value> goes into a free slot, else over the oldest version if
// it is dead at oldestActive, else into a grown array — Install never
// fails for capacity reasons. Install takes OWNERSHIP of value: the caller
// must not modify it afterwards (commit paths hand over their private
// write-set copies, so the hot path pays no extra copy). Concurrent
// readers see the old version or the new one, never a torn slot.
//
// Install must only be called by a committing transaction holding the
// group commit latch (see Writers in the package comment), with cts
// greater than every previously installed cts for this object.
func (o *Object) Install(cts Timestamp, value []byte, delete bool, oldestActive Timestamp) error {
	if latest := o.latest.Load(); cts <= latest {
		return fmt.Errorf("mvcc: non-monotonic install: cts %d <= latest %d", cts, latest)
	}
	sp := o.spill.Load()
	if sp == nil {
		o.installInline(cts, value, delete, oldestActive)
		return nil
	}
	if sp.n > 0 {
		if live := o.at(sp, sp.n-1); live.dts.Load() == 0 {
			live.dts.Store(cts)
		}
	}
	o.latest.Store(cts)
	// A deletion installs no new version: the terminated predecessor
	// alone makes the key invisible to snapshots at or after cts.
	if delete {
		return nil
	}
	switch {
	case sp.n < len(sp.order): // a free slot, the first after the occupied
	case o.at(sp, 0).deadAt(oldestActive):
		// The oldest slot moves to the end of the order.
		if sp.head++; sp.head == len(sp.order) {
			sp.head = 0
		}
		sp.n--
	default:
		sp = o.grow(sp)
	}
	o.at(sp, sp.n).put(cts, value)
	sp.n++
	o.settle(sp, oldestActive)
	return nil
}

// installInline is Install on the inline layout: one look at each slot
// finds the live version and a free or a dead one.
func (o *Object) installInline(cts Timestamp, value []byte, delete bool, oldestActive Timestamp) {
	var live, free, dead *slot
	for i := range o.inline {
		s := &o.inline[i]
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
	if live != nil {
		live.dts.Store(cts)
	}
	o.latest.Store(cts)
	if delete {
		return
	}
	switch {
	case free != nil:
		free.put(cts, value)
	case dead != nil:
		dead.put(cts, value)
	default:
		// Both slots hold versions some reader may still see: spill to
		// twice as many, the older inline slot first in the order, and
		// the new version in the first heap slot before it is published.
		older := int32(0)
		if o.inline[0].cts.Load() > o.inline[1].cts.Load() {
			older = 1
		}
		sp := &spill{
			inline:  DefaultSlots,
			slots:   make([]slot, DefaultSlots),
			order:   []int32{older, 1 - older, 2, 3},
			n:       DefaultSlots + 1,
			shrinks: true,
		}
		sp.slots[0].put(cts, value)
		o.spill.Store(sp)
	}
}

// grow doubles the capacity of o, whose spilled layout sp has every slot
// occupied, and returns the new layout, in which the new slots are free.
// The spilled slots are copied into a fresh array before it is published.
func (o *Object) grow(sp *spill) *spill {
	capacity := len(sp.order)
	next := &spill{
		inline:  sp.inline,
		slots:   make([]slot, 2*capacity-sp.inline),
		order:   make([]int32, 2*capacity),
		n:       sp.n,
		shrinks: sp.shrinks,
	}
	for i := range sp.slots {
		from, to := &sp.slots[i], &next.slots[i]
		to.cts.Store(from.cts.Load())
		to.dts.Store(from.dts.Load())
		to.ptr.Store(from.ptr.Load())
		to.n.Store(from.n.Load())
	}
	for i := range capacity {
		next.order[i] = int32(sp.index(i))
	}
	for i := capacity; i < len(next.order); i++ {
		next.order[i] = int32(i)
	}
	o.spill.Store(next)
	return next
}

// calmRounds is how many times its capacity in calm installs in a row a
// spilled default-sized object waits before it returns to the inline
// layout (see settle).
const calmRounds = 8

// settle returns a default-sized spilled object to the inline layout once
// it has gone calmRounds times as many installs in a row as it has slots
// with its retained versions fitting inline: every one but the newest
// DefaultSlots dead at oldestActive. Waiting that long bounds the churn of
// a key whose pins recur: growing back to C slots after a return takes
// log2(C/2) grows of three allocations each, spread over at least 8·C
// installs — under one allocation per ten installs at any C — and a key
// pinned more often than that never returns at all.
func (o *Object) settle(sp *spill, oldestActive Timestamp) {
	if !sp.shrinks {
		return
	}
	if sp.n > DefaultSlots && !o.at(sp, sp.n-DefaultSlots-1).deadAt(oldestActive) {
		sp.calm = 0
		return
	}
	if sp.calm++; sp.calm < calmRounds*len(sp.order) {
		return
	}
	// Copy each kept version that sits in a heap slot into an inline slot
	// holding neither kept version — free, or dead like every older one —
	// and only then publish the inline layout: a reader still scanning sp
	// finds a kept version where it was, a reader of the inline layout
	// where it is now.
	keep := min(sp.n, DefaultSlots)
	var kept [DefaultSlots]int
	target := [DefaultSlots]bool{true, true}
	for i := range keep {
		kept[i] = sp.index(sp.n - keep + i)
		if kept[i] < DefaultSlots {
			target[kept[i]] = false
		}
	}
	t := 0
	for _, j := range kept[:keep] {
		if j < DefaultSlots {
			continue
		}
		for !target[t] {
			t++
		}
		from := &sp.slots[j-DefaultSlots]
		o.inline[t].set(from.cts.Load(), from.dts.Load(), from.ptr.Load(), from.n.Load())
		t++
	}
	o.spill.Store(nil)
}

// InstallRecovered seeds an object that holds no version yet with one
// committed version during recovery, bypassing the monotonicity
// bookkeeping of live commits. Like Install it takes OWNERSHIP of value:
// the caller must not modify it afterwards (recovery hands over its own
// copy of the base table's image, so seeding pays no second copy).
func (o *Object) InstallRecovered(cts Timestamp, value []byte) {
	if sp := o.spill.Load(); sp != nil {
		o.at(sp, sp.n).put(cts, value)
		sp.n++
	} else {
		o.inline[0].put(cts, value)
	}
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
		sp := o.spill.Load()
		if sp == nil {
			a, b := &o.inline[0], &o.inline[1]
			if a.cts.Load() > b.cts.Load() {
				a, b = b, a
			}
			for _, s := range [...]*slot{a, b} {
				if s.cts.Load() != 0 && !yield(unsafe.Slice(s.ptr.Load(), s.n.Load())) {
					return
				}
			}
			return
		}
		for i := range sp.n {
			s := o.at(sp, i)
			if !yield(unsafe.Slice(s.ptr.Load(), s.n.Load())) {
				return
			}
		}
	})
}

// GC frees every slot whose version is invisible at oldestActive and
// reports how many it freed. The table wrapper's sweep (txn.Table.GC)
// calls it; Install reuses dead slots on its own.
func (o *Object) GC(oldestActive Timestamp) int {
	sp := o.spill.Load()
	if sp == nil {
		freed := 0
		for i := range o.inline {
			if s := &o.inline[i]; s.cts.Load() != 0 && s.deadAt(oldestActive) {
				s.free()
				freed++
			}
		}
		return freed
	}
	// The dead versions are the oldest ones: a prefix of the order, which
	// becomes its free tail.
	freed := 0
	for ; freed < sp.n; freed++ {
		s := o.at(sp, freed)
		if !s.deadAt(oldestActive) {
			break
		}
		s.free()
	}
	if sp.head += freed; sp.head >= len(sp.order) {
		sp.head -= len(sp.order)
	}
	sp.n -= freed
	return freed
}

// free empties the occupied slot s.
func (s *slot) free() {
	s.cts.Store(0) // readers skip the slot from here on
	s.ptr.Store(nil)
}
