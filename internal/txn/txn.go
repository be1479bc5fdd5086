package txn

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"sistream/internal/mvcc"
)

// ID is a transaction identifier. IDs are logical timestamps drawn from
// the context's global atomic counter, so they are totally ordered with
// commit timestamps — the First-Committer-Wins rule and the wait-die
// deadlock-avoidance policy both rely on this ordering.
type ID = uint64

// Timestamp aliases the MVCC logical timestamp.
type Timestamp = mvcc.Timestamp

// StateID names a transactional state (table).
type StateID string

// GroupID names a topology group: the set of states one continuous query
// writes together and whose updates must become visible atomically.
type GroupID string

// Status is the per-(transaction, state) flag driving the consistency
// protocol: the coordinator role falls to whoever flips the last state of
// a transaction to StatusCommit.
type Status uint8

// Per-state transaction statuses.
const (
	StatusActive Status = iota
	StatusCommit
	StatusAbort
)

func (s Status) String() string {
	switch s {
	case StatusActive:
		return "Active"
	case StatusCommit:
		return "Commit"
	case StatusAbort:
		return "Abort"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Errors reported by the protocols. ErrAborted wraps the specific cause
// where one exists; IsAbort recognizes every variant.
var (
	// ErrAborted is returned when a transaction was aborted (explicitly,
	// or by a conflict rule).
	ErrAborted = errors.New("txn: transaction aborted")
	// ErrConflict signals a First-Committer-Wins violation under SI: a
	// concurrent transaction committed a newer version of a written key.
	ErrConflict = fmt.Errorf("%w: first-committer-wins conflict", ErrAborted)
	// ErrValidation signals a failed BOCC backward validation: a
	// transaction that committed during our read phase wrote something we
	// read.
	ErrValidation = fmt.Errorf("%w: backward validation failed", ErrAborted)
	// ErrDeadlock signals a wait-die kill under S2PL: a younger
	// transaction requested a lock held by an older one.
	ErrDeadlock = fmt.Errorf("%w: wait-die deadlock avoidance", ErrAborted)
	// ErrFinished is returned when operating on a committed or aborted
	// transaction handle.
	ErrFinished = errors.New("txn: transaction already finished")
	// ErrUnknownState is returned for tables not registered in a group.
	ErrUnknownState = errors.New("txn: state not registered in any group")
	// ErrTooManyTxns is returned when the active-transaction table is
	// full.
	ErrTooManyTxns = errors.New("txn: active transaction table full")
)

// IsAbort reports whether err indicates the transaction was aborted (for
// any reason) and should be retried by the caller.
func IsAbort(err error) bool { return errors.Is(err, ErrAborted) }

// writeOp is one buffered, uncommitted modification: the key's hash,
// computed where the write is buffered, and — once the commit pipeline has
// resolved the write set under the group latch — the key's row, which
// admission, durability, install and index maintenance all work through.
type writeOp struct {
	hash   uint64
	value  []byte
	delete bool
	row    *row
}

// WriteOp is one operation of a batched write (Protocol.WriteBatch): an
// update of Key to Value, or a deletion of Key when Delete is set.
type WriteOp struct {
	Key    string
	Value  []byte
	Delete bool
}

// stateEntry is a transaction's per-state bookkeeping: the status flag of
// the consistency protocol plus the uncommitted write set ("dirty array"
// in the paper's Figure 3). The write set is two parallel slices that
// writes only append to — "writes are merely appended to the write set"
// (Section 4.2) — so a key written twice is in it twice until the commit
// pipeline resolves it (resolve): one probe per key finds its row, and
// the row's transaction stamp deduplicates, keeping each key once, at its
// first-write position, with its last value.
type stateEntry struct {
	table  *Table
	status Status
	// order holds the written keys in write order, ops their operations.
	order []string
	ops   []writeOp
	// idx maps a key to the position of its latest write among the first
	// indexed ops: the read-your-writes map, built only when the
	// transaction reads this state, and only over the writes since.
	idx     map[string]int
	indexed int
}

// entryPool recycles write-set storage across transactions: a recycled
// entry keeps its slice backing arrays (and the buckets of a
// read-your-writes map), so a steady-state stream query allocates no
// write-set storage per transaction at all.
var entryPool = sync.Pool{New: func() any { return new(stateEntry) }}

func newStateEntry(tbl *Table) *stateEntry {
	e := entryPool.Get().(*stateEntry)
	e.table = tbl
	e.status = StatusActive
	return e
}

// recycle returns the entry's storage to the pool. Callers must guarantee
// the owning transaction is finished and no other goroutine can reach the
// entry anymore (commit hooks use the order and ops slices only during their
// call).
func (e *stateEntry) recycle() {
	clear(e.idx) // keeps the buckets
	e.indexed = 0
	clear(e.order)
	e.order = e.order[:0]
	clear(e.ops) // drop value references
	e.ops = e.ops[:0]
	e.table = nil
	e.status = StatusActive
	entryPool.Put(e)
}

// grow makes room for n more writes, avoiding incremental slice growth on
// the batched write path.
func (e *stateEntry) grow(n int) {
	e.order = slices.Grow(e.order, n)
	e.ops = slices.Grow(e.ops, n)
}

// write appends one operation on key.
func (e *stateEntry) write(key string, op writeOp) {
	e.order = append(e.order, key)
	e.ops = append(e.ops, op)
}

// get returns the latest buffered operation for key, if any
// (read-your-writes), first indexing the writes appended since the last
// call.
func (e *stateEntry) get(key string) (writeOp, bool) {
	if len(e.ops) == 0 {
		return writeOp{}, false
	}
	if e.idx == nil {
		e.idx = make(map[string]int, len(e.ops))
	}
	for ; e.indexed < len(e.ops); e.indexed++ {
		e.idx[e.order[e.indexed]] = e.indexed
	}
	i, ok := e.idx[key]
	if !ok {
		return writeOp{}, false
	}
	return e.ops[i], true
}

// resolve turns the appended write set into the one the commit pipeline
// carries: every key probed once — inserting the rows the table lacks —
// and kept once, at its first-write position with its last operation.
// The row's transaction stamp finds the duplicates; order and ops are
// compacted in place. Caller holds the table's group commit latch.
//
// A gather pass (touchSlots) first loads every key's first slot and the
// row it holds; the probes that follow find them in cache.
func (e *stateEntry) resolve(id ID) {
	t := e.table
	touchSlots(t, e.ops)
	n := 0
	for i := range e.ops {
		op := e.ops[i]
		r := t.row(op.hash, e.order[i])
		if r.txn == id {
			first := &e.ops[r.pos]
			first.value, first.delete = op.value, op.delete
			continue
		}
		r.txn, r.pos = id, int32(n)
		op.row = r
		e.ops[n], e.order[n] = op, e.order[i]
		n++
	}
	clear(e.ops[n:])
	clear(e.order[n:])
	e.ops, e.order = e.ops[:n], e.order[:n]
}

// touchSlots is the gather pass of resolve: for every op's key it loads
// the key's first index slot and, when the slot's stored hash is the
// key's, the first line of the row the slot holds — the line of the key
// compare, the row's stamps and admission's marks. Loading the row's
// other lines too (its version slots, store handle and index memo) did
// not pay (DESIGN.md, "Gather passes").
//
// A gather pass is how the commit path takes the cache misses of a
// batch's keys: a phase that follows, key by key, a pointer to memory a
// cold key has out of cache — the key's bytes, its slot and row, its
// store entry — is preceded by a tight loop that only loads what the
// phase will follow. The loads of one iteration do not wait for the
// previous iteration's, and an iteration is a few instructions, so the
// CPU keeps the misses of many keys in flight at once; a probe, an append
// or a hash between two keys' loads keeps only one or two. Every pass has
// one form: a //go:noinline function that returns a value derived from
// what it loaded, so that the compiler can neither drop the loads nor
// merge the pass into the loop after it. Callers ignore the value. The
// passes are touchKeys (bufferWrites), touchSlots (resolve) and
// kv.Mem's touchEntries (Apply).
//
//go:noinline
func touchSlots(t *Table, ops []writeOp) uint64 {
	var sum uint64
	for i := range ops {
		h := ops[i].hash
		if sh := t.shard(h); len(sh.slots) > 0 {
			if s := &sh.slots[h&uint64(len(sh.slots)-1)]; s.hash == h && s.row != nil {
				sum += uint64(s.row.klen)
			}
		}
	}
	return sum
}

// touchKeys is the gather pass of bufferWrites (see touchSlots): it loads
// the first byte of every op's key, which the key's hash then reads.
//
//go:noinline
func touchKeys(ops []WriteOp) uint64 {
	var sum uint64
	for i := range ops {
		if k := ops[i].Key; len(k) > 0 {
			sum += uint64(k[0])
		}
	}
	return sum
}

// Txn is a transaction handle. A Txn is owned by the goroutines of one
// transaction context; the consistency protocol synchronizes the commit
// hand-off internally, and operators of one stream query may call
// CommitState from different goroutines. All other concurrent use of a
// single Txn is not supported, matching the paper's model where a
// transaction is one unit of stream progress.
type Txn struct {
	id   ID
	slot int
	ctx  *Context

	// mu guards the per-state entries (status flags and write sets), the
	// snapshot pins and the lock list. Operators of one stream query
	// share the Txn from different goroutines: several TO_TABLE
	// operators write and flag states concurrently, and one of them (or
	// the Transactions operator, on rollback) may abort while another is
	// still writing.
	mu sync.Mutex

	readOnly bool
	// finished flips once at commit/abort; atomic so hot-path checks need
	// no lock (mu is additionally held wherever finished is set together
	// with dependent state).
	finished atomic.Bool

	// states holds an entry for every state the transaction touched, in
	// StateID order — the order commits install and persist them in.
	// stateBuf backs it for the one or two states of a stream transaction.
	states   []*stateEntry
	stateBuf [2]*stateEntry

	// readCTS is the cut each topology group is read at: the group's
	// LastCTS, pinned at first access (paper Section 4.2/4.3; pinGroups).
	// cutBuf backs it for a transaction reading one group.
	readCTS []groupCut
	cutBuf  [1]groupCut

	// reads is the BOCC read set (keys per state); nil for other
	// protocols. writes is the BOCC write set, collected at admission —
	// the install consumes the entries — for registration once the
	// transaction committed; nil unless it wrote something.
	reads, writes map[*Table]map[string]struct{}

	// startTS is the counter value at Begin; BOCC validates against
	// transactions committed after it.
	startTS Timestamp

	// locks tracks S2PL lock ownership for release at commit/abort.
	locks []lockRef

	// chain links the transaction into the serial commit chain of its
	// windowed stream query (nil outside a window). Set once before the
	// first write (SetChain); read by commit admission and wait-die.
	chain *Chain

	// pinnedOldest is what this transaction forces OldestActiveVersion
	// to: at or below the oldest cut in readCTS. 0 = no pin yet. It is
	// read concurrently by the GC horizon scan, hence atomic.
	pinnedOldest atomic.Uint64

	// done closes when the transaction finishes (commit or abort). The
	// stream layer uses it to serialize the consecutive transactions of
	// one continuous query: batch N+1 must not begin until batch N is
	// decided, because the paper's model treats a stream query as a
	// SEQUENCE of transactions, not a set of concurrent ones. It is made
	// only when someone waits on an open transaction (Done), under mu, and
	// closed, if made, where finished is set under mu (finish, abort,
	// Snapshot.unpin).
	done chan struct{}

	// req is the transaction's request to the commit pipeline, filled
	// when its flag set completes: a transaction is coordinated at most
	// once.
	req commitReq
}

// groupCut is the cut a transaction reads one topology group at.
type groupCut struct {
	g   *Group
	cts Timestamp
}

// Done returns a channel closed when the transaction has committed or
// aborted. The channel is made on the first call while the transaction is
// open; a finished transaction returns one shared closed channel, so a
// wait on a decided transaction allocates nothing.
func (t *Txn) Done() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done == nil {
		if t.finished.Load() {
			return closedDone
		}
		t.done = make(chan struct{})
	}
	return t.done
}

// closedDone is what Done returns for a transaction that finished before
// anyone waited on it.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// ID returns the transaction's logical timestamp identifier.
func (t *Txn) ID() ID { return t.id }

// ReadOnly reports whether the transaction was started read-only.
func (t *Txn) ReadOnly() bool { return t.readOnly }

// entry returns the transaction's entry for tbl, adding one at its
// StateID position on first use.
func (t *Txn) entry(tbl *Table) *stateEntry {
	if e := t.stateOf(tbl); e != nil {
		return e
	}
	if t.states == nil {
		t.states = t.stateBuf[:0]
	}
	i, _ := slices.BinarySearchFunc(t.states, tbl.id, func(e *stateEntry, id StateID) int {
		return cmp.Compare(e.table.id, id)
	})
	e := newStateEntry(tbl)
	t.states = slices.Insert(t.states, i, e)
	return e
}

// stateOf returns the transaction's entry for tbl, nil if it has none.
func (t *Txn) stateOf(tbl *Table) *stateEntry {
	for _, e := range t.states {
		if e.table == tbl {
			return e
		}
	}
	return nil
}

// dropStates recycles the transaction's state entries.
func (t *Txn) dropStates() {
	for _, e := range t.states {
		e.recycle()
	}
	clear(t.states)
	t.states = nil
}

// cut returns the cut g is read at, if the transaction pinned one.
func (t *Txn) cut(g *Group) (Timestamp, bool) {
	for _, c := range t.readCTS {
		if c.g == g {
			return c.cts, true
		}
	}
	return 0, false
}

// setCut records cts as the cut g is read at.
func (t *Txn) setCut(g *Group, cts Timestamp) {
	for i := range t.readCTS {
		if t.readCTS[i].g == g {
			t.readCTS[i].cts = cts
			return
		}
	}
	if t.readCTS == nil {
		t.readCTS = t.cutBuf[:0]
	}
	t.readCTS = append(t.readCTS, groupCut{g, cts})
}

// Declare registers tables this transaction is going to access before it
// commits, mirroring the paper's per-transaction "list of accessed
// states" in the context (Figure 3). Declaration matters for the
// consistency protocol in pipelined dataflows: the coordinator is
// whoever flips the LAST state to Commit, so every state of the query
// must be on the list before the first CommitState arrives — otherwise
// an upstream TO_TABLE could commit the transaction before a downstream
// operator ever saw it. stream.Transactions declares automatically.
func (t *Txn) Declare(tables ...*Table) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished.Load() {
		return ErrFinished
	}
	for _, tbl := range tables {
		if tbl.Group() == nil {
			return fmt.Errorf("%w: %q", ErrUnknownState, tbl.id)
		}
		t.entry(tbl)
	}
	return nil
}

// pin returns the cut to read table tbl at: its group's LastCTS, pinned
// on the transaction's first access of the group. Groups are pinned one
// at a time, as they are reached, so a transaction reading two groups may
// see one of them before a spanning commit and the other after it; a
// Snapshot pins all its groups at once (Context.Snapshot).
func (t *Txn) pin(tbl *Table) Timestamp {
	g := tbl.Group()
	rts, ok := t.cut(g)
	if !ok {
		t.pinGroups(g.solo)
		rts, _ = t.cut(g)
	}
	return rts
}

// pinGroups is the one read-cut rule: it records each group of gs in
// readCTS at that group's own published LastCTS, and holds the GC pin
// (pinnedOldest) at or below the oldest cut the transaction reads.
//
// Two checks make the cut safe to read. The groups are read only while no
// spanning commit is publishing (Context.spanning is even), so a commit
// across several of them is seen in all or in none. And the pin is
// stored before it is validated: if the spanning counter or any LastCTS
// moved by then, a commit may have taken its GC horizon before the pin
// was visible, so the cuts are read again. On exit, a commit of a group
// that took its horizon before the pin is either published at or below
// the group's cut or still holds the group's latch; either way it
// reclaims only versions ended at or below the cut, which the cut does
// not read. Every later commit sees the pin.
func (t *Txn) pinGroups(gs []*Group) {
	spanning := &t.ctx.spanning
	for {
		seq := spanning.Load()
		if seq&1 != 0 {
			runtime.Gosched()
			continue
		}
		oldest := Timestamp(math.MaxUint64)
		for _, g := range gs {
			cts := g.LastCTS()
			t.setCut(g, cts)
			oldest = min(oldest, cts)
		}
		if p := t.pinnedOldest.Load(); p == 0 || oldest < p {
			t.pinnedOldest.Store(oldest)
		}
		stable := spanning.Load() == seq
		for _, g := range gs {
			cts, _ := t.cut(g)
			stable = stable && g.LastCTS() == cts
		}
		if stable {
			return
		}
	}
}

// trackRead records key into the BOCC read set.
func (t *Txn) trackRead(tbl *Table, key string) {
	if t.reads == nil {
		return
	}
	m, ok := t.reads[tbl]
	if !ok {
		m = make(map[string]struct{})
		t.reads[tbl] = m
	}
	m[key] = struct{}{}
}
