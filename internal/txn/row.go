package txn

import (
	"hash/maphash"
	"sync"

	"sistream/internal/kv"
	"sistream/internal/mvcc"
)

// A row is one key of one table: the unit the commit path carries from the
// write set to publish. It holds the key's versions (its mvcc.Object, by
// value: the slots are in the row), the base-store handle the key's writes
// go through, the marks the commit pipeline stamps on it and the candidate
// sets, across the table's indexes, it was most recently added to. The
// table's row index finds a row with one probe; a key of up to rowInline
// bytes is compared against the copy kept in the row, so that probe
// touches one slot line and the row, and a reader finds the versions in
// that same row.
//
// key, klen and inline never change once the row is in the index.
// Everything else belongs to the holder of the table's group commit latch
// — obj's writer methods included (the commit pipeline installs, Table.GC
// and the index backfill all hold it; recovery seeds rows before any table
// holds them) — except obj's reader methods, which snapshot readers call
// lock-free.
type row struct {
	inline [rowInline]byte
	klen   uint8 // len(key) when the key fits inline, else rowLong
	// pos is the row's first-write position in the write set of txn, the
	// transaction whose commit last resolved it (see stateEntry.resolve).
	pos int32
	txn ID
	// mark is the commit timestamp of the latest write admitted into the
	// row by a commit batch. The install that follows makes obj.LatestCTS
	// cover it, so a mark is never cleared: marks above a batch's base
	// timestamp are that batch's earlier admissions.
	mark   Timestamp
	obj    mvcc.Object
	handle kv.Handle
	key    string
	// memo holds the candidate sets r was most recently added to, newest
	// first, of any of the table's indexes; nil entries trail. r is in
	// each (see Index.add).
	memo [rowMemos]*candidates
}

const (
	// rowInline is the longest key kept inline in its row.
	rowInline = 16
	rowLong   = 0xff
	// rowMemos is the number of candidate sets a row remembers: with one
	// index, both sets of a row that moves between two buckets and back.
	rowMemos = 2
)

func newRow(key string, slots int) *row {
	r := &row{key: key, klen: rowLong}
	r.obj.Init(slots)
	if len(key) <= rowInline {
		r.klen = uint8(copy(r.inline[:], key))
	}
	return r
}

// forget drops r's memo of candidate set c, if it has one, keeping the
// order of the others. Caller holds the group commit latch.
func (r *row) forget(c *candidates) {
	for i, m := range r.memo {
		if m == c {
			copy(r.memo[i:], r.memo[i+1:])
			r.memo[len(r.memo)-1] = nil
			return
		}
	}
}

// is reports whether the row's key is key.
func (r *row) is(key string) bool {
	if r.klen == rowLong {
		return r.key == key
	}
	return len(key) == int(r.klen) && string(r.inline[:r.klen]) == key
}

// rowSeed seeds keyHash; the index is in memory only, so the hash need not
// be stable across processes.
var rowSeed = maphash.MakeSeed()

// keyHash is the row index's hash of key. Its top tableShardBits bits pick
// the shard, its low bits the first slot.
func keyHash(key string) uint64 { return maphash.String(rowSeed, key) }

// rowShard is one latch-striped slice of a table's row index: open
// addressing with linear probing over a power-of-two slot array at most
// three quarters full, each slot the key's full hash and its row. Readers
// probe under mu's read lock. Rows are inserted — never removed — only by
// the holder of the table's group commit latch, under mu's write lock; so
// that holder also probes without mu.
type rowShard struct {
	mu    sync.RWMutex
	slots []rowSlot
	n     int
}

type rowSlot struct {
	hash uint64
	row  *row
}

// find returns the row of key (hash h), nil when the shard has none.
// Caller holds mu or the group commit latch.
func (sh *rowShard) find(h uint64, key string) *row {
	if sh.n == 0 {
		return nil
	}
	mask := uint64(len(sh.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &sh.slots[i]
		if s.row == nil {
			return nil
		}
		if s.hash == h && s.row.is(key) {
			return s.row
		}
	}
}

// insert adds r (hash h), whose key the shard does not hold. Caller holds
// mu for writing.
func (sh *rowShard) insert(h uint64, r *row) {
	if 4*(sh.n+1) > 3*len(sh.slots) {
		sh.grow()
	}
	mask := uint64(len(sh.slots) - 1)
	i := h & mask
	for sh.slots[i].row != nil {
		i = (i + 1) & mask
	}
	sh.slots[i] = rowSlot{h, r}
	sh.n++
}

// reserve sizes the slot array of the empty shard for n rows, so that
// inserting them never grows it (recovery knows its counts up front).
func (sh *rowShard) reserve(n int) {
	if n == 0 {
		return
	}
	size := 16
	for 3*size < 4*n {
		size *= 2
	}
	sh.slots = make([]rowSlot, size)
}

// grow doubles the slot array (or creates it) and re-seats every row by
// its stored hash.
func (sh *rowShard) grow() {
	old := sh.slots
	sh.slots = make([]rowSlot, max(2*len(old), 16))
	mask := uint64(len(sh.slots) - 1)
	for _, s := range old {
		if s.row == nil {
			continue
		}
		i := s.hash & mask
		for sh.slots[i].row != nil {
			i = (i + 1) & mask
		}
		sh.slots[i] = s
	}
}

// appendRows appends the shard's rows to buf under the read lock.
func (sh *rowShard) appendRows(buf []*row) []*row {
	sh.mu.RLock()
	for _, s := range sh.slots {
		if s.row != nil {
			buf = append(buf, s.row)
		}
	}
	sh.mu.RUnlock()
	return buf
}

// rowBufs recycles the row lists a scan, lookup or sweep copies out of a
// shard so that what runs per row — a reader's callback, a sweep — runs
// outside the lock. A call takes ONE buffer and refills it shard by shard:
// a fresh slice per shard made every reader's garbage a tax on the
// writer, whose cores the collector shares.
var rowBufs = sync.Pool{New: func() any { return new([]*row) }}

func acquireRows() *[]*row { return rowBufs.Get().(*[]*row) }

// releaseRows clears buf to its capacity — an idle pooled buffer must not
// pin a table's rows — and returns it to the pool.
func releaseRows(buf *[]*row) {
	all := (*buf)[:cap(*buf)]
	clear(all)
	*buf = all[:0]
	rowBufs.Put(buf)
}
