package txn

import (
	"fmt"
	"iter"
	"sync"
	"sync/atomic"

	"sistream/internal/kv"
)

// Transactional secondary indexes. An index maps a derived key (the
// "index key", computed by a user extractor from a row's key and value)
// to the rows carrying it. Its consistency condition is one sentence —
// Lookup(ikey) at rts equals a scan at rts filtered by the extractor —
// and the index EVALUATES that condition instead of keeping a second
// version history in step with the rows: what it stores per index key is
// a versionless CANDIDATE SET, the row keys that have some retained
// version extracting to it, and a lookup reads each candidate's row at
// rts and keeps it iff the extractor, applied to that very version,
// yields the index key. Equal to the filtered scan by construction under
// all three protocols, as long as the candidate set is a superset of the
// rows a reader can see:
//
//   - the commit pipeline (commitBatch, phase 4) adds (ikey, row) right
//     AFTER the row's version is installed and before LastCTS is
//     published, so every version a snapshot can read has its candidate;
//     aborted transactions never reach phase 4. Deletes cost nothing, and
//     a rewrite that keeps its index key is a read-locked hit.
//   - the table sweep (Table.GC -> Index.gc) removes a candidate when
//     no retained version of the row extracts to the index key, checking
//     and removing under the group commit latch. The commit path holds
//     the same latch from a row's install through its add, so the
//     sweep's step is entirely before an install and its add (the add
//     re-inserts the entry) or entirely after them (it sees the version
//     and keeps the entry). A commit's add takes the same step for one
//     row and one set, the set the row's memo forgets (see add), after
//     the row's install: it keeps the entry if that version carries it.
//
// Lock order: group commit latch, then index shard lock. Nothing is
// persisted: an index is rebuilt from the rows by CreateIndex.

// indexShards spreads the candidate sets over independently locked maps,
// mirroring the table's key shards. Must be a power of two.
const indexShards = 16

// IndexKeyFunc derives the index key of one row. ok=false excludes the
// row from the index (a partial index). The function must be pure and
// cheap, and must not retain key or value: it is evaluated on the commit
// path for every written image, on the READ path for every candidate of a
// lookup (the result of a lookup is whatever it says about the row
// versions at the snapshot), and by Table.GC while it holds the group
// commit latch.
type IndexKeyFunc func(key string, value []byte) (ikey string, ok bool)

// Index is a transactionally maintained secondary index over one table
// (Table.CreateIndex). All methods are safe for concurrent use; a lookup
// takes one shard read lock to copy its candidates and reads row versions
// wait-free.
type Index struct {
	name    string
	tbl     *Table
	extract IndexKeyFunc

	shards [indexShards]indexShard

	puts, deletes, swept, lookups, hits atomic.Uint64
}

// indexShard is one latch-striped slice of the candidate map: ikey -> its
// candidate set (rows are never removed from their table, so a set holds
// them by pointer and the sweep never probes the table).
type indexShard struct {
	mu sync.RWMutex
	m  map[string]*candidates
}

// candidates is one index key's candidate set. A table holds one row per
// key, so the set holds rows by pointer, and a probe hashes a pointer,
// never the row's key.
type candidates struct {
	ix   *Index
	ikey string
	rows map[*row]struct{}
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Table returns the indexed table.
func (ix *Index) Table() *Table { return ix.tbl }

// IndexStats are an index's lifetime counters (Index.Stats).
type IndexStats struct {
	// Puts counts candidate entries added — by the backfill (one per
	// distinct index key among a row's retained versions) and by commits
	// that gave a row an index key it had no entry for; a rewrite that
	// keeps its key adds nothing. Deletes counts entries dropped: by
	// commits that moved a row out of a set its memos forgot (see
	// Lookup), and by Table.GC, whose share is Swept. Puts - Deletes is
	// ResidentPostings.
	Puts, Deletes, Swept uint64
	// Lookups counts Lookup calls; Hits the rows they returned.
	Lookups, Hits uint64
}

// Stats returns the index's counters.
func (ix *Index) Stats() IndexStats {
	return IndexStats{
		Puts:    ix.puts.Load(),
		Deletes: ix.deletes.Load(),
		Swept:   ix.swept.Load(),
		Lookups: ix.lookups.Load(),
		Hits:    ix.hits.Load(),
	}
}

func (ix *Index) shard(ikey string) *indexShard {
	var h uint32 = 2166136261
	for i := 0; i < len(ikey); i++ {
		h ^= uint32(ikey[i])
		h *= 16777619
	}
	return &ix.shards[h&(indexShards-1)]
}

// add makes row r a candidate of the index key its image value extracts
// to. Idempotent. Callers add AFTER the version carrying value is
// installed in r (see the file comment).
//
// The steady state — a rewrite that keeps its index key, or moves the row
// back to a set it recently left — is a few compares: r remembers the
// rowMemos candidate sets, of any of its table's indexes, it was most
// recently added to, and a memo holds only while r is in its set, since
// the sweep drops the memo in the step that drops r from the set. The
// memos, like the sweep's step, belong to the group commit latch holder.
// Otherwise add probes the set under the shard's read lock, takes the
// write lock only to insert, and remembers the set in place of the least
// recently used memo. The set that memo named is then checked as the
// sweep would check it, for r alone: r leaves it unless a version r
// retains still extracts to its key. So a row stays in a set its memos
// no longer name only while a version it retained when the memo went
// carries the set's key (see Lookup for the bound that gives).
func (ix *Index) add(r *row, value []byte) {
	ikey, ok := ix.extract(r.key, value)
	if !ok {
		return
	}
	for _, c := range r.memo {
		if c != nil && c.ix == ix && c.ikey == ikey {
			r.remember(c)
			return
		}
	}
	sh := ix.shard(ikey)
	sh.mu.RLock()
	c, hit := sh.m[ikey], false
	if c != nil {
		_, hit = c.rows[r]
	}
	sh.mu.RUnlock()
	if !hit {
		sh.mu.Lock()
		if c = sh.m[ikey]; c == nil {
			c = &candidates{ix: ix, ikey: ikey, rows: make(map[*row]struct{})}
			sh.m[ikey] = c
		}
		if c.join(r) {
			ix.puts.Add(1)
		}
		sh.mu.Unlock()
	}
	if gone := r.remember(c); gone != nil {
		gone.ix.dropUnseen(gone.ix.shard(gone.ikey), gone, r, false)
	}
}

// join makes r a member of c, reporting whether it was not one already.
// Caller holds the write lock of c's shard and the group commit latch.
func (c *candidates) join(r *row) bool {
	n := len(c.rows)
	c.rows[r] = struct{}{}
	return len(c.rows) > n
}

// remember moves c to the front of r's memo, or puts it there, and
// returns the set whose memo that pushed out, nil when none did. Caller
// holds the group commit latch.
func (r *row) remember(c *candidates) (gone *candidates) {
	i := 0
	for i < len(r.memo)-1 && r.memo[i] != c {
		i++
	}
	if gone = r.memo[i]; gone == c {
		gone = nil
	}
	copy(r.memo[1:i+1], r.memo[:i])
	r.memo[0] = c
	return gone
}

// Lookup calls fn for every row whose index key equals ikey at snapshot
// rts, with the row's value at that same snapshot, until fn returns
// false. Each candidate's row is read at rts and kept iff the extractor
// maps that version to ikey, so the result equals a full-table scan at
// rts filtered by the same extractor; the cost is one version read and
// one extractor call per candidate. Iteration order is unspecified.
//
// How many candidates that is: a row is in the sets its rowMemos memos
// name, across the table's indexes, and in a set they no longer name only
// if a version it retained when that memo went carried the set's key
// (Index.add checks as the memo goes). So with one index, where all of a
// row's versions but the newest two are dead whenever it is written again
// (no snapshot pins an older one), a row is a candidate of at most
// rowMemos sets, with no Table.GC. An entry kept past a pin, or past a
// memo another index's set pushed out, stays until the row rejoins and
// leaves its set again, or until a Table.GC drops it.
func (ix *Index) Lookup(rts Timestamp, ikey string, fn func(key string, value []byte) bool) {
	ix.lookups.Add(1)
	buf := acquireRows()
	defer releaseRows(buf)
	sh := ix.shard(ikey)
	sh.mu.RLock()
	if c := sh.m[ikey]; c != nil {
		for r := range c.rows {
			*buf = append(*buf, r)
		}
	}
	sh.mu.RUnlock()
	hits := uint64(0)
	for _, r := range *buf {
		v, ok := r.obj.Read(rts)
		if !ok {
			continue
		}
		if ik, ok := ix.extract(r.key, v); !ok || ik != ikey {
			continue
		}
		hits++
		if !fn(r.key, v) {
			break
		}
	}
	ix.hits.Add(hits)
}

// ResidentPostings counts the candidate entries the index holds — the
// index-side analogue of Table.ResidentVersions (diagnostic).
func (ix *Index) ResidentPostings() int {
	n := 0
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		for _, c := range sh.m {
			n += len(c.rows)
		}
		sh.mu.RUnlock()
	}
	return n
}

// gc drops every candidate whose row retains no version extracting to
// the entry's index key, returning the number dropped. Invoked by
// Table.GC (buf is the sweep's pooled buffer), under the group commit
// latch, after it reclaimed row versions, so index residency is bounded
// by the same sweep as row residency.
func (ix *Index) gc(buf *[]*row) int {
	var sets []*candidates
	n := 0
	for i := range ix.shards {
		sh := &ix.shards[i]
		// One copy per shard: a nil row starts the candidates of the next
		// set in sets.
		*buf, sets = (*buf)[:0], sets[:0]
		sh.mu.RLock()
		for _, c := range sh.m {
			sets = append(sets, c)
			*buf = append(*buf, nil)
			for r := range c.rows {
				*buf = append(*buf, r)
			}
		}
		sh.mu.RUnlock()
		k := -1
		for _, r := range *buf {
			if r == nil {
				k++
			} else if ix.dropUnseen(sh, sets[k], r, true) {
				n++
			}
		}
	}
	clear(sets)
	return n
}

// dropUnseen removes candidate r from set c of shard sh unless some
// retained version of r still extracts to c's index key, dropping r's
// memo of c in the same step, and counts the removal (swept: as
// Table.GC's). Check and removal both happen under the group commit
// latch, which the caller holds (see the file comment for why no commit
// can lose its entry that way).
func (ix *Index) dropUnseen(sh *indexShard, c *candidates, r *row, swept bool) (dropped bool) {
	r.obj.Retained(func(values iter.Seq[[]byte]) {
		for v := range values {
			if ik, ok := ix.extract(r.key, v); ok && ik == c.ikey {
				return
			}
		}
		sh.mu.Lock()
		if _, in := c.rows[r]; in {
			delete(c.rows, r)
			if len(c.rows) == 0 && sh.m[c.ikey] == c {
				delete(sh.m, c.ikey)
			}
			dropped = true
		}
		r.forget(c)
		sh.mu.Unlock()
	})
	if dropped {
		ix.deletes.Add(1)
		if swept {
			ix.swept.Add(1)
		}
	}
	return dropped
}

// backfill fills the new, unpublished index from every retained version
// of every row of its table. It groups the rows by index key first, so
// each candidate set is made once, sized for its rows, and filled under
// one hold of its shard's lock, through the join Index.add uses. Each row
// remembers its sets as add would have left them, newest version's first;
// a set of another index that this pushes out of a row's memo is checked
// as add checks it, and one of this index always holds a retained version
// of the row. Caller holds the group commit latch.
func (ix *Index) backfill() {
	type group struct {
		c    *candidates
		rows []*row
	}
	var (
		groups []group
		at     = make(map[string]int)
		gone   []*candidates
	)
	buf := acquireRows()
	defer releaseRows(buf)
	for i := range ix.tbl.shards {
		*buf = ix.tbl.shards[i].appendRows((*buf)[:0])
		for _, r := range *buf {
			gone = gone[:0]
			r.obj.Retained(func(values iter.Seq[[]byte]) {
				for v := range values {
					ikey, ok := ix.extract(r.key, v)
					if !ok {
						continue
					}
					k, seen := at[ikey]
					if !seen {
						k = len(groups)
						at[ikey] = k
						groups = append(groups, group{c: &candidates{ix: ix, ikey: ikey}})
					}
					// A row's versions come one after another, so a row
					// already in the group is its last member.
					g := &groups[k]
					if len(g.rows) == 0 || g.rows[len(g.rows)-1] != r {
						g.rows = append(g.rows, r)
					}
					if c := r.remember(g.c); c != nil && c.ix != ix {
						gone = append(gone, c)
					}
				}
			})
			for _, c := range gone {
				c.ix.dropUnseen(c.ix.shard(c.ikey), c, r, false)
			}
		}
	}
	n := 0
	for _, g := range groups {
		sh := ix.shard(g.c.ikey)
		sh.mu.Lock()
		g.c.rows = make(map[*row]struct{}, len(g.rows))
		sh.m[g.c.ikey] = g.c
		for _, r := range g.rows {
			g.c.join(r)
		}
		sh.mu.Unlock()
		n += len(g.rows)
	}
	clear(gone)
	ix.puts.Add(uint64(n))
}

// indexSet returns the table's registered indexes (nil when none) — one
// atomic load on the commit path.
func (t *Table) indexSet() []*Index {
	p := t.indexes.Load()
	if p == nil {
		return nil
	}
	return *p
}

// Index returns the named index, nil when absent.
func (t *Table) Index(name string) *Index {
	for _, ix := range t.indexSet() {
		if ix.name == name {
			return ix
		}
	}
	return nil
}

// Indexes returns the table's secondary indexes (do not modify).
func (t *Table) Indexes() []*Index { return t.indexSet() }

// CreateIndex registers a secondary index named name over the table,
// derived by extract, and backfills it from the table's version store.
// The table must already belong to a group (CreateIndex after CreateGroup
// — recovery has run, so the backfill sees recovered rows too). Creation
// holds the group's commit latch for the whole backfill, so every commit
// of the group waits for it; from the first commit after it returns, the
// index is maintained in the write path. The backfill adds a candidate for
// EVERY retained version of every row, so a snapshot pinned before the
// index existed reads it as consistently as one taken afterwards. It
// costs one extractor call per retained version and one set insert per
// candidate, into sets built whole (see Index.backfill): over a
// 100 000-row mem table ≈ 0.4–0.5 µs a row, so the group commits nothing
// for ≈ 40–50 ms (DESIGN.md "Recovery and index backfill").
//
// The index lives in memory only. Directories written by older versions
// hold persisted posting rows ("i/<table>/<index>/..."); they are cleared
// here, once.
func (t *Table) CreateIndex(name string, extract IndexKeyFunc) (*Index, error) {
	if name == "" || extract == nil {
		return nil, fmt.Errorf("txn: CreateIndex needs a name and an extractor")
	}
	g := t.Group()
	if g == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownState, t.id)
	}
	// Quiesce the commit pipeline: no transaction can commit into the
	// table while the backfill scans, and every later commit maintains
	// the index incrementally.
	g.commitMu.Lock()
	defer g.commitMu.Unlock()
	if t.Index(name) != nil {
		return nil, fmt.Errorf("txn: table %q already has index %q", t.id, name)
	}
	ix := &Index{name: name, tbl: t, extract: extract}
	for i := range ix.shards {
		ix.shards[i].m = make(map[string]*candidates)
	}

	stale := kv.NewBatch(0)
	prefix := []byte("i/" + string(t.id) + "/" + name + "/")
	end := append(append([]byte(nil), prefix...), 0xff)
	if err := t.ctx.store.Scan(prefix, end, func(k, _ []byte) bool {
		stale.Delete(k)
		return true
	}); err != nil {
		return nil, fmt.Errorf("txn: index %q: clear postings: %w", name, err)
	}
	if stale.Len() > 0 {
		if err := t.ctx.store.Apply(stale, t.opts.SyncCommits && t.ctx.caps.Durable); err != nil {
			return nil, fmt.Errorf("txn: index %q: clear postings: %w", name, err)
		}
	}

	ix.backfill()

	// Publish (copy-on-write): the NEXT leader tenure sees the index and
	// maintains it from the first post-backfill commit on.
	var next []*Index
	if cur := t.indexes.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, ix)
	t.indexes.Store(&next)
	return ix, nil
}
