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
//   - the table sweep (Table.sweep -> Index.gc) removes a candidate when
//     no retained version of the row extracts to the index key, checking
//     and removing under the group commit latch. The commit path holds
//     the same latch from a row's install through its add, so the
//     sweeper's step is entirely before an install and its add (the add
//     re-inserts the entry) or entirely after them (it sees the version
//     and keeps the entry).
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
// versions at the snapshot), and by the sweeper while it holds the group
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
	// ord is the index's position among its table's indexes: the memo
	// slot it uses in every row, when below rowMemos.
	ord int

	shards [indexShards]indexShard

	gcCursor atomic.Uint32

	puts, deletes, lookups, hits atomic.Uint64
}

// indexShard is one latch-striped slice of the candidate map: ikey -> its
// candidate set (rows are never removed from their table, so a set holds
// them by pointer and the sweeper never probes the table).
type indexShard struct {
	mu sync.RWMutex
	m  map[string]*candidates
}

// candidates is one index key's candidate set: row key -> row.
type candidates struct {
	ikey string
	rows map[string]*row
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
	// keeps its key adds nothing. Deletes counts entries the sweeper
	// dropped. Puts - Deletes is ResidentPostings.
	Puts, Deletes uint64
	// Lookups counts Lookup calls; Hits the rows they returned.
	Lookups, Hits uint64
}

// Stats returns the index's counters.
func (ix *Index) Stats() IndexStats {
	return IndexStats{
		Puts:    ix.puts.Load(),
		Deletes: ix.deletes.Load(),
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
// The steady state — a rewrite that keeps its index key — is one compare:
// r remembers the set it was last added to (for the first rowMemos
// indexes of its table), and that memo holds only while r is in the set,
// since the sweeper clears it in the step that drops r from the set. The
// memo, like the sweeper's step, belongs to the group commit latch holder.
// Otherwise add probes the set under the shard's read lock and takes the
// write lock only to insert.
func (ix *Index) add(r *row, value []byte) {
	ikey, ok := ix.extract(r.key, value)
	if !ok {
		return
	}
	var memo **candidates
	if ix.ord < rowMemos {
		memo = &r.memo[ix.ord]
		if c := *memo; c != nil && c.ikey == ikey {
			return
		}
	}
	sh := ix.shard(ikey)
	sh.mu.RLock()
	c := sh.m[ikey]
	hit := c != nil && c.rows[r.key] == r
	sh.mu.RUnlock()
	if !hit {
		sh.mu.Lock()
		if c = sh.m[ikey]; c == nil {
			c = &candidates{ikey: ikey, rows: make(map[string]*row)}
			sh.m[ikey] = c
		}
		if c.rows[r.key] == nil {
			c.rows[r.key] = r
			ix.puts.Add(1)
		}
		sh.mu.Unlock()
	}
	if memo != nil {
		*memo = c
	}
}

// Lookup calls fn for every row whose index key equals ikey at snapshot
// rts, with the row's value at that same snapshot, until fn returns
// false. Each candidate's row is read at rts and kept iff the extractor
// maps that version to ikey, so the result equals a full-table scan at
// rts filtered by the same extractor; the cost is one version read and
// one extractor call per candidate, and a row has at most one candidate
// entry per retained version. Iteration order is unspecified.
func (ix *Index) Lookup(rts Timestamp, ikey string, fn func(key string, value []byte) bool) {
	ix.lookups.Add(1)
	buf := acquireRows()
	defer releaseRows(buf)
	sh := ix.shard(ikey)
	sh.mu.RLock()
	if c := sh.m[ikey]; c != nil {
		for _, r := range c.rows {
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

// gc visits count index shards from the cursor (wrapping) and drops every
// candidate whose row retains no version extracting to the entry's index
// key, returning the number dropped. Invoked by the table sweeps (buf is
// the sweep's pooled buffer), under the group commit latch, after they
// reclaimed row versions, so index residency is bounded by the same
// policy as row residency.
func (ix *Index) gc(count int, buf *[]*row) int {
	count = min(max(count, 1), indexShards)
	from := int(ix.gcCursor.Load()) % indexShards
	ix.gcCursor.Store(uint32((from + count) % indexShards))
	var sets []*candidates
	n := 0
	for j := 0; j < count; j++ {
		sh := &ix.shards[(from+j)%indexShards]
		// One copy per shard: a nil row starts the candidates of the next
		// set in sets.
		*buf, sets = (*buf)[:0], sets[:0]
		sh.mu.RLock()
		for _, c := range sh.m {
			sets = append(sets, c)
			*buf = append(*buf, nil)
			for _, r := range c.rows {
				*buf = append(*buf, r)
			}
		}
		sh.mu.RUnlock()
		k := -1
		for _, r := range *buf {
			if r == nil {
				k++
			} else if ix.dropUnseen(sh, sets[k], r) {
				n++
			}
		}
	}
	clear(sets)
	ix.deletes.Add(uint64(n))
	return n
}

// dropUnseen removes candidate r from set c of shard sh unless some
// retained version of r still extracts to c's index key, clearing r's
// memo of c in the same step. Check and removal both happen under the
// group commit latch, which the caller holds (see the file comment for why
// no commit can lose its entry that way).
func (ix *Index) dropUnseen(sh *indexShard, c *candidates, r *row) (dropped bool) {
	r.obj.Retained(func(values iter.Seq[[]byte]) {
		for v := range values {
			if ik, ok := ix.extract(r.key, v); ok && ik == c.ikey {
				return
			}
		}
		sh.mu.Lock()
		if c.rows[r.key] == r {
			delete(c.rows, r.key)
			if len(c.rows) == 0 && sh.m[c.ikey] == c {
				delete(sh.m, c.ikey)
			}
			dropped = true
		}
		if ix.ord < rowMemos && r.memo[ix.ord] == c {
			r.memo[ix.ord] = nil
		}
		sh.mu.Unlock()
	})
	return dropped
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
// quiesces the group's commit pipeline for the duration of the backfill;
// from the first commit after it returns, the index is maintained in the
// write path. The backfill adds a candidate for EVERY retained version of
// every row, so a snapshot pinned before the index existed reads it as
// consistently as one taken afterwards.
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
	ix := &Index{name: name, tbl: t, extract: extract, ord: len(t.indexSet())}
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

	buf := acquireRows()
	defer releaseRows(buf)
	for i := range t.shards {
		*buf = t.shards[i].appendRows((*buf)[:0])
		for _, r := range *buf {
			r.obj.Retained(func(values iter.Seq[[]byte]) {
				for v := range values {
					ix.add(r, v)
				}
			})
		}
	}

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
