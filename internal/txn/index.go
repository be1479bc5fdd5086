package txn

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sistream/internal/kv"
	"sistream/internal/mvcc"
)

// Transactional secondary indexes. An index maps a derived key (the
// "index key", computed by a user extractor from a row's key and value)
// to the set of row keys currently carrying it. Maintenance happens in
// the SAME write path as the table itself: the commit pipeline
// (commitBatch) derives index mutations from every admitted row write,
// appends them to the SAME coalesced durability batch, and
// installs them into the index's version store at the SAME commit
// timestamp as the row — so an index is never ahead of or behind its
// table, under all three concurrency-control protocols, and aborted
// transactions never touch it (only admitted requests are processed).
//
// Each (index key, row key) posting is an mvcc.Object holding presence
// versions: visible at rts exactly when the row carried that index key
// at rts. Lookups therefore compose with snapshot reads for free — an
// index read at a Snapshot's CTS returns exactly the rows a filtered
// full-table scan at that CTS would.

// indexShards spreads the posting lists over independently locked maps,
// mirroring the table's key shards. Must be a power of two.
const indexShards = 16

// IndexKeyFunc derives the index key of one row. ok=false excludes the
// row from the index (a partial index). The function must be pure — it
// is re-evaluated on the commit path for both the old and the new row
// image — and must not retain key or value. Index keys must not contain
// NUL bytes (the persisted posting-row encoding uses NUL as separator).
type IndexKeyFunc func(key string, value []byte) (ikey string, ok bool)

// Index is a transactionally maintained secondary index over one table
// (Table.CreateIndex). All methods are safe for concurrent use; reads
// are wait-free against the commit path (RCU posting versions).
type Index struct {
	name    string
	tbl     *Table
	extract IndexKeyFunc

	shards [indexShards]indexShard

	gcCursor atomic.Uint32

	puts, deletes, lookups, hits atomic.Uint64
}

// indexShard is one latch-striped slice of the posting map:
// ikey -> row key -> presence versions. Posting objects are never
// removed once created (installers cache pointers to them, exactly as
// table rows do); reclamation compacts their version arrays instead.
type indexShard struct {
	mu sync.RWMutex
	m  map[string]map[string]*mvcc.Object
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Table returns the indexed table.
func (ix *Index) Table() *Table { return ix.tbl }

// IndexStats are an index's lifetime counters (Index.Stats).
type IndexStats struct {
	// Puts / Deletes count posting insertions and removals installed by
	// the commit path (backfill included).
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

// posting returns the presence-version object of (ikey, pkey), creating
// it when create is set.
func (ix *Index) posting(ikey, pkey string, create bool) *mvcc.Object {
	sh := ix.shard(ikey)
	sh.mu.RLock()
	o := sh.m[ikey][pkey]
	sh.mu.RUnlock()
	if o != nil || !create {
		return o
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	post := sh.m[ikey]
	if post == nil {
		post = make(map[string]*mvcc.Object)
		sh.m[ikey] = post
	}
	if o = post[pkey]; o == nil {
		o = mvcc.NewObject(0)
		post[pkey] = o
	}
	return o
}

// install applies one posting mutation at cts: presence when delete is
// false, removal otherwise. Called under the owning group's commit latch
// (backfill holds it too), so installs per posting are cts-monotonic.
func (ix *Index) install(ikey, pkey string, cts Timestamp, delete bool, horizon Timestamp) error {
	if err := ix.posting(ikey, pkey, true).Install(cts, nil, delete, horizon); err != nil {
		return fmt.Errorf("index %q: %w", ix.name, err)
	}
	if delete {
		ix.deletes.Add(1)
	} else {
		ix.puts.Add(1)
	}
	return nil
}

// appendRowKey appends the persisted posting-row key for (ikey, pkey) to
// dst: "i/<table>/<index>/<ikey>\x00<pkey>". Posting rows ride the same
// per-store durability batch as the table rows of their commit.
func (ix *Index) appendRowKey(dst []byte, ikey, pkey string) []byte {
	dst = append(dst, 'i', '/')
	dst = append(dst, ix.tbl.id...)
	dst = append(dst, '/')
	dst = append(dst, ix.name...)
	dst = append(dst, '/')
	dst = append(dst, ikey...)
	dst = append(dst, 0)
	return append(dst, pkey...)
}

// rowPrefix namespaces this index's posting rows in the base store.
func (ix *Index) rowPrefix() []byte {
	return []byte("i/" + string(ix.tbl.id) + "/" + ix.name + "/")
}

// Lookup calls fn for every row whose index key equals ikey at snapshot
// rts, with the row's value at that same snapshot, until fn returns
// false. Posting visibility and row visibility are installed at the same
// commit timestamp, so the result equals a full-table scan at rts
// filtered by the same extractor. Iteration order is unspecified.
func (ix *Index) Lookup(rts Timestamp, ikey string, fn func(key string, value []byte) bool) {
	ix.lookups.Add(1)
	sh := ix.shard(ikey)
	type pair struct {
		k string
		o *mvcc.Object
	}
	sh.mu.RLock()
	post := sh.m[ikey]
	pairs := make([]pair, 0, len(post))
	for k, o := range post {
		pairs = append(pairs, pair{k, o})
	}
	sh.mu.RUnlock()
	for _, p := range pairs {
		if _, ok := p.o.Read(rts); !ok {
			continue
		}
		v, ok := ix.tbl.readVersion(p.k, rts)
		if !ok {
			// Unreachable when the write-path invariant holds (posting and
			// row install at one cts); skipping keeps a lookup from ever
			// fabricating a row.
			continue
		}
		ix.hits.Add(1)
		if !fn(p.k, v) {
			return
		}
	}
}

// ResidentPostings counts posting version slots currently occupied —
// the index-side analogue of Table.ResidentVersions (diagnostic).
func (ix *Index) ResidentPostings() int {
	n := 0
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		for _, post := range sh.m {
			for _, o := range post {
				n += o.LiveVersions()
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// gc reclaims dead posting versions in count index shards from the
// cursor (wrapping), returning reclaimed slots. Invoked by the table
// sweeps so index residency is bounded by the same policy as row
// residency.
func (ix *Index) gc(horizon Timestamp, count int) int {
	if count < 1 {
		count = 1
	}
	if count > indexShards {
		count = indexShards
	}
	from := int(ix.gcCursor.Load()) % indexShards
	ix.gcCursor.Store(uint32((from + count) % indexShards))
	n := 0
	for j := 0; j < count; j++ {
		sh := &ix.shards[(from+j)%indexShards]
		sh.mu.RLock()
		objs := make([]*mvcc.Object, 0, len(sh.m))
		for _, post := range sh.m {
			for _, o := range post {
				objs = append(objs, o)
			}
		}
		sh.mu.RUnlock()
		for _, o := range objs {
			n += o.GC(horizon)
		}
	}
	return n
}

// indexDelta is one posting mutation derived from an admitted row write,
// installed at the writing transaction's commit timestamp.
type indexDelta struct {
	ix   *Index
	ikey string
	pkey string
	del  bool
}

// indexDeltasFor appends the posting mutations implied by writing key
// with newVal (or deleting it when del is set), given the row's
// pre-image: oldVal/hadOld describe the latest value the key holds
// before this write installs (earlier same-batch admissions included).
func indexDeltasFor(dst []indexDelta, ixs []*Index, key string, newVal []byte, del bool, oldVal []byte, hadOld bool) []indexDelta {
	for _, ix := range ixs {
		var (
			oldIK, newIK string
			oldOK, newOK bool
		)
		if hadOld {
			oldIK, oldOK = ix.extract(key, oldVal)
		}
		if !del {
			newIK, newOK = ix.extract(key, newVal)
		}
		if oldOK && newOK && oldIK == newIK {
			continue // index key unchanged: nothing to maintain
		}
		if oldOK {
			dst = append(dst, indexDelta{ix: ix, ikey: oldIK, pkey: key, del: true})
		}
		if newOK {
			dst = append(dst, indexDelta{ix: ix, ikey: newIK, pkey: key, del: false})
		}
	}
	return dst
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
// derived by extract, and backfills it from the committed state at the
// group's current LastCTS. The table must already belong to a group
// (CreateIndex after CreateGroup — recovery has run, so the backfill
// sees recovered rows too). Creation quiesces the group's commit
// pipeline for the duration of the backfill; from the first commit after
// it returns, the index is maintained transactionally in the write path.
//
// Persisted posting rows from a previous process run are cleared before
// the backfill, so a changed extractor can never leave stale postings in
// the base store.
func (t *Table) CreateIndex(name string, extract IndexKeyFunc) (*Index, error) {
	if name == "" || extract == nil {
		return nil, fmt.Errorf("txn: CreateIndex needs a name and an extractor")
	}
	g := t.group
	if g == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownState, t.id)
	}
	// Quiesce the commit pipeline: no transaction can commit into the
	// table while the backfill scans, so the index is exact at LastCTS
	// and every later commit maintains it incrementally.
	g.commitMu.Lock()
	defer g.commitMu.Unlock()
	if t.Index(name) != nil {
		return nil, fmt.Errorf("txn: table %q already has index %q", t.id, name)
	}
	ix := &Index{name: name, tbl: t, extract: extract}
	for i := range ix.shards {
		ix.shards[i].m = make(map[string]map[string]*mvcc.Object)
	}

	// Drop stale persisted postings, then persist the backfill in one
	// batch (same sync gate as commits: only where the backend has one).
	batch := kv.NewBatch(0)
	prefix := ix.rowPrefix()
	end := append(append([]byte(nil), prefix...), 0xff)
	if err := t.store.Scan(prefix, end, func(k, _ []byte) bool {
		batch.Delete(k)
		return true
	}); err != nil {
		return nil, fmt.Errorf("txn: index %q: clear postings: %w", name, err)
	}

	rts := g.LastCTS()
	var installErr error
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		type pair struct {
			k string
			o *mvcc.Object
		}
		pairs := make([]pair, 0, len(sh.m))
		for k, o := range sh.m {
			pairs = append(pairs, pair{k, o})
		}
		sh.mu.RUnlock()
		for _, p := range pairs {
			v, ok := p.o.Read(rts)
			if !ok {
				continue
			}
			ikey, ok := extract(p.k, v)
			if !ok {
				continue
			}
			// Under the quiesced latch the visible version is the newest,
			// so its commit timestamp is the object's LatestCTS; installing
			// the posting there makes it visible to every snapshot that can
			// see the row — including ones pinned before the index existed.
			if err := ix.install(ikey, p.k, p.o.LatestCTS(), false, 0); err != nil {
				installErr = err
				break
			}
			batch.Put(ix.appendRowKey(nil, ikey, p.k), nil)
		}
		if installErr != nil {
			break
		}
	}
	if installErr != nil {
		return nil, installErr
	}
	if batch.Len() > 0 {
		sync := t.opts.SyncCommits && t.caps.SupportsSync
		if err := t.store.Apply(batch, sync); err != nil {
			return nil, fmt.Errorf("txn: index %q: persist backfill: %w", name, err)
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

// rowImage tracks a key's pending post-write image within one commit
// batch: later same-batch admissions must compute their index deltas
// against it, not against the installed version store (those earlier
// writes install only in phase 4).
type rowImage struct {
	val []byte
	del bool
}

// latestImage returns the latest installed live value of key in tbl —
// the index pre-image when no earlier same-batch admission rewrote the
// key. o, when non-nil, is the key's already-resolved version object.
func latestImage(tbl *Table, o *mvcc.Object, key string) ([]byte, bool) {
	if o == nil {
		o = tbl.object(key, false)
	}
	if o == nil {
		return nil, false
	}
	return o.Read(mvcc.Infinity)
}
