package txn

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"sistream/internal/kv"
)

// tableShards spreads a table's rows over independently locked slices of
// its row index so the continuous writer and many ad-hoc readers rarely
// contend on the same shard; the top tableShardBits bits of a key's hash
// pick its shard.
const (
	tableShardBits = 6
	tableShards    = 1 << tableShardBits
)

// TableOptions configures a transactional table. Version reclamation
// takes no option: Install reuses a row's dead slots when it writes the
// row, and Table.GC sweeps every row when the caller asks.
type TableOptions struct {
	// VersionSlots is the number of versions a row holds before Install
	// reclaims in place: a new version takes a free slot while there is
	// one, and overwrites a dead version only when there is none (default
	// mvcc.DefaultSlots, 2, kept inline in the row; a row needing more
	// keeps the rest in a heap array, which grows when nothing is dead).
	// The slot-size ablation (experiment A1) sweeps this.
	VersionSlots int
	// SyncCommits makes commits durable (fsync) before they become
	// visible. The paper's evaluation enables it ("we ... only set the
	// sync option to true to guarantee failure atomicity").
	SyncCommits bool
}

// Table is the transactional table wrapper of the paper's Figure 3: a
// dictionary from keys to MVCC objects layered over an arbitrary
// key-value base table (the "base table" holding the durable image of the
// latest committed version of every key).
//
// Tables must be registered in a topology group before transactional use.
// All tables of a context share its one base store — keys are namespaced
// by state ID — so every commit, over one group or several, persists as a
// single atomic store batch. States on separate stores need separate
// contexts.
type Table struct {
	id   StateID
	ctx  *Context
	opts TableOptions
	// group is published by CreateGroup once the table's rows are loaded.
	group atomic.Pointer[Group]
	// meta is the key of the group's LastCTS in the table's base store.
	meta []byte

	// shards is the row index, the paper's dictionary from keys to MVCC
	// objects (see rowShard).
	shards [tableShards]rowShard

	// Secondary indexes (Table.CreateIndex), copy-on-write so the
	// group-commit leader reads the set with one atomic load per entry.
	indexes atomic.Pointer[[]*Index]
}

// CreateTable registers a transactional table named id over the given
// base store. The table is empty in memory until its group is created,
// which performs recovery of persisted rows. The first table fixes the
// context's base store; a table naming any other store is refused and
// not registered — states on separate stores need separate contexts.
func (c *Context) CreateTable(id StateID, store kv.Store, opts TableOptions) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.states[id]; dup {
		return nil, fmt.Errorf("txn: table %q already exists", id)
	}
	if c.store == nil {
		c.store, c.caps = store, kv.CapabilitiesOf(store)
	} else if store != c.store {
		return nil, fmt.Errorf("txn: table %q is on a second base store; a context keeps all its tables on one", id)
	}
	t := &Table{id: id, ctx: c, opts: opts, meta: []byte("m/" + string(id) + "/lastcts")}
	c.states[id] = t
	return t, nil
}

// ID returns the table's state identifier.
func (t *Table) ID() StateID { return t.id }

// Capabilities returns the capability flags of the table's base store —
// the context's, captured at its first CreateTable. The group-commit
// leader consults them:
// SyncCommits requests a sync point only where the backend declares
// itself Durable — over a volatile backend the fsync is skipped honestly
// instead of requested and silently ignored.
func (t *Table) Capabilities() kv.Capabilities { return t.ctx.caps }

// Group returns the topology group the table belongs to (nil before
// CreateGroup).
func (t *Table) Group() *Group { return t.group.Load() }

// rowPrefix namespaces this table's rows in the shared base store.
func (t *Table) rowKey(key string) []byte {
	return []byte("s/" + string(t.id) + "/" + key)
}

// appendRowKey appends the namespaced row key for key to dst and returns
// the extended slice — the allocation-free variant of rowKey used by the
// group-commit batch builder, which lays all row keys of one durability
// batch into a single arena.
func (t *Table) appendRowKey(dst []byte, key string) []byte {
	dst = append(dst, 's', '/')
	dst = append(dst, t.id...)
	dst = append(dst, '/')
	return append(dst, key...)
}

// metaKey holds the group's LastCTS in the base store; written as part of
// every commit batch that touches the table, so that durability of data
// and of the visibility watermark are a single atomic unit.
func (t *Table) metaKey() []byte { return t.meta }

// shard returns the row-index shard of hash h.
func (t *Table) shard(h uint64) *rowShard { return &t.shards[h>>(64-tableShardBits)] }

// lookup returns the row of key, nil when the table has none — the reader
// side of the row index, one probe under the shard's read lock.
func (t *Table) lookup(key string) *row {
	h := keyHash(key)
	sh := t.shard(h)
	sh.mu.RLock()
	r := sh.find(h, key)
	sh.mu.RUnlock()
	return r
}

// row returns the row of key (hash h), inserting it when the table has
// none. Only the holder of the group commit latch calls it, and rows are
// inserted by nobody else, so the probe takes no lock.
func (t *Table) row(h uint64, key string) *row {
	sh := t.shard(h)
	if r := sh.find(h, key); r != nil {
		return r
	}
	r := newRow(key, t.opts.VersionSlots)
	sh.mu.Lock()
	sh.insert(h, r)
	sh.mu.Unlock()
	return r
}

// readVersion returns the value of key visible at rts.
func (t *Table) readVersion(key string, rts Timestamp) ([]byte, bool) {
	r := t.lookup(key)
	if r == nil {
		return nil, false
	}
	return r.obj.Read(rts)
}

// ReadAt returns the value of key visible at snapshot rts, bypassing any
// protocol bookkeeping: a diagnostic read, which nothing pins — a
// version below the GC horizon may already be reclaimed. The returned
// slice must not be modified.
func (t *Table) ReadAt(key string, rts Timestamp) ([]byte, bool) {
	return t.readVersion(key, rts)
}

// Keys returns the number of rows: the keys recovered or written by a
// commit that reached admission, live, deleted or aborted (diagnostic).
func (t *Table) Keys() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += sh.n
		sh.mu.RUnlock()
	}
	return n
}

// GC reclaims versions invisible at the context's current
// OldestActiveVersion across all keys, and drops the index candidates
// whose rows no longer retain a version carrying their index key,
// returning the slots and entries it reclaimed. It is the one sweep:
// Install reclaims a written row's dead slots on demand, and only GC
// reaches rows nobody writes any more, so a program that wants a quiet
// table or roaming index keys bounded calls it on its own schedule. It
// holds the group commit latch for the sweep, since reclaiming writes the
// rows' version slots, which only the latch holder may: commits wait for
// it, readers never do. So it must not be called from a commit watcher,
// which runs under that latch.
func (t *Table) GC() int {
	if g := t.Group(); g != nil {
		g.commitMu.Lock()
		defer g.commitMu.Unlock()
	}
	return t.sweep()
}

// sweep is GC's pass over every shard. Caller holds the group commit
// latch (or the table has no group, hence no rows).
func (t *Table) sweep() int {
	horizon := t.ctx.OldestActiveVersion()
	buf := acquireRows()
	defer releaseRows(buf)
	n := 0
	for i := range t.shards {
		*buf = t.shards[i].appendRows((*buf)[:0])
		for _, r := range *buf {
			n += r.obj.GC(horizon)
		}
	}
	// Index candidates age with their rows: the sweep also drops the
	// entries whose row no longer retains a version carrying the index key.
	for _, ix := range t.indexSet() {
		n += ix.gc(buf)
	}
	return n
}

// StopIdleGC does nothing: tables run no background sweeper. It remains
// for callers that tear a topology down; Table.GC reclaims a quiet table.
func (t *Table) StopIdleGC() {}

// ResidentVersions counts the currently occupied version slots across all
// keys of the table — the live-version footprint Install and GC bound.
// O(keys); a diagnostic, not a hot-path call.
func (t *Table) ResidentVersions() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, s := range sh.slots {
			if s.row != nil {
				n += s.row.obj.LiveVersions()
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// readMetaCTS reads the persisted LastCTS watermark, 0 when absent.
func (t *Table) readMetaCTS() (Timestamp, error) {
	raw, found, err := t.ctx.store.Get(t.metaKey())
	if err != nil || !found {
		return 0, err
	}
	if len(raw) != 8 {
		return 0, fmt.Errorf("txn: state %q: malformed lastcts", t.id)
	}
	return binary.LittleEndian.Uint64(raw), nil
}

// SnapshotScan iterates all keys visible at snapshot rts in unspecified
// order, calling fn until it returns false. It is the building block of
// ad-hoc full-table queries (FROM on a table).
func (t *Table) SnapshotScan(rts Timestamp, fn func(key string, value []byte) bool) {
	scanStripe(t, rts, 0, 1, fn)
}
