package txn

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Recovery rebuilds a group's rows from the base table, which holds every
// key's latest committed image (the paper's Section 4.1): CreateGroup
// runs one loader per member table, and each loads its table in bulk.
//
//   - Scan: for each pair the store yields, the loader copies the key
//     into a key arena, which the row keeps for its life, and the value
//     into a value arena, which a later write of the row replaces; makes
//     the row, seeded with that value (mvcc's InstallRecovered owns the
//     arena copy); and counts it for its row-index shard. Each row is an
//     allocation of its own, as a row the commit path inserts is: a row
//     in a shared slab would sit behind the slab's malloc header, 8 bytes
//     off the 32-byte alignment a 160-byte allocation has, and the commit
//     path reads such rows measurably slower (DESIGN.md "Recovery and
//     index backfill").
//   - Build: it sizes every shard's slot array once, from its count, and
//     inserts the rows.
//   - Publish: CreateGroup hands the built shards to their tables only
//     after every loader has finished without error, and publishes the
//     group after that.
//
// What a surviving row pins: the key chunk its key is in and, until the
// row is rewritten, the value chunk its recovered value is in (each chunk
// arenaChunk bytes; a key or value longer than a quarter chunk gets its
// own allocation). Rows never leave a table today, so nothing is pinned
// that would otherwise be freed.
const (
	arenaChunk = 32 << 10
	// loadChunk is the number of rows a loader lists per allocation
	// before it inserts them.
	loadChunk = 1024
)

// arena hands out copies of byte strings from shared chunks. A copy is
// capped at its own length, so appending to it cannot overwrite the next.
type arena struct{ buf []byte }

// copy returns a copy of b, nil when b is empty.
func (a *arena) copy(b []byte) []byte {
	switch {
	case len(b) == 0:
		return nil
	case len(b) > arenaChunk/4:
		return append(make([]byte, 0, len(b)), b...)
	case len(a.buf)+len(b) > cap(a.buf):
		a.buf = make([]byte, 0, arenaChunk)
	}
	n := len(a.buf)
	a.buf = append(a.buf, b...)
	return a.buf[n:len(a.buf):len(a.buf)]
}

// string returns a copy of b as a string.
func (a *arena) string(b []byte) string {
	c := a.copy(b)
	return unsafe.String(unsafe.SliceData(c), len(c))
}

// loadTables runs one loader per table, at most GOMAXPROCS at once, and
// returns each table's built row-index shards once every loader has
// finished. On failure it returns the error of the first failed table in
// argument order, naming that table, and nothing of any table; a failure
// stops the other loaders' scans early.
func loadTables(tables []*Table, cts Timestamp) ([]*[tableShards]rowShard, error) {
	var (
		built  = make([]*[tableShards]rowShard, len(tables))
		errs   = make([]error, len(tables))
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	load := func() {
		for i := int(next.Add(1) - 1); i < len(tables); i = int(next.Add(1) - 1) {
			if built[i], errs[i] = tables[i].loadCommitted(cts, &failed); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	for range min(runtime.GOMAXPROCS(0), len(tables)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			load()
		}()
	}
	load()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("txn: load state %q: %w", tables[i].id, err)
		}
	}
	return built, nil
}

// loadCommitted scans the table's rows in the base store and builds its
// row-index shards with one committed version per key at cts (see the
// file comment), without touching the table: CreateGroup publishes them.
// It stops early, returning what it has, once stop is set.
func (t *Table) loadCommitted(cts Timestamp, stop *atomic.Bool) (*[tableShards]rowShard, error) {
	type loaded struct {
		h uint64
		r *row
	}
	var (
		keys, values arena
		rows         [][]loaded
		counts       [tableShards]int
	)
	prefix := t.rowKey("")
	end := append(append([]byte(nil), prefix...), 0xff)
	err := t.ctx.store.Scan(prefix, end, func(k, v []byte) bool {
		if stop.Load() {
			return false
		}
		key := keys.string(k[len(prefix):])
		h := keyHash(key)
		r := newRow(key, t.opts.VersionSlots)
		r.obj.InstallRecovered(cts, values.copy(v))
		counts[h>>(64-tableShardBits)]++
		if len(rows) == 0 || len(rows[len(rows)-1]) == loadChunk {
			rows = append(rows, make([]loaded, 0, loadChunk))
		}
		last := &rows[len(rows)-1]
		*last = append(*last, loaded{h, r})
		return true
	})
	if err != nil {
		return nil, err
	}
	shards := new([tableShards]rowShard)
	for i, n := range counts {
		shards[i].reserve(n)
	}
	for _, chunk := range rows {
		for _, l := range chunk {
			shards[l.h>>(64-tableShardBits)].insert(l.h, l.r)
		}
	}
	return shards, nil
}
