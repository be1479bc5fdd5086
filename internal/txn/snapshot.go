package txn

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Snapshot is a consistent analytical read view: one commit timestamp
// pinned across one or more tables (possibly of different topology
// groups), under which every read — point lookups, full scans, striped
// lane-parallel scans, and secondary-index lookups — observes whole
// transactions or nothing. A Snapshot holds a transaction slot and a GC
// pin (the same OldestActiveVersion machinery protecting feeds and
// read-write transactions), so version reclamation respects even very
// long scans; Release the snapshot when done to unpin the horizon.
//
// Reads never block writers and writers never block reads: every method
// is an RCU version-store read at the pinned timestamp. All methods are
// safe for concurrent use, so one Snapshot may serve many query lanes.
type Snapshot struct {
	ctx    *Context
	tx     *Txn
	rts    Timestamp
	tables map[StateID]*Table

	released atomic.Bool
}

// Snapshot pins a consistent read timestamp across the given tables and
// returns the read view. Every table must already belong to a topology
// group. The pinned timestamp is the minimum of the involved groups'
// LastCTS — a consistent cross-group cut, because a multi-group commit
// publishes its timestamp to every involved group under all their commit
// latches: the minimum either precedes such a commit everywhere or
// includes it everywhere.
func (c *Context) Snapshot(tables ...*Table) (*Snapshot, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("txn: Snapshot needs at least one table")
	}
	byID := make(map[StateID]*Table, len(tables))
	var groups []*Group
	for _, tbl := range tables {
		g := tbl.Group()
		if g == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownState, tbl.id)
		}
		byID[tbl.id] = tbl
		if !slices.Contains(groups, g) {
			groups = append(groups, g)
		}
	}

	// The snapshot occupies a transaction slot so the GC horizon scan
	// (OldestActiveVersion) sees its pin; it never enters a commit path.
	tx := &Txn{id: c.next(), ctx: c, readOnly: true, done: make(chan struct{})}
	if err := c.register(tx); err != nil {
		return nil, err
	}

	minCTS := func() Timestamp {
		rts := groups[0].LastCTS()
		for _, g := range groups[1:] {
			if cts := g.LastCTS(); cts < rts {
				rts = cts
			}
		}
		return rts
	}
	// Store-then-validate, exactly as Txn.pin: publish the GC pin, then
	// confirm no commit raced past it. A racing commit raises some
	// LastCTS, so re-reading the minimum detects it and we retry with the
	// newer cut; on exit every version visible at rts is protected.
	var rts Timestamp
	for {
		rts = minCTS()
		if p := tx.pinnedOldest.Load(); p == 0 || rts < p {
			tx.pinnedOldest.Store(rts)
		}
		if minCTS() == rts {
			break
		}
	}
	return &Snapshot{ctx: c, tx: tx, rts: rts, tables: byID}, nil
}

// CTS returns the snapshot's pinned commit timestamp.
func (s *Snapshot) CTS() Timestamp { return s.rts }

// table validates that tbl was declared when the snapshot was taken —
// only declared tables are covered by the consistency argument (their
// groups participated in the pinned cut).
func (s *Snapshot) table(tbl *Table) error {
	if s.released.Load() {
		return ErrFinished
	}
	if _, ok := s.tables[tbl.id]; !ok {
		return fmt.Errorf("txn: table %q not covered by this snapshot", tbl.id)
	}
	return nil
}

// Get returns the value of key in tbl at the snapshot.
func (s *Snapshot) Get(tbl *Table, key string) ([]byte, bool, error) {
	if err := s.table(tbl); err != nil {
		return nil, false, err
	}
	v, ok := tbl.readVersion(key, s.rts)
	return v, ok, nil
}

// Scan iterates every key of tbl visible at the snapshot in unspecified
// order, calling fn until it returns false.
func (s *Snapshot) Scan(tbl *Table, fn func(key string, value []byte) bool) error {
	if err := s.table(tbl); err != nil {
		return err
	}
	tbl.SnapshotScan(s.rts, fn)
	return nil
}

// ScanRange iterates the keys of tbl in [start, end) visible at the
// snapshot (lexicographic bounds; end == "" means unbounded), in
// unspecified order, calling fn until it returns false.
func (s *Snapshot) ScanRange(tbl *Table, start, end string, fn func(key string, value []byte) bool) error {
	if err := s.table(tbl); err != nil {
		return err
	}
	scanStripe(tbl, s.rts, 0, 1, func(key string, value []byte) bool {
		if key < start || (end != "" && key >= end) {
			return true
		}
		return fn(key, value)
	})
	return nil
}

// ScanStripe iterates stripe number `stripe` of `stripes` equal slices
// of tbl's key shards at the snapshot — the unit of lane-parallel scans:
// the stripes partition the table, so `stripes` goroutines each scanning
// one stripe cover every visible key exactly once (ParallelScan wires
// exactly that).
func (s *Snapshot) ScanStripe(tbl *Table, stripe, stripes int, fn func(key string, value []byte) bool) error {
	if err := s.table(tbl); err != nil {
		return err
	}
	if stripes < 1 || stripe < 0 || stripe >= stripes {
		return fmt.Errorf("txn: ScanStripe: invalid stripe %d of %d", stripe, stripes)
	}
	scanStripe(tbl, s.rts, stripe, stripes, fn)
	return nil
}

// ParallelScan scans tbl at the snapshot with `lanes` concurrent
// goroutines, one stripe of the key shards each. fn is called
// concurrently from all lanes and must be safe for that; returning false
// from any invocation stops every lane promptly. The scan observes the
// same consistent cut as a sequential Scan — lanes share one pinned
// timestamp.
func (s *Snapshot) ParallelScan(tbl *Table, lanes int, fn func(key string, value []byte) bool) error {
	if err := s.table(tbl); err != nil {
		return err
	}
	if lanes < 1 {
		lanes = 1
	}
	if lanes > tableShards {
		lanes = tableShards
	}
	if lanes == 1 {
		tbl.SnapshotScan(s.rts, fn)
		return nil
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(stripe int) {
			defer wg.Done()
			scanStripe(tbl, s.rts, stripe, lanes, func(key string, value []byte) bool {
				if stop.Load() {
					return false
				}
				if !fn(key, value) {
					stop.Store(true)
					return false
				}
				return true
			})
		}(lane)
	}
	wg.Wait()
	return nil
}

// Lookup reads rows of ix's table through the secondary index at the
// snapshot: fn is called for every row whose index key equals ikey at
// the pinned timestamp, with the row value at that same timestamp. The
// index holds candidates only; each is re-checked against its row's own
// version at the pinned timestamp, which makes this equal to a filtered
// full scan of the table.
func (s *Snapshot) Lookup(ix *Index, ikey string, fn func(key string, value []byte) bool) error {
	if err := s.table(ix.tbl); err != nil {
		return err
	}
	ix.Lookup(s.rts, ikey, fn)
	return nil
}

// Release drops the snapshot's GC pin and transaction slot. Idempotent.
// After Release every read method fails with ErrFinished; versions the
// snapshot alone kept alive become reclaimable by the next sweep.
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	s.tx.finished.Store(true)
	close(s.tx.done)
	s.ctx.unregister(s.tx)
}

// scanStripe iterates the visible keys of shard stripe `stripe` of
// `stripes` at rts: the shards i with i % stripes == stripe. Each shard's
// rows are copied under its read lock into the call's one pooled
// buffer; versions are read and fn runs outside the lock (RCU).
func scanStripe(t *Table, rts Timestamp, stripe, stripes int, fn func(key string, value []byte) bool) {
	buf := acquireRows()
	defer releaseRows(buf)
	for i := stripe; i < tableShards; i += stripes {
		*buf = t.shards[i].appendRows((*buf)[:0])
		for _, r := range *buf {
			if v, ok := r.obj.Read(rts); ok {
				if !fn(r.key, v) {
					return
				}
			}
		}
	}
}
