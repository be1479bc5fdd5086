package txn

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Snapshot is a consistent analytical read view over one or more tables
// (possibly of different topology groups): each group is read at its own
// LastCTS, all of them pinned at once, so every read — point lookups,
// full scans, striped lane-parallel scans, and secondary-index lookups —
// observes whole transactions or nothing. A Snapshot is a registered
// read cut, the same one a transaction reads through: it holds a slot of
// the active table's snapshot range and a GC pin (OldestActiveVersion),
// so version reclamation respects even very long scans, but no writer's
// slot and no BOCC history. Release the snapshot when done to unpin the
// horizon.
//
// Reads never block writers and writers never block reads: every method
// is a lock-free version-store read at the pinned cut. All methods
// are safe for concurrent use, so one Snapshot may serve many query lanes
// — and with Release: a read already running when the snapshot is
// released keeps the pin until it returns, so it completes against the
// pinned cut; a read that starts after Release fails with ErrFinished.
type Snapshot struct {
	cut
	tables []*Table

	// state is twice the number of reads in flight, plus 1 once Release
	// was called. The pin goes when state reaches exactly 1, which it does
	// once: no read starts after Release.
	state atomic.Int64
}

// Snapshot pins a consistent cut across the given tables and returns the
// read view. Every table must already belong to a topology group. Each
// group is read at its own LastCTS, all pinned together by pinGroups: a
// commit spanning several of the groups is in every one of their cuts or
// in none.
func (c *Context) Snapshot(tables ...*Table) (*Snapshot, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("txn: Snapshot needs at least one table")
	}
	covered := make([]*Table, 0, len(tables))
	var buf [4]*Group
	groups := buf[:0]
	for _, tbl := range tables {
		g := tbl.Group()
		if g == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownState, tbl.id)
		}
		if !slices.Contains(covered, tbl) {
			covered = append(covered, tbl)
		}
		if !slices.Contains(groups, g) {
			groups = append(groups, g)
		}
	}

	// The snapshot registers its cut in the snapshot range, so the GC
	// horizon scan (OldestActiveVersion) sees its pin; it never enters a
	// commit path. It writes, locks and validates nothing, so nothing
	// orders by it: it neither ticks the clock, leaving the commit
	// timestamps of the topology alone, nor holds back BOCC's history.
	s := &Snapshot{tables: covered}
	s.ctx = c
	if len(groups) > 1 {
		s.readCTS = make([]groupCut, 0, len(groups))
	}
	if err := c.register(&s.cut, txnWords, len(c.slotWords)); err != nil {
		return nil, fmt.Errorf("%w: %d snapshots held", err, maxSnapshots)
	}
	s.pinGroups(groups)
	return s, nil
}

// CTS returns the snapshot's oldest group cut: every group is read at or
// after it.
func (s *Snapshot) CTS() Timestamp { return s.oldest() }

// begin starts a read of tbl, which must have been declared when the
// snapshot was taken — only declared tables are covered by the
// consistency argument (their groups participated in the pinned cut) —
// and returns the cut to read it at. On success the read holds the pin
// until the caller calls end.
func (s *Snapshot) begin(tbl *Table) (Timestamp, error) {
	for {
		st := s.state.Load()
		if st&1 != 0 {
			return 0, ErrFinished
		}
		if s.state.CompareAndSwap(st, st+2) {
			break
		}
	}
	if !slices.Contains(s.tables, tbl) {
		s.end()
		return 0, fmt.Errorf("txn: table %q not covered by this snapshot", tbl.id)
	}
	cts, _ := s.at(tbl.Group())
	return cts, nil
}

// end finishes a read begun by begin, unpinning a released snapshot when
// it was the last one in flight.
func (s *Snapshot) end() {
	if s.state.Add(-2) == 1 {
		s.release()
	}
}

// Get returns the value of key in tbl at the snapshot.
func (s *Snapshot) Get(tbl *Table, key string) ([]byte, bool, error) {
	rts, err := s.begin(tbl)
	if err != nil {
		return nil, false, err
	}
	defer s.end()
	v, ok := tbl.readVersion(key, rts)
	return v, ok, nil
}

// Scan iterates every key of tbl visible at the snapshot in unspecified
// order, calling fn until it returns false.
func (s *Snapshot) Scan(tbl *Table, fn func(key string, value []byte) bool) error {
	rts, err := s.begin(tbl)
	if err != nil {
		return err
	}
	defer s.end()
	scanStripe(tbl, rts, 0, 1, fn)
	return nil
}

// ScanStripe iterates stripe number `stripe` of `stripes` equal slices
// of tbl's key shards at the snapshot — the unit of lane-parallel scans:
// the stripes partition the table, so `stripes` goroutines each scanning
// one stripe of the same snapshot cover every visible key exactly once,
// all at the snapshot's one cut.
func (s *Snapshot) ScanStripe(tbl *Table, stripe, stripes int, fn func(key string, value []byte) bool) error {
	rts, err := s.begin(tbl)
	if err != nil {
		return err
	}
	defer s.end()
	if stripes < 1 || stripe < 0 || stripe >= stripes {
		return fmt.Errorf("txn: ScanStripe: invalid stripe %d of %d", stripe, stripes)
	}
	scanStripe(tbl, rts, stripe, stripes, fn)
	return nil
}

// Lookup reads rows of ix's table through the secondary index at the
// snapshot: fn is called for every row whose index key equals ikey at
// the table's cut, with the row value at that same cut. The
// index holds candidates only; each is re-checked against its row's own
// version at the pinned timestamp, which makes this equal to a filtered
// full scan of the table.
func (s *Snapshot) Lookup(ix *Index, ikey string, fn func(key string, value []byte) bool) error {
	rts, err := s.begin(ix.tbl)
	if err != nil {
		return err
	}
	defer s.end()
	ix.lookup(rts, ikey, fn)
	return nil
}

// Release drops the snapshot's GC pin and slot. Idempotent.
// After Release every read method fails with ErrFinished; versions the
// snapshot alone kept alive become reclaimable by the next sweep. Reads
// still running — a scan whose callback called Release, or a read on
// another lane — keep the pin until the last of them returns.
func (s *Snapshot) Release() {
	// A CAS loop where state.Or(1) would do: Go 1.24.0 on amd64 clobbers a
	// live register when Or's result is used, and the unpin that followed
	// saw s as 0x1.
	for {
		st := s.state.Load()
		if st&1 != 0 {
			return
		}
		if s.state.CompareAndSwap(st, st|1) {
			if st == 0 {
				s.release()
			}
			return
		}
	}
}

// scanStripe iterates the visible keys of shard stripe `stripe` of
// `stripes` at rts: the shards i with i % stripes == stripe. Each shard's
// rows are copied under its read lock into the call's one pooled
// buffer; versions are read lock-free and fn runs outside the lock.
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
