package txn

import (
	"fmt"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/mvcc"
)

// hammerKey commits n sequential single-key blind writes through p.
func hammerKey(t *testing.T, p Protocol, tbl *Table, key string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(tx, tbl, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGCSweeperReclaimsDeadVersions: while a snapshot is held, Install
// reclaims none of an overwritten key's versions, so the key keeps every
// one of them; once the snapshot is released and the key is no longer
// written, they stay until a caller sweeps, and one Table.GC reclaims
// them all, and reports it.
func TestGCSweeperReclaimsDeadVersions(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("swept", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	hammerKey(t, p, tbl, "hot", 1)
	snap, err := ctx.Snapshot(tbl)
	if err != nil {
		t.Fatal(err)
	}
	hammerKey(t, p, tbl, "hot", 99)
	snap.Release()

	if rv := tbl.ResidentVersions(); rv != 100 {
		t.Fatalf("resident versions = %d before any sweep, want 100 (the snapshot held them all)", rv)
	}
	if n := tbl.GC(); n != 99 {
		t.Fatalf("GC reclaimed %d slots, want 99", n)
	}
	if rv := tbl.ResidentVersions(); rv != 1 {
		t.Fatalf("resident versions = %d after GC, want 1", rv)
	}
	if n := tbl.GC(); n != 0 {
		t.Fatalf("a second GC reclaimed %d slots, want 0", n)
	}
}

// TestInstallBoundsResidentVersionsWithoutSweep pins what the default
// path bounds with no sweep at all — the property that lets reclamation
// be Install's on demand and Table.GC's only on request: one writer
// rewriting every key of a table a thousand times, with no snapshot held
// and no GC call, leaves at most two versions per key, and every row
// still in its inline slots.
func TestInstallBoundsResidentVersionsWithoutSweep(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("rows", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	const keys, rounds = 64, 1000
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	for r := 0; r < rounds; r++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < keys; i++ {
			if err := p.Write(tx, tbl, key(i), []byte(fmt.Sprintf("v%d", r))); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	if rv := tbl.ResidentVersions(); rv > 2*keys {
		t.Fatalf("resident versions = %d after %d unswept rounds, want <= %d", rv, rounds, 2*keys)
	}
	for i := 0; i < keys; i++ {
		if c := objectOf(tbl, key(i), false).Capacity(); c != mvcc.DefaultSlots {
			t.Fatalf("%s holds %d slots, want its %d inline ones", key(i), c, mvcc.DefaultSlots)
		}
	}
}

// TestGCLaggingFeedDeliversCommittedValues: a partitioned feed whose
// consumer stalls while one hot key is rewritten, with a Table.GC after
// every commit, still delivers every commit's own value once drained —
// the event carries what the commit installed, so no sweep can take it
// away.
func TestGCLaggingFeedDeliversCommittedValues(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("pinned", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)

	const parts, commits = 2, 60
	feed, err := tbl.WatchPartitioned(parts, commits+8, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The stalled phase: commit many updates of one hot key while no
	// consumer drains the feed.
	var wantCTS []Timestamp
	for i := 0; i < commits; i++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(tx, tbl, "hot", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(tx); err != nil {
			t.Fatal(err)
		}
		wantCTS = append(wantCTS, tbl.Group().LastCTS())
		tbl.GC()
	}

	// Drain: every event carries exactly the value its commit installed.
	feed.Stop()
	for part, events := range feed.Partitions() {
		n := 0
		for ev := range events {
			if ev.CTS != wantCTS[n] {
				t.Fatalf("partition %d event %d: cts %d want %d", part, n, ev.CTS, wantCTS[n])
			}
			for _, c := range ev.Changes {
				if c.Key != "hot" || c.Delete || string(c.Value) != fmt.Sprintf("v%d", n) {
					t.Fatalf("commit %d delivered %+v, want hot=v%d", n, c, n)
				}
			}
			n++
		}
		if n != commits {
			t.Fatalf("partition %d drained %d events, want %d", part, n, commits)
		}
	}
}

// TestGCUnderStalledFeedReclaimsAsWithoutFeed: a feed whose consumer
// stalls holds back no reclamation. Two tables take the same rewrites of
// one hot key, one with a stalled partitioned feed and one without, and a
// Table.GC after every commit leaves each with exactly one resident
// version.
func TestGCUnderStalledFeedReclaimsAsWithoutFeed(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	var tbls [2]*Table
	for i, id := range []StateID{"fed", "bare"} {
		tbl, err := ctx.CreateTable(id, store, TableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.CreateGroup(GroupID(id), tbl); err != nil {
			t.Fatal(err)
		}
		tbls[i] = tbl
	}
	const commits = 60
	feed, err := tbls[0].WatchPartitioned(2, commits+8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Stop()
	p := NewSI(ctx)
	for i := 0; i < commits; i++ {
		for _, tbl := range tbls {
			hammerKey(t, p, tbl, "hot", 1)
			tbl.GC()
		}
		for _, tbl := range tbls {
			if rv := tbl.ResidentVersions(); rv != 1 {
				t.Fatalf("commit %d: %s holds %d resident versions after GC, want 1 (a stalled feed must not hold the horizon)", i, tbl.ID(), rv)
			}
		}
	}
}
