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

// TestGCSweeperReclaimsDeadVersions: with a version array far larger
// than the write count, Install always finds a free slot and reclaims
// nothing, so a read-mostly overwritten key keeps every dead version until
// a caller sweeps; one Table.GC then reclaims them all, and reports it.
func TestGCSweeperReclaimsDeadVersions(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("swept", store, TableOptions{VersionSlots: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	hammerKey(t, p, tbl, "hot", 100)

	if rv := tbl.ResidentVersions(); rv != 100 {
		t.Fatalf("resident versions = %d before any sweep, want 100 (Install reclaims only a full array)", rv)
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

// TestGCFeedPinProtectsLaggingFeed is the regression for the GC vs. feed
// ReadAt race: a partitioned feed reads rows at HISTORICAL commit
// snapshots, and the committing goroutine sweeps (Table.GC) after every
// commit — so without the feed's horizon pin, the versions a stalled
// consumer still needs would be reclaimed and the drain would report
// wrong values. The feed's oldest undelivered CTS must pin the horizon
// while the consumer stalls, every drained event must read exactly the
// value its commit installed, and once drained and acknowledged the pin
// must release and a sweep reclaim.
func TestGCFeedPinProtectsLaggingFeed(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("pinned", store, TableOptions{VersionSlots: 256})
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
	if pinned := feed.PinnedCTS(); pinned == 0 || pinned > wantCTS[0] {
		t.Fatalf("stalled feed pins %d, want <= first undelivered cts %d (and non-zero)", pinned, wantCTS[0])
	}
	// The hot key's dead versions are above the pinned horizon: retained.
	if rv := tbl.ResidentVersions(); rv != commits {
		t.Fatalf("resident versions = %d during the stall, want %d (pin must block reclamation)", rv, commits)
	}

	// Drain: every event's rows must read exactly as its commit installed
	// them, at the commit's own snapshot.
	feed.Stop()
	for part, events := range feed.Partitions() {
		n := 0
		for ev := range events {
			if ev.CTS != wantCTS[n] {
				t.Fatalf("partition %d event %d: cts %d want %d", part, n, ev.CTS, wantCTS[n])
			}
			for _, k := range ev.Keys {
				v, ok := tbl.ReadAt(k, ev.CTS)
				if !ok || string(v) != fmt.Sprintf("v%d", n) {
					t.Fatalf("commit %d: ReadAt(%q) = %q (ok=%t), want v%d — historical version reclaimed under the pin", n, k, v, ok, n)
				}
			}
			feed.Ack(part)
			n++
		}
		if n != commits {
			t.Fatalf("partition %d drained %d events, want %d", part, n, commits)
		}
	}
	if pinned := feed.PinnedCTS(); pinned != 0 {
		t.Fatalf("drained+acked feed still pins %d", pinned)
	}
	// With the pin gone, reclamation proceeds.
	tbl.GC()
	if rv := tbl.ResidentVersions(); rv != 1 {
		t.Fatalf("resident versions = %d after unpinned GC, want 1", rv)
	}
}
