package txn

import (
	"fmt"
	"testing"
	"time"

	"sistream/internal/kv"
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

// TestGCSweeperReclaimsDeadVersions: with the opt-in threshold sweeper, a
// read-mostly overwritten key does not retain dead versions until its
// array fills — the retiring group-commit leader sweeps every
// GCEveryCommits commits, and the counters report it.
func TestGCSweeperReclaimsDeadVersions(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	// VersionSlots far above the write count: Install-time lazy GC (which
	// only fires on a full array) never runs, isolating the sweeper.
	tbl, err := ctx.CreateTable("swept", store, TableOptions{
		VersionSlots:   256,
		GCEveryCommits: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	hammerKey(t, p, tbl, "hot", 100)

	stats := tbl.GCStats()
	if stats.Runs == 0 {
		t.Fatal("sweeper never ran despite GCEveryCommits=10 over 100 commits")
	}
	if stats.ReclaimedSlots == 0 {
		t.Fatal("sweeper ran but reclaimed nothing")
	}
	if stats.SweptShards == 0 {
		t.Fatal("sweeper reported no swept shards")
	}
	// Incremental sweeps: threshold-driven slices must visit fewer shards
	// per run than a whole-table scan.
	if perRun := stats.SweptShards / stats.Runs; perRun >= tableShards {
		t.Fatalf("per-sweep shard count %d, want < %d (incremental slices)", perRun, tableShards)
	}
	// 100 installs, one live version; the sweeper bounds residency to at
	// most one threshold interval of dead versions.
	if rv := tbl.ResidentVersions(); rv > 11 {
		t.Fatalf("resident versions = %d after sweeps, want <= 11", rv)
	}
}

// TestGCFeedPinProtectsLaggingFeed is the regression for the GC vs. feed
// ReadAt race: a partitioned feed reads rows at HISTORICAL commit
// snapshots, and with GCEveryCommits=1 every retiring leader sweeps —
// so without the feed's horizon pin, the versions a stalled consumer
// still needs would be reclaimed and the drain would report wrong
// values. The feed's oldest undelivered CTS must pin the horizon while
// the consumer stalls, every drained event must read exactly the value
// its commit installed, and once drained and acknowledged the pin must
// release and the sweeper reclaim.
func TestGCFeedPinProtectsLaggingFeed(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("pinned", store, TableOptions{
		VersionSlots:   256,
		GCEveryCommits: 1, // most aggressive threshold sweeping
	})
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
	}
	if pinned := feed.PinnedCTS(); pinned == 0 || pinned > wantCTS[0] {
		t.Fatalf("stalled feed pins %d, want <= first undelivered cts %d (and non-zero)", pinned, wantCTS[0])
	}
	if stats := tbl.GCStats(); stats.Runs == 0 {
		t.Fatal("sweeper never ran (test needs active sweeping to prove the pin)")
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

// TestGCIdleSweeperReclaimsAfterQuiesce is the regression for the
// idle-table leak: threshold sweeps only run on retiring commit leaders,
// so a table whose writer stops after a burst retains every dead version
// until the NEXT commit — which may never come. With GCIdleInterval set,
// the background sweeper must detect the stall and reclaim without any
// further commit; and once reclaimed, a permanently idle table must not
// be rescanned (no unreclaimed commits remain).
func TestGCIdleSweeperReclaimsAfterQuiesce(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	const idle = 10 * time.Millisecond
	// GCEveryCommits stays 0 and VersionSlots exceeds the write count:
	// neither the threshold sweeper nor Install-time lazy GC can reclaim,
	// isolating the idle trigger.
	tbl, err := ctx.CreateTable("idle", store, TableOptions{
		VersionSlots:   256,
		GCIdleInterval: idle,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	defer tbl.StopIdleGC()
	p := NewSI(ctx)
	hammerKey(t, p, tbl, "hot", 100)

	// The burst is over; within about two intervals the idle sweeper must
	// fire a full sweep and collapse residency to the one live version.
	deadline := time.Now().Add(100 * idle)
	for tbl.ResidentVersions() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("resident versions = %d long after quiesce, want 1 (idle sweeper never fired)", tbl.ResidentVersions())
		}
		time.Sleep(idle / 2)
	}
	runsAfterSweep := tbl.GCStats().Runs
	if runsAfterSweep == 0 {
		t.Fatal("residency collapsed but no sweep was recorded")
	}

	// Idle steady state: with nothing newly committed, the ticker must not
	// keep burning full-table scans.
	time.Sleep(5 * idle)
	if runs := tbl.GCStats().Runs; runs != runsAfterSweep {
		t.Fatalf("idle sweeper kept running on a reclaimed table: %d runs, want %d", runs, runsAfterSweep)
	}

	// StopIdleGC is idempotent and ends the goroutine: a fresh burst after
	// stopping must leak (proving the loop is gone, not just idle).
	tbl.StopIdleGC()
	tbl.StopIdleGC()
	hammerKey(t, p, tbl, "hot", 50)
	time.Sleep(5 * idle)
	// The surviving pre-burst version plus 50 fresh installs, all retained.
	if rv := tbl.ResidentVersions(); rv != 51 {
		t.Fatalf("resident versions = %d after StopIdleGC burst, want 51 (stopped sweeper must not reclaim)", rv)
	}
}

// TestGCSweeperDisabledRetainsVersions is the control: without the
// sweeper (and with a version array large enough that lazy GC never
// fires), every dead version stays resident — the leak the sweeper fixes.
func TestGCSweeperDisabledRetainsVersions(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("unswept", store, TableOptions{VersionSlots: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	hammerKey(t, p, tbl, "hot", 100)

	if stats := tbl.GCStats(); stats.Runs != 0 {
		t.Fatalf("sweeper ran %d times with GCEveryCommits=0", stats.Runs)
	}
	if rv := tbl.ResidentVersions(); rv != 100 {
		t.Fatalf("resident versions = %d, want 100 (all versions retained without the sweeper)", rv)
	}
}
