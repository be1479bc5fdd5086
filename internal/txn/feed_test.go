package txn

import (
	"fmt"
	"testing"
	"time"

	"sistream/internal/kv"
)

// feedEnv is a one-table group over a mem store with the SI protocol.
func feedEnv(t *testing.T) (*Context, Protocol, *Table) {
	t.Helper()
	ctx := NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("feed", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	return ctx, NewSI(ctx), tbl
}

// TestWatchPartitionedFanOut pins the fan-out contract: every commit that
// wrote the table produces exactly one event per partition, in commit
// order, with the write-set keys split disjointly by hash and per-key
// order preserved; untouched partitions receive the event with no keys.
func TestWatchPartitionedFanOut(t *testing.T) {
	_, p, tbl := feedEnv(t)
	const parts = 3
	const commits, keysPerCommit = 20, 5
	// The buffer must hold every commit: this test drains the feed only
	// after all commits are done, and an undersized feed would (by
	// design) backpressure the commit path into a deadlock here.
	feed, err := tbl.WatchPartitioned(parts, 2*commits, nil)
	if err != nil {
		t.Fatal(err)
	}
	feeds, stop := feed.Partitions(), feed.Stop

	var wantCTS []Timestamp
	for c := 0; c < commits; c++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < keysPerCommit; k++ {
			key := fmt.Sprintf("k%d", (c+k)%7)
			if err := p.Write(tx, tbl, key, []byte(fmt.Sprintf("v%d.%d", c, k))); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Commit(tx); err != nil {
			t.Fatal(err)
		}
		wantCTS = append(wantCTS, tbl.Group().LastCTS())
	}
	stop()

	partOf := map[string]int{}
	for i := 0; i < parts; i++ {
		n := 0
		var perPart [][]string
		for ev := range feeds[i] {
			if ev.CTS != wantCTS[n] {
				t.Fatalf("partition %d event %d: cts=%d want %d", i, n, ev.CTS, wantCTS[n])
			}
			perPart = append(perPart, ev.Keys)
			for _, k := range ev.Keys {
				if owner, seen := partOf[k]; seen && owner != i {
					t.Fatalf("key %q delivered to partitions %d and %d", k, owner, i)
				}
				partOf[k] = i
			}
			n++
		}
		if n != commits {
			t.Fatalf("partition %d: %d events, want %d (every commit on every partition)", i, n, commits)
		}
	}
	if len(partOf) != 7 {
		t.Fatalf("%d distinct keys seen, want 7", len(partOf))
	}
}

// TestWatchPartitionedStopDrain: commits queued before stop are still
// delivered afterwards; commits after stop are dropped; channels close.
func TestWatchPartitionedStopDrain(t *testing.T) {
	_, p, tbl := feedEnv(t)
	feed, err := tbl.WatchPartitioned(2, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	feeds, stop := feed.Partitions(), feed.Stop
	commit := func(key string) {
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
	commit("a")
	commit("b")
	stop()
	stop() // idempotent
	commit("c")

	for i := 0; i < 2; i++ {
		total := 0
		events := 0
		for ev := range feeds[i] {
			events++
			total += len(ev.Keys)
			for _, k := range ev.Keys {
				if k == "c" {
					t.Fatal("post-stop commit leaked into the feed")
				}
			}
		}
		// The two pre-stop commits may or may not have been routed before
		// stop closed; drain semantics guarantee they were (queued before
		// stop returned), so both events must arrive.
		if events != 2 {
			t.Fatalf("partition %d: %d events after drain, want 2", i, events)
		}
		_ = total
	}
}

// TestWatchPartitionedStopUnblocksBackpressuredCommit: with a stalled
// consumer and a tiny buffer, a committing watcher eventually blocks on
// the feed (the documented backpressure). Stop must still return
// promptly, release the blocked commit, and leave no commit pinned into
// the GC horizon once the drained events are acknowledged — a commit
// abandoned by stop unpins itself.
func TestWatchPartitionedStopUnblocksBackpressuredCommit(t *testing.T) {
	_, p, tbl := feedEnv(t)
	feed, err := tbl.WatchPartitioned(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const commits = 10
	writerDone := make(chan error, 1)
	go func() {
		for i := 0; i < commits; i++ {
			tx, err := p.Begin()
			if err != nil {
				writerDone <- err
				return
			}
			if err := p.Write(tx, tbl, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				writerDone <- err
				return
			}
			if err := p.Commit(tx); err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()
	// Let the writer run into the backpressure wall (buffer 1, nobody
	// consuming), then stop the feed.
	time.Sleep(30 * time.Millisecond)
	stopped := make(chan struct{})
	go func() {
		feed.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop deadlocked against a backpressured commit watcher")
	}
	select {
	case err := <-writerDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("committer still blocked after Stop")
	}
	// Drain and acknowledge whatever was delivered; afterwards nothing
	// may remain pinned (undelivered commits unpinned themselves).
	n := 0
	for range feed.Partitions()[0] {
		feed.Ack(0)
		n++
	}
	if n > commits {
		t.Fatalf("drained %d events of %d commits", n, commits)
	}
	if pinned := feed.PinnedCTS(); pinned != 0 {
		t.Fatalf("stopped+drained feed still pins cts %d", pinned)
	}
}

// TestWatchPartitionedValidation: bad partition counts and tables outside
// any group are rejected.
func TestWatchPartitionedValidation(t *testing.T) {
	ctx, _, tbl := feedEnv(t)
	if _, err := tbl.WatchPartitioned(0, 0, nil); err == nil {
		t.Fatal("parts=0 accepted")
	}
	orphan, err := ctx.CreateTable("orphan", ctx.store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orphan.WatchPartitioned(2, 0, nil); err == nil {
		t.Fatal("group-less table accepted")
	}
}
