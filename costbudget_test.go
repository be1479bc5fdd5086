package sistream_test

// Cost budgets: what one unit of steady-state work may allocate. Each row
// measures a fixed shape of work — a transaction through a pipeline, a
// table iteration — with a runtime.MemStats delta and fails when it
// exceeds its budget. A budget is the value measured when the row was
// set, rounded up a little for noise; a change that lowers the cost
// lowers the budget with it, and no budget is ever raised.
//
// Under the race detector sync.Pool drops a share of what is put back, so
// pooled batches are allocated again and the pipeline rows measure the
// detector rather than the engine: there they still run, with their
// correctness checks, but their budgets are not held.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"sistream"
	"sistream/internal/kv"
	"sistream/internal/lsm"
)

// costBudget is one row: measure runs the work and returns the objects
// and bytes it allocated per unit. pooled marks rows whose budget rests on
// sync.Pool reuse, which the race detector defeats.
type costBudget struct {
	name          string
	unit          string
	allocs, bytes float64
	pooled        bool
	measure       func(t *testing.T) (allocs, bytes float64)
}

// TestCostBudgets runs the cost budget rows.
func TestCostBudgets(t *testing.T) {
	rows := []costBudget{
		{
			// Punctuate(8)→TransactionsWindow(8)→Parallelize(2)→ToTable→
			// MergeBatched(8)→Discard over mem: 10.3 allocations, 670 B
			// (35.1, 1 812 B at a4e685f). 8 are the written values' copies
			// (Segment.Put), 2 the transaction and its Done channel, and
			// the rest CommitChain's verdict matrix, 2 per batch.
			name: "pipeline", unit: "8-tuple txn",
			allocs: 11, bytes: 800, pooled: true,
			measure: func(t *testing.T) (float64, float64) { return pipelineCost(t, false) },
		},
		{
			// The same with a 2-partition change feed behind the table,
			// FromTablePartitioned→Reparallelize→Merge→Sink: 19.4–20.0
			// allocations, 1 070–1 130 B (62.6, 3 379 B at a4e685f); the
			// spread is the batch size the spine achieves. Another 8 are the
			// feed rows' value copies (changeTuple), 1 the feed's copy of the
			// written keys.
			name: "pipeline+feed", unit: "8-tuple txn",
			allocs: 21, bytes: 1250, pooled: true,
			measure: func(t *testing.T) (float64, float64) { return pipelineCost(t, true) },
		},
		{
			// A full Scan of one 64-block SSTable reads every block into
			// the table iterator's one buffer: 12 allocations, 1.7 KB (72,
			// 70 KB — one buffer per block — at a4e685f).
			name: "sstable scan", unit: "64-block table",
			allocs: 24, bytes: 16 << 10,
			measure: sstableScanCost,
		},
		{
			// One SI transaction rewriting 1 hot row of a mem table, Begin
			// to Commit: 3 allocations, 400 B — the transaction and its
			// Done channel (begin) and the written value's copy. The write
			// set's entry and mem's Apply scratch are pooled.
			name: "si commit 1 row", unit: "txn",
			allocs: 3, bytes: 448, pooled: true,
			measure: func(t *testing.T) (float64, float64) { return commitCost(t, 1) },
		},
		{
			// The same rewriting 8 hot rows: 10 allocations, 568 B — one
			// value copy per row.
			name: "si commit 8 rows", unit: "txn",
			allocs: 10, bytes: 640, pooled: true,
			measure: func(t *testing.T) (float64, float64) { return commitCost(t, 8) },
		},
		{
			// A Snapshot over two tables of two groups, 20 Gets (10 per
			// table) and its Release: 7 allocations, 488 B, all of them
			// Context.Snapshot's; a Get allocates nothing.
			name: "snapshot 20 gets", unit: "snapshot",
			allocs: 7, bytes: 512,
			measure: snapshotGetCost,
		},
	}
	race := raceDetector()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			allocs, bytes := row.measure(t)
			t.Logf("%.2f allocs, %.0f B per %s (budget %.0f allocs, %.0f B)", allocs, bytes, row.unit, row.allocs, row.bytes)
			if row.pooled && race {
				return
			}
			if allocs > row.allocs {
				t.Errorf("%.2f allocations per %s, budget %.0f", allocs, row.unit, row.allocs)
			}
			if bytes > row.bytes {
				t.Errorf("%.0f bytes per %s, budget %.0f", bytes, row.unit, row.bytes)
			}
		})
	}
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// heapDelta runs fn and returns the objects and bytes allocated meanwhile,
// by every goroutine of the process.
func heapDelta(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// perRun returns fn's allocations per call by testing.AllocsPerRun and
// its bytes per call by a heapDelta over as many calls.
func perRun(runs int, fn func()) (allocs, bytes float64) {
	allocs = testing.AllocsPerRun(runs, fn)
	_, total := heapDelta(func() {
		for range runs {
			fn()
		}
	})
	return allocs, float64(total) / float64(runs)
}

// budgetTable creates table id in a group of its own on ctx over store,
// commits one row per key, and returns the table and an SI protocol.
func budgetTable(t *testing.T, ctx *sistream.Context, store sistream.Store, id string, keys []string) (*sistream.Table, sistream.Protocol) {
	tbl, err := ctx.CreateTable(sistream.StateID(id), store, sistream.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup(sistream.GroupID("g-"+id), tbl); err != nil {
		t.Fatal(err)
	}
	p := sistream.NewSI(ctx)
	tx, _ := p.Begin()
	for _, k := range keys {
		if err := p.Write(tx, tbl, k, []byte("value-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Commit(tx); err != nil {
		t.Fatal(err)
	}
	return tbl, p
}

// commitCost returns the allocations and bytes per SI transaction that
// rewrites the same rows hot rows of a mem table.
func commitCost(t *testing.T, rows int) (allocs, bytes float64) {
	store := sistream.NewMemStore()
	defer store.Close()
	keys := make([]string, rows)
	for i := range keys {
		keys[i] = fmt.Sprintf("hot%02d", i)
	}
	tbl, p := budgetTable(t, sistream.NewContext(), store, "hot", keys)
	value := []byte("value-of-a-hot-row")
	return perRun(2000, func() {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := p.Write(tx, tbl, k, value); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Commit(tx); err != nil {
			t.Fatal(err)
		}
	})
}

// snapshotGetCost returns the allocations and bytes of a Snapshot over two
// tables in two groups, 10 Gets on each and the Release.
func snapshotGetCost(t *testing.T) (allocs, bytes float64) {
	store := sistream.NewMemStore()
	defer store.Close()
	keys := make([]string, 10)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	ctx := sistream.NewContext()
	a, _ := budgetTable(t, ctx, store, "a", keys)
	b, _ := budgetTable(t, ctx, store, "b", keys)
	tables := []*sistream.Table{a, b}
	return perRun(2000, func() {
		snap, err := ctx.Snapshot(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			for _, tbl := range tables {
				if _, found, err := snap.Get(tbl, k); err != nil || !found {
					t.Fatalf("Get(%s) = %v, %v", k, found, err)
				}
			}
		}
		snap.Release()
	})
}

// pipelineCost drives 8-tuple transactions through the 2-lane ingest
// pipeline over mem — with a 2-partition feed and downstream lanes when
// feed is set — and returns the allocations per transaction of a measured
// run that follows a warm-up run over the same keys.
func pipelineCost(t *testing.T, feed bool) (allocs, bytes float64) {
	const (
		txnSize  = 8
		warmTxns = 4_000
		txns     = 20_000
		keyCount = 4096
	)
	ctx := sistream.NewContext()
	store := sistream.NewMemStore()
	defer store.Close()
	tbl, err := ctx.CreateTable("budget", store, sistream.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := sistream.NewSI(ctx)
	keys := make([]string, keyCount)
	values := make([][]byte, keyCount)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
		values[i] = []byte(fmt.Sprintf("value-%021d", i))
	}

	// The feed runs across both ingest runs; each run counts only once the
	// feed has delivered all of its rows.
	var rows atomic.Int64
	var feedTop *sistream.Topology
	stopFeed := func() {}
	if feed {
		feedTop = sistream.NewTopology("budget-feed")
		region, stop := sistream.FromTablePartitioned(feedTop, tbl, 2, nil)
		stopFeed = stop
		region.Reparallelize("repart", 2, nil).Merge("downmerge").Sink("sink", func(e sistream.Element) {
			if e.Kind == sistream.KindData {
				rows.Add(1)
			}
		})
		feedTop.Start()
	}
	delivered := 0
	run := func(n int) {
		top := sistream.NewTopology("budget-ingest")
		region := top.Source("gen", func(emit func(sistream.Element)) error {
			for i := 0; i < n*txnSize; i++ {
				k := i % keyCount
				emit(sistream.DataElement(sistream.Tuple{Key: keys[k], Value: values[k]}))
			}
			return nil
		}).Punctuate(txnSize).TransactionsWindow(p, 8).Parallelize(2, nil)
		stats := region.ToTable(p, tbl)
		region.MergeBatched("merge", 8).Discard()
		if err := top.Run(); err != nil {
			t.Fatal(err)
		}
		if got := stats.Commits.Load(); got != int64(n) {
			t.Fatalf("%d commits, want %d", got, n)
		}
		if !feed {
			return
		}
		delivered += n * txnSize
		for deadline := time.Now().Add(time.Minute); rows.Load() < int64(delivered); {
			if time.Now().After(deadline) {
				t.Fatalf("feed delivered %d rows, want %d", rows.Load(), delivered)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	run(warmTxns)
	mallocs, total := heapDelta(func() { run(txns) })
	stopFeed()
	if feed {
		if err := feedTop.Wait(); err != nil {
			t.Fatal(err)
		}
		if got := rows.Load(); got != int64(delivered) {
			t.Fatalf("feed delivered %d rows, want %d", got, delivered)
		}
	}
	return float64(mallocs) / txns, float64(total) / txns
}

// sstableScanCost writes one SSTable of 64 data blocks and returns what a
// full Scan of it allocates.
func sstableScanCost(t *testing.T) (allocs, bytes float64) {
	const (
		blockBytes = 1024
		rowBytes   = 64 // key + value + entry header, near enough
		rows       = 64 * blockBytes / rowBytes
	)
	db, err := lsm.Open(t.TempDir(), lsm.Options{BlockBytes: blockBytes, BlockCacheBlocks: -1, DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	b := kv.NewBatch(rows)
	for i := 0; i < rows; i++ {
		b.Put([]byte(fmt.Sprintf("key%08d", i)), []byte(fmt.Sprintf("value-%043d", i)))
	}
	if err := db.Apply(b, false); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var seen int
	mallocs, total := heapDelta(func() {
		err = db.Scan(nil, nil, func(_, _ []byte) bool { seen++; return true })
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != rows {
		t.Fatalf("scan saw %d rows, want %d", seen, rows)
	}
	return float64(mallocs), float64(total)
}
