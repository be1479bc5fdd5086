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
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"sistream"
	"sistream/internal/kv"
	"sistream/internal/lsm"
	"sistream/internal/stream"
	"sistream/internal/txn"
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
			// MergeBatched(8)→Discard over mem: 9.4 allocations, 570 B
			// (10.3, 670 B at e3d23fd; 35.1, 1 812 B at a4e685f). 8 are the
			// written values' copies (Segment.Put), 1 the transaction, and
			// the rest CommitChain's verdict matrix, 2 per batch, and the
			// Done channels of the window waits that find their
			// transaction still undecided.
			name: "pipeline", unit: "8-tuple txn",
			allocs: 10, bytes: 704, pooled: true,
			measure: func(t *testing.T) (float64, float64) { return pipelineCost(t, false) },
		},
		{
			// The same with a 2-partition change feed behind the table,
			// FromTablePartitioned→Reparallelize→Merge→Sink: 10.4
			// allocations, 980–1 040 B (18.5–18.8, 990–1 030 B at
			// 0fdeef4; 62.6, 3 379 B at a4e685f). The one allocation over
			// the pipeline is the feed's copy of the committed ops. At
			// 0fdeef4 the feed cost 9.4 over it: 8 were changeTuple's
			// value copies, which went when a feed row began to share the
			// committed value; 1 the copy of the written keys, which the
			// ops copy replaced; and ≈ 0.4 rows spilling behind the
			// feed's horizon pin, which went with the pin.
			name: "pipeline+feed", unit: "8-tuple txn",
			allocs: 11, bytes: 1152, pooled: true,
			measure: func(t *testing.T) (float64, float64) { return pipelineCost(t, true) },
		},
		{
			// Punctuate(100)→Transactions→ToTable→Sink over mem, the
			// writer of ingest-mem: 103.1 allocations, 3 530 B (104.1,
			// 3 630 B at e3d23fd, whose Begin made every transaction's
			// Done channel). 100 are the written values' copies, 1 the
			// transaction and 2 CommitChain's verdict matrix. The stream
			// layer allocates nothing per element: its batches are pooled,
			// and the window wait finds the previous transaction decided.
			name: "sequential spine", unit: "100-tuple txn",
			allocs: 103.5, bytes: 3712, pooled: true,
			measure: func(t *testing.T) (float64, float64) { return spineCost(t, 1, 100) },
		},
		{
			// Punctuate(10)→Transactions(a, b)→ToTable(a)→ToTable(b)→Sink
			// over mem, the writer of mixed-index-mem: 25.05 allocations,
			// 1 000 B (26.05, 1 106 B at e3d23fd). 20 are the written
			// values' copies, the rest the transaction and its commit over
			// two states. The stream layer allocates nothing per element
			// here either.
			name: "two-state spine", unit: "10-tuple txn",
			allocs: 25.5, bytes: 1088, pooled: true,
			measure: func(t *testing.T) (float64, float64) { return spineCost(t, 2, 10) },
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
			// to Commit: 2 allocations, 288 B — the transaction and the
			// written value's copy (3, 400 B at e3d23fd, whose Begin made
			// the Done channel too). The write set's entry and mem's Apply
			// scratch are pooled.
			name: "si commit 1 row", unit: "txn",
			allocs: 2, bytes: 320, pooled: true,
			measure: func(t *testing.T) (float64, float64) { return commitCost(t, 1) },
		},
		{
			// The same rewriting 8 hot rows: 9 allocations, 457 B — one
			// value copy per row.
			name: "si commit 8 rows", unit: "txn",
			allocs: 9, bytes: 512, pooled: true,
			measure: func(t *testing.T) (float64, float64) { return commitCost(t, 8) },
		},
		{
			// One SI transaction rewriting 1 hot row, 8 times while a
			// Snapshot of the table is held and 24 times after its
			// Release, over and over: 2.06 allocations, 292 B per commit —
			// the commit's 2 and a 32nd of the Snapshot's 2 (2.16, 300 B
			// at b45c7c7, whose Snapshot made 5). The held
			// snapshot spills the row's versions to 16 slots, and 24 calm
			// commits are too few to return them inline, so the cycle
			// grows nothing; a return after 16 calm commits would grow
			// three arrays per cycle, 0.28 allocations per commit more.
			name: "hot row under a held snapshot", unit: "txn",
			allocs: 2.25, bytes: 320, pooled: true,
			measure: pinnedHotRowCost,
		},
		{
			// One SI transaction rewriting 100 cold rows of a 100 000-row
			// mem table whose keys are visited in one shuffled cycle, the
			// shape of BenchmarkCommitColdRows: 101 allocations,
			// 2 665–2 675 B — one value copy per row and the transaction.
			name: "si commit 100 cold rows", unit: "txn",
			allocs: 101, bytes: 2816, pooled: true,
			measure: coldCommitCost,
		},
		{
			// One SI transaction rewriting 10 of 1 000 rows of a mem table
			// with a bucket index (the first byte of the value), every
			// row's bucket flipping once per pass over the keys, the shape
			// of BenchmarkIndexedCommit: 11 allocations, 505 B, of the same
			// two kinds; moving a row back into a set it was a candidate
			// of allocates nothing.
			name: "indexed commit 10 rows", unit: "txn",
			allocs: 11, bytes: 576, pooled: true,
			measure: indexedCommitCost,
		},
		{
			// A Snapshot over two tables of two groups, 20 Gets (10 per
			// table) and its Release: 3 allocations, 160 B, all of them
			// Context.Snapshot's — the Snapshot, its table list and its two
			// group cuts; a Get allocates nothing (6, 376 B at b45c7c7, when
			// a snapshot built a Txn to hold its cut).
			name: "snapshot 20 gets", unit: "snapshot",
			allocs: 3, bytes: 176,
			measure: snapshotGetCost,
		},
		{
			// CreateGroup recovering one 10 000-row mem table (8-byte
			// keys, 14-byte values) into a new context, with the store's
			// Scan: 1.01 allocations, 326 B per row — the row (160 B) and
			// its share of the key and value arenas and of its shard's slot
			// array, which stay, and the loader's row list and the Scan's
			// pairs and sort positions, which go when CreateGroup returns
			// (4.03 allocations, 306 B at 59aaedf: a key, a row, a value
			// copy and a Scan key per row, shards grown by doubling).
			name: "recover 10k rows", unit: "row",
			allocs: 1.05, bytes: 344,
			measure: recoverCost,
		},
		{
			// CreateIndex backfilling a 16-bucket index over a recovered
			// 10 000-row mem table: 0.02 allocations, 56 B per row, the
			// candidate sets built whole and the grouping lists (0.03,
			// 150 B at 59aaedf, whose sets grew entry by entry).
			name: "create index over 10k rows", unit: "row",
			allocs: 0.03, bytes: 64,
			measure: createIndexCost,
		},
		{
			// Loading 2 × 100 000 new keys into an empty kv.Mem in 1 000-op
			// PutHandle batches, the shape of BenchmarkMemBulkLoad: 0.011
			// allocations, 131 B per key — the key's share of its shard's
			// entry chunks (64 B an entry), slot array and key arena
			// (2.007, 134 B at d4f1108, whose shards were Go maps of boxed
			// entries: an entry and a key string per key). Apply's
			// grouping scratch is pooled.
			name: "mem bulk load", unit: "key",
			allocs: 0.02, bytes: 144, pooled: true,
			measure: memBulkLoadCost,
		},
	}
	race := raceDetector()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			allocs, bytes := row.measure(t)
			t.Logf("%.2f allocs, %.0f B per %s (budget %g allocs, %.0f B)", allocs, bytes, row.unit, row.allocs, row.bytes)
			if row.pooled && race {
				return
			}
			if allocs > row.allocs {
				t.Errorf("%.2f allocations per %s, budget %g", allocs, row.unit, row.allocs)
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

// pinnedHotRowCost returns the allocations and bytes per SI transaction
// that rewrites one hot row of a mem table, in cycles of 8 commits under a
// held Snapshot and 24 after its Release; the Snapshot's own cost is
// spread over the cycle's commits.
func pinnedHotRowCost(t *testing.T) (allocs, bytes float64) {
	const held, calm = 8, 24
	store := sistream.NewMemStore()
	defer store.Close()
	ctx := sistream.NewContext()
	tbl, p := budgetTable(t, ctx, store, "pinned", []string{"hot"})
	value := []byte("value-of-a-hot-row")
	ops := []txn.WriteOp{{Key: "hot", Value: value}}
	allocs, bytes = perRun(500, func() {
		snap, err := ctx.Snapshot(tbl)
		if err != nil {
			t.Fatal(err)
		}
		for range held {
			commitOps(t, p, tbl, ops)
		}
		snap.Release()
		for range calm {
			commitOps(t, p, tbl, ops)
		}
	})
	return allocs / (held + calm), bytes / (held + calm)
}

// coldCommitCost returns the allocations and bytes per SI transaction that
// rewrites 100 rows of a 100 000-row mem table, taking the keys in one
// shuffled cycle so that every row is out of cache when it is written.
func coldCommitCost(t *testing.T) (allocs, bytes float64) {
	const tableRows, txnRows = 100_000, 100
	store := sistream.NewMemStore()
	defer store.Close()
	keys := make([]string, tableRows)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	tbl, p := budgetTable(t, sistream.NewContext(), store, "cold", keys)
	value := []byte("a-payload-of-some-bytes")
	ops := make([]txn.WriteOp, txnRows)
	next := 0
	return perRun(1000, func() {
		for i := range ops {
			ops[i] = txn.WriteOp{Key: keys[next], Value: value}
			next = (next + 1) % tableRows
		}
		commitOps(t, p, tbl, ops)
	})
}

// indexedCommitCost returns the allocations and bytes per SI transaction
// that rewrites 10 of 1 000 rows of a mem table with one bucket index. The
// value, and with it every row's bucket, changes once per pass over the
// keys, so each pass moves every row into the other bucket's candidates.
func indexedCommitCost(t *testing.T) (allocs, bytes float64) {
	const tableRows, txnRows = 1000, 10
	store := sistream.NewMemStore()
	defer store.Close()
	keys := make([]string, tableRows)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	tbl, p := budgetTable(t, sistream.NewContext(), store, "indexed", keys)
	bucket := func(_ string, v []byte) (string, bool) {
		if len(v) == 0 {
			return "", false
		}
		return string(v[:1]), true
	}
	if _, err := tbl.CreateIndex("bucket", bucket); err != nil {
		t.Fatal(err)
	}
	values := [2][]byte{[]byte("a-payload-of-some-bytes"), []byte("b-payload-of-some-bytes")}
	ops := make([]txn.WriteOp, txnRows)
	n := 0
	return perRun(2000, func() {
		for i := range ops {
			ops[i] = txn.WriteOp{Key: keys[(n*txnRows+i)%tableRows], Value: values[(n*txnRows/tableRows)%2]}
		}
		n++
		commitOps(t, p, tbl, ops)
	})
}

// commitOps commits ops on tbl as one SI transaction.
func commitOps(t *testing.T, p sistream.Protocol, tbl *sistream.Table, ops []txn.WriteOp) {
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.WriteBatch(tx, tbl, ops); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(tx); err != nil {
		t.Fatal(err)
	}
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

// spineCost drives txnSize-tuple transactions through the sequential
// spine Punctuate(txnSize)→Transactions→one ToTable per state→Sink over
// mem, all states in one group, and returns the allocations and bytes per
// transaction of a measured run that follows a warm-up run over the same
// keys.
func spineCost(t *testing.T, states, txnSize int) (allocs, bytes float64) {
	const (
		warmElems = 100_000
		elems     = 500_000
		keyCount  = 4096
	)
	ctx := sistream.NewContext()
	store := sistream.NewMemStore()
	defer store.Close()
	tables := make([]*sistream.Table, states)
	for i := range tables {
		tbl, err := ctx.CreateTable(sistream.StateID(fmt.Sprintf("spine%d", i)), store, sistream.TableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tbl
	}
	if _, err := ctx.CreateGroup("g", tables...); err != nil {
		t.Fatal(err)
	}
	p := sistream.NewSI(ctx)
	keys := make([]string, keyCount)
	values := make([][]byte, keyCount)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
		values[i] = []byte(fmt.Sprintf("value-%021d", i))
	}
	run := func(n int) {
		top := sistream.NewTopology("budget-spine")
		s := top.Source("gen", func(emit func(sistream.Element)) error {
			for i := range n {
				k := i % keyCount
				emit(sistream.DataElement(sistream.Tuple{Key: keys[k], Value: values[k]}))
			}
			return nil
		}).Punctuate(txnSize).Transactions(p, tables...)
		stats := make([]*stream.ToTableStats, states)
		for i, tbl := range tables {
			s, stats[i] = s.ToTable(p, tbl)
		}
		seen := 0
		s.Sink("sink", func(e sistream.Element) {
			if e.Kind == sistream.KindData {
				seen++
			}
		})
		if err := top.Run(); err != nil {
			t.Fatal(err)
		}
		if seen != n {
			t.Fatalf("sink saw %d tuples, want %d", seen, n)
		}
		if got := stats[states-1].Commits.Load(); got != int64(n/txnSize) {
			t.Fatalf("%d commits, want %d", got, n/txnSize)
		}
	}
	run(warmElems)
	mallocs, total := heapDelta(func() { run(elems) })
	txns := float64(elems / txnSize)
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

// recoveredStore commits rows rows to table "rec" of a fresh mem store
// and returns the store: what a restart recovers.
func recoveredStore(t *testing.T, rows int) sistream.Store {
	store := sistream.NewMemStore()
	keys := make([]string, rows)
	for i := range keys {
		keys[i] = fmt.Sprintf("row%05d", i)
	}
	budgetTable(t, sistream.NewContext(), store, "rec", keys)
	return store
}

// recoverTable recovers table "rec" of store in a new context.
func recoverTable(t *testing.T, store sistream.Store) *sistream.Table {
	ctx := sistream.NewContext()
	tbl, err := ctx.CreateTable("rec", store, sistream.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g-rec", tbl); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// recoverCost returns the allocations and bytes per row of recovering a
// 10 000-row mem table, CreateGroup included.
func recoverCost(t *testing.T) (allocs, bytes float64) {
	const rows, runs = 10_000, 5
	store := recoveredStore(t, rows)
	defer store.Close()
	mallocs, total := heapDelta(func() {
		for range runs {
			if tbl := recoverTable(t, store); tbl.Keys() != rows {
				t.Fatalf("recovered %d rows, want %d", tbl.Keys(), rows)
			}
		}
	})
	return float64(mallocs) / (runs * rows), float64(total) / (runs * rows)
}

// createIndexCost returns the allocations and bytes per row of
// CreateIndex over a recovered 10 000-row mem table.
func createIndexCost(t *testing.T) (allocs, bytes float64) {
	const rows, runs = 10_000, 5
	store := recoveredStore(t, rows)
	defer store.Close()
	var mallocs, total uint64
	for range runs {
		tbl := recoverTable(t, store)
		m, b := heapDelta(func() {
			ix, err := tbl.CreateIndex("bucket", func(key string, _ []byte) (string, bool) { return budgetBuckets[key[len(key)-1]%16], true })
			if err != nil || ix.ResidentPostings() != rows {
				t.Fatalf("index over %d rows: %v", rows, err)
			}
		})
		mallocs, total = mallocs+m, total+b
	}
	return float64(mallocs) / (runs * rows), float64(total) / (runs * rows)
}

var budgetBuckets = func() (out [16]string) {
	for i := range out {
		out[i] = fmt.Sprintf("b%02d", i)
	}
	return out
}()

// memBulkLoadCost returns the allocations and bytes per key of loading
// two tables of 100 000 new keys into an empty mem store in 1 000-op
// PutHandle batches.
func memBulkLoadCost(t *testing.T) (allocs, bytes float64) {
	const rows, batchOps = 100_000, 1000
	var keys [][]byte
	for _, tbl := range []string{"a", "b"} {
		for i := range rows {
			keys = append(keys, fmt.Appendf(nil, "s/%s/key%07d", tbl, (i*7919)%rows))
		}
	}
	value := make([]byte, 28)
	handles := make([]kv.Handle, len(keys))
	batch := kv.NewBatch(batchOps)
	var s *kv.Mem
	mallocs, total := heapDelta(func() {
		s = kv.NewMem()
		for lo := 0; lo < len(keys); lo += batchOps {
			batch.Reset()
			for k := lo; k < lo+batchOps; k++ {
				batch.PutHandle(keys[k], value, &handles[k])
			}
			if err := s.Apply(batch, false); err != nil {
				t.Fatal(err)
			}
		}
	})
	defer s.Close()
	if n, err := kv.Len(s); err != nil || n != len(keys) {
		t.Fatalf("store holds %d keys (%v), want %d", n, err, len(keys))
	}
	return float64(mallocs) / float64(len(keys)), float64(total) / float64(len(keys))
}
