package txn

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sistream/internal/kv"
)

// TestSnapshotBasics pins the Snapshot API contract: coverage gating,
// consistent Get/Scan, stripe partitioning, and idempotent release.
func TestSnapshotBasics(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	write(t, p, e.t1, "a", "1", "b", "2", "c", "3")
	write(t, p, e.t2, "x", "9")

	snap, err := e.ctx.Snapshot(e.t1)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := snap.Get(e.t1, "a"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q %v %v, want 1", v, ok, err)
	}
	// t2 was not declared: every accessor must refuse it.
	if _, _, err := snap.Get(e.t2, "x"); err == nil {
		t.Fatal("Get on undeclared table succeeded")
	}
	if err := snap.Scan(e.t2, func(string, []byte) bool { return true }); err == nil {
		t.Fatal("Scan on undeclared table succeeded")
	}

	// A commit AFTER the pin must stay invisible to the snapshot.
	write(t, p, e.t1, "d", "4", "a", "10")
	seen := map[string]string{}
	if err := snap.Scan(e.t1, func(k string, v []byte) bool {
		seen[k] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen["a"] != "1" {
		t.Fatalf("snapshot scan saw %v, want the 3 pre-pin rows with a=1", seen)
	}

	// Stripes partition: union over stripes == full scan, no overlap.
	union := map[string]bool{}
	for stripe := 0; stripe < 4; stripe++ {
		if err := snap.ScanStripe(e.t1, stripe, 4, func(k string, _ []byte) bool {
			if union[k] {
				t.Fatalf("key %s seen in two stripes", k)
			}
			union[k] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(union) != 3 {
		t.Fatalf("stripe union has %d keys, want 3", len(union))
	}
	if err := snap.ScanStripe(e.t1, 4, 4, nil); err == nil {
		t.Fatal("out-of-range stripe accepted")
	}

	snap.Release()
	snap.Release() // idempotent
	if _, _, err := snap.Get(e.t1, "a"); err != ErrFinished {
		t.Fatalf("Get after Release = %v, want ErrFinished", err)
	}
}

// TestSnapshotLeavesTheClock pins that a Snapshot reads the commit clock
// without ticking it: a snapshot writes, locks and validates nothing, so
// the commit timestamps of a topology must not depend on how many ad-hoc
// queries ran beside it. A commit watcher that takes and releases a
// Snapshot on every commit must leave every commit timestamp of a script
// as it is without the snapshots.
func TestSnapshotLeavesTheClock(t *testing.T) {
	e := newEnv(t)
	write(t, NewSI(e.ctx), e.t1, "a", "1")
	before := e.ctx.Now()
	snap, err := e.ctx.Snapshot(e.t1, e.t2)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if after := e.ctx.Now(); after != before {
		t.Errorf("Snapshot + Release moved the clock from %d to %d", before, after)
	}

	run := func(snapshotPerCommit bool) []Timestamp {
		e := newEnv(t)
		var ctss []Timestamp
		e.group.Watch(func(cts Timestamp, _ map[StateID][]string) {
			ctss = append(ctss, cts)
			if !snapshotPerCommit {
				return
			}
			snap, err := e.ctx.Snapshot(e.t1, e.t2)
			if err != nil {
				t.Error(err)
				return
			}
			snap.Release()
		})
		p := NewSI(e.ctx)
		for i := 0; i < 20; i++ {
			write(t, p, e.t1, fmt.Sprintf("k%d", i%5), fmt.Sprint(i))
			if i%3 == 0 {
				write(t, p, e.t1, "x", fmt.Sprint(i), "y", fmt.Sprint(i))
				write(t, p, e.t2, "z", fmt.Sprint(i))
			}
		}
		return ctss
	}
	plain, watched := run(false), run(true)
	if !slices.Equal(plain, watched) {
		t.Errorf("a Snapshot per commit shifted the commit timestamps:\n without %v\n with    %v", plain, watched)
	}
}

// TestSnapshotAcrossGroupsReadsEachGroupAtItsCut: a snapshot over two
// groups reads each group at that group's own LastCTS. Read at the older
// group's cut instead, b's key would be looked for below versions that
// later rewrites have already overwritten in place, and would read absent.
func TestSnapshotAcrossGroupsReadsEachGroupAtItsCut(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	a, _ := ctx.CreateTable("a", store, TableOptions{})
	b, _ := ctx.CreateTable("b", store, TableOptions{})
	if _, err := ctx.CreateGroup("ga", a); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("gb", b); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	write(t, p, b, "k", "b1")
	write(t, p, a, "x", "a1")
	for i := 2; i <= 5; i++ {
		write(t, p, b, "k", fmt.Sprintf("b%d", i))
	}

	snap, err := ctx.Snapshot(a, b)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if v, ok, err := snap.Get(a, "x"); err != nil || !ok || string(v) != "a1" {
		t.Fatalf("a:x = %q %v %v, want a1", v, ok, err)
	}
	if v, ok, err := snap.Get(b, "k"); err != nil || !ok || string(v) != "b5" {
		t.Fatalf("b:k = %q %v %v at cut %d, want b5 (gb at %d)", v, ok, err, snap.CTS(), b.Group().LastCTS())
	}
}

// TestStressSnapshotNoPartialTxn hammers multi-table snapshots against
// concurrent writers: every writer transaction writes the SAME value to
// both tables, so any snapshot — point reads or a lane-parallel scan —
// observing two different values has seen a partial transaction. Run
// under -race (CI does); skipped with -short.
func TestStressSnapshotNoPartialTxn(t *testing.T) {
	if testing.Short() {
		t.Skip("stress hammer skipped in -short mode")
	}
	e := newEnv(t)
	p := NewSI(e.ctx)
	const pairs = 16
	key := func(i int) string { return fmt.Sprintf("pair%02d", i) }
	for i := 0; i < pairs; i++ {
		write(t, p, e.t1, key(i), "0")
		write(t, p, e.t2, key(i), "0")
	}

	h := newHammer(t)
	workers := stressWorkers()
	writers := workers / 4
	if writers < 2 {
		writers = 2
	}

	// Writers: pick a pair, bump it in BOTH tables within one transaction.
	for w := 0; w < writers; w++ {
		rng := newRand(int64(w))
		h.spawn(1, func(int) bool {
			tx, err := p.Begin()
			if err != nil {
				h.t.Error(err)
				return false
			}
			k := key(rng.Intn(pairs))
			v, _, err := p.Read(tx, e.t1, k)
			if err != nil {
				h.t.Error(err)
				return false
			}
			next := encodeU64(decodeU64(v) + 1)
			if p.Write(tx, e.t1, k, next) != nil || p.Write(tx, e.t2, k, next) != nil {
				h.t.Error("buffered write failed")
				return false
			}
			if err := p.Commit(tx); err != nil && !IsAbort(err) {
				h.t.Error(err)
				return false
			}
			return true
		})
	}

	// Point readers: one multi-table snapshot, Get the pair from both
	// tables — values must match exactly.
	h.spawn(workers/2, func(id int) bool {
		snap, err := e.ctx.Snapshot(e.t1, e.t2)
		if err != nil {
			h.t.Error(err)
			return false
		}
		defer snap.Release()
		k := key(id % pairs)
		v1, ok1, err1 := snap.Get(e.t1, k)
		v2, ok2, err2 := snap.Get(e.t2, k)
		if err1 != nil || err2 != nil {
			h.t.Errorf("snapshot get: %v %v", err1, err2)
			return false
		}
		if ok1 != ok2 || decodeU64(v1) != decodeU64(v2) {
			h.t.Errorf("torn snapshot at cts %d: %s = %d vs %d", snap.CTS(), k, decodeU64(v1), decodeU64(v2))
			return false
		}
		return true
	})

	// Scanners: lane-parallel scan of t1 under the same snapshot — four
	// ScanStripe goroutines at its one cut — then verify every scanned
	// pair against t2 point reads at the same cut.
	h.spawn(workers-writers-workers/2, func(int) bool {
		snap, err := e.ctx.Snapshot(e.t1, e.t2)
		if err != nil {
			h.t.Error(err)
			return false
		}
		defer snap.Release()
		type kvpair struct {
			k string
			v uint64
		}
		const lanes = 4
		rows := make(chan kvpair, pairs)
		errs := make(chan error, lanes)
		var scanners sync.WaitGroup
		for lane := range lanes {
			scanners.Add(1)
			go func() {
				defer scanners.Done()
				errs <- snap.ScanStripe(e.t1, lane, lanes, func(k string, v []byte) bool {
					rows <- kvpair{k, decodeU64(v)}
					return true
				})
			}()
		}
		scanners.Wait()
		close(rows)
		close(errs)
		for err := range errs {
			if err != nil {
				h.t.Error(err)
				return false
			}
		}
		for r := range rows {
			v2, ok, err := snap.Get(e.t2, r.k)
			if err != nil {
				h.t.Error(err)
				return false
			}
			if !ok || decodeU64(v2) != r.v {
				h.t.Errorf("torn parallel scan at cts %d: %s = %d in t1, %d in t2", snap.CTS(), r.k, r.v, decodeU64(v2))
				return false
			}
		}
		return true
	})

	time.Sleep(2 * time.Second)
	h.finish()
}

// TestSnapshotReleaseBoundsResidentVersions is the GC-pin regression: a
// long-held snapshot must pin every version it can see (a scan mid-way
// through the table cannot have rows reclaimed under it), and releasing
// it must make those versions reclaimable again — residency is bounded
// by the pin's lifetime, not leaked forever.
func TestSnapshotReleaseBoundsResidentVersions(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("rows", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("rows", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)

	const keys, rewrites = 32, 20
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	for i := 0; i < keys; i++ {
		write(t, p, tbl, key(i), "seed")
	}

	// Pin a snapshot (a stalled analytical scan), then churn versions.
	snap, err := ctx.Snapshot(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rewrites; r++ {
		for i := 0; i < keys; i++ {
			write(t, p, tbl, key(i), fmt.Sprintf("v%d", r))
		}
	}

	// While pinned, GC may reclaim nothing visible to the snapshot: the
	// seed versions must survive a full sweep, and the snapshot must
	// still read them.
	tbl.GC()
	held := tbl.ResidentVersions()
	if held < keys*2 {
		t.Fatalf("resident versions %d while pinned, want at least seed+latest per key (%d)", held, keys*2)
	}
	for i := 0; i < keys; i++ {
		v, ok, err := snap.Get(tbl, key(i))
		if err != nil || !ok || string(v) != "seed" {
			t.Fatalf("pinned snapshot read %q %v %v, want seed", v, ok, err)
		}
	}

	// Release: the horizon advances past the churn, and one sweep must
	// collapse residency to the live row per key.
	snap.Release()
	tbl.GC()
	if got := tbl.ResidentVersions(); got > keys {
		t.Fatalf("resident versions %d after release+GC, want <= %d (one live version per key)", got, keys)
	}
}

// TestSnapshotReleaseMidReadKeepsTheCut: a read running when its snapshot
// is released must not outlive the snapshot's pin. Each read's callback
// releases the snapshot on its first row, then commits a rewrite of every
// key and runs a full sweep; the read must still return exactly the
// pinned cut — never silently drop the rows whose pinned versions the
// sweep would reclaim — and the pin must go once the read returns.
func TestSnapshotReleaseMidReadKeepsTheCut(t *testing.T) {
	reads := map[string]func(s *Snapshot, tbl *Table, ix *Index, fn func(string, []byte) bool) error{
		"Scan": func(s *Snapshot, tbl *Table, _ *Index, fn func(string, []byte) bool) error {
			return s.Scan(tbl, fn)
		},
		"ScanStripe": func(s *Snapshot, tbl *Table, _ *Index, fn func(string, []byte) bool) error {
			return s.ScanStripe(tbl, 0, 1, fn)
		},
		"Lookup": func(s *Snapshot, _ *Table, ix *Index, fn func(string, []byte) bool) error {
			return s.Lookup(ix, "a", fn)
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t)
			p := NewSI(e.ctx)
			ix, err := e.t1.CreateIndex("bucket", valueBucket)
			if err != nil {
				t.Fatal(err)
			}
			const keys = 200
			rewrite := func(round int) {
				tx, err := p.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < keys; i++ {
					if err := p.Write(tx, e.t1, fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("a-round-%d", round))); err != nil {
						t.Error(err)
					}
				}
				if err := p.Commit(tx); err != nil {
					t.Error(err)
				}
			}
			rewrite(0)
			snap, err := e.ctx.Snapshot(e.t1)
			if err != nil {
				t.Fatal(err)
			}
			var (
				once sync.Once
				mu   sync.Mutex
				got  = map[string]string{}
			)
			err = read(snap, e.t1, ix, func(k string, v []byte) bool {
				once.Do(func() {
					snap.Release()
					rewrite(1)
					e.t1.GC()
				})
				mu.Lock()
				got[k] = string(v)
				mu.Unlock()
				return true
			})
			if errors.Is(err, ErrFinished) {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != keys {
				t.Errorf("the read returned %d rows, the pinned cut has %d", len(got), keys)
			}
			for k, v := range got {
				if v != "a-round-0" {
					t.Errorf("row %s = %q, want the pinned a-round-0", k, v)
				}
			}
			if _, _, err := snap.Get(e.t1, "k000"); err != ErrFinished {
				t.Errorf("Get after Release = %v, want ErrFinished", err)
			}
			if n := e.ctx.ActiveCount(); n != 0 {
				t.Errorf("%d transactions still registered after the read returned: the pin outlived it", n)
			}
		})
	}
}

// BenchmarkSnapshotScan scans a 100 000-row table over mem under a pinned
// snapshot whose rows each retain 1, 2 or 3 versions: the pin keeps the
// version it reads, and every rewrite after the pin adds one. It reports
// ns per scanned row and, from runtime.MemStats after a collection, the
// heap the loaded table occupies per row (rows, versions, the row index
// and the store's own copy of each value).
func BenchmarkSnapshotScan(b *testing.B) {
	const rows, txnRows = 100_000, 1000
	keys := make([]string, rows)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
	}
	for versions := 1; versions <= 3; versions++ {
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			e := newEnv(b)
			p := NewSI(e.ctx)
			ops := make([]WriteOp, txnRows)
			load := func(round int) {
				val := []byte(fmt.Sprintf("value-of-round-%d", round))
				for lo := 0; lo < rows; lo += txnRows {
					for i := range ops {
						ops[i] = WriteOp{Key: keys[lo+i], Value: val}
					}
					tx, err := p.Begin()
					if err != nil {
						b.Fatal(err)
					}
					if _, err := p.WriteBatch(tx, e.t1, ops); err != nil {
						b.Fatal(err)
					}
					mustCommit(b, p, tx)
				}
			}
			load(0)
			snap, err := e.ctx.Snapshot(e.t1)
			if err != nil {
				b.Fatal(err)
			}
			defer snap.Release()
			for r := 1; r < versions; r++ {
				load(r)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportAllocs()
			for b.Loop() {
				n := 0
				if err := snap.Scan(e.t1, func(string, []byte) bool { n++; return true }); err != nil {
					b.Fatal(err)
				}
				if n != rows {
					b.Fatalf("scan saw %d rows, want %d", n, rows)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/rows, "heap-B/row")
			if resident := e.t1.ResidentVersions(); resident != versions*rows {
				b.Fatalf("%d resident versions, want %d", resident, versions*rows)
			}
		})
	}
}
