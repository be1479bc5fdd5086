package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sistream/internal/kv"
	"sistream/internal/txn"
)

// Property test: index–table equivalence. Random transaction scripts —
// writes, deletes, explicit rollbacks — run through the full pipeline
// (source → transactions → parallel lanes → TO_TABLE) under each
// protocol, with a commit watcher that, at EVERY commit boundary,
// compares a secondary-index lookup against a filtered full-table scan
// at that commit's timestamp. The index is maintained on the commit path
// (see txn/index.go); the property pins its invariant: an index read at
// cts returns exactly the rows a table scan at cts would, for every cts
// the group ever published — never a row early, never a row late, and
// nothing from aborted transactions.

// equivBuckets is the index-key domain of the random scripts. Values
// starting with 'x' are excluded (ok=false), so the partial-index path
// is exercised too.
var equivBuckets = []string{"b0", "b1", "b2", "b3"}

func equivExtract(_ string, value []byte) (string, bool) {
	if len(value) == 0 || value[0] == 'x' {
		return "", false
	}
	return equivBuckets[int(value[0]-'0')%len(equivBuckets)], true
}

// equivCheck compares, at a snapshot of tbl's latest cut, the index's
// view of every bucket against a full scan of the table filtered through
// the same extractor — keys and values both.
func equivCheck(ctx *txn.Context, tbl *txn.Table, ix *txn.Index) error {
	snap, err := ctx.Snapshot(tbl)
	if err != nil {
		return err
	}
	defer snap.Release()
	cts := snap.CTS()
	want := map[string]map[string][]byte{} // bucket -> key -> value
	err = snap.Scan(tbl, func(key string, value []byte) bool {
		if b, ok := equivExtract(key, value); ok {
			if want[b] == nil {
				want[b] = map[string][]byte{}
			}
			want[b][key] = append([]byte(nil), value...)
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, b := range equivBuckets {
		got := map[string][]byte{}
		err := snap.Lookup(ix, b, func(key string, value []byte) bool {
			if _, dup := got[key]; dup {
				return true // flagged below by count mismatch
			}
			got[key] = append([]byte(nil), value...)
			return true
		})
		if err != nil {
			return err
		}
		if len(got) != len(want[b]) {
			return fmt.Errorf("cts %d bucket %s: index has %d rows, scan has %d", cts, b, len(got), len(want[b]))
		}
		for k, v := range want[b] {
			gv, ok := got[k]
			if !ok {
				return fmt.Errorf("cts %d bucket %s: key %s visible in scan but not in index", cts, b, k)
			}
			if !bytes.Equal(gv, v) {
				return fmt.Errorf("cts %d bucket %s key %s: index value %q != scan value %q", cts, b, k, gv, v)
			}
		}
	}
	return nil
}

// equivScript generates one random transaction script as a pre-punctuated
// element sequence: txns transactions of 1..8 operations (puts, ~20%
// deletes) over a 24-key domain, ~15% of them ending in ROLLBACK.
func equivScript(rng *rand.Rand, txns int) []Element {
	var script []Element
	for t := 0; t < txns; t++ {
		script = append(script, Punctuation(KindBOT))
		for n := 1 + rng.Intn(8); n > 0; n-- {
			key := fmt.Sprintf("k%02d", rng.Intn(24))
			if rng.Float64() < 0.2 {
				script = append(script, Element{Kind: KindData, Tuple: Tuple{Key: key, Delete: true}})
				continue
			}
			// First byte selects the bucket; 'x' leaves the row unindexed.
			first := byte('0' + rng.Intn(len(equivBuckets)))
			if rng.Float64() < 0.15 {
				first = 'x'
			}
			value := append([]byte{first}, []byte(fmt.Sprintf("-t%d-%d", t, rng.Intn(1000)))...)
			script = append(script, Element{Kind: KindData, Tuple: Tuple{Key: key, Value: value}})
		}
		if rng.Float64() < 0.15 {
			script = append(script, Punctuation(KindRollback))
		} else {
			script = append(script, Punctuation(KindCommit))
		}
	}
	return script
}

func runEquivProperty(t *testing.T, protocol string, lanes int, seed int64, sweep bool) {
	t.Helper()
	ctx := txn.NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("rows", store, txn.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	group, err := ctx.CreateGroup("rows", tbl)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := tbl.CreateIndex("bucket", equivExtract)
	if err != nil {
		t.Fatal(err)
	}
	var p txn.Protocol
	switch protocol {
	case "mvcc":
		p = txn.NewSI(ctx)
	case "s2pl":
		p = txn.NewS2PL(ctx)
	case "bocc":
		p = txn.NewBOCC(ctx)
	default:
		t.Fatalf("unknown protocol %q", protocol)
	}

	txns := 60
	if testing.Short() {
		txns = 20
	}
	script := equivScript(rand.New(rand.NewSource(seed)), txns)

	// The watcher runs on the committing goroutine under the group's
	// commit latch, right after the commit's versions installed and its
	// batch's cut was published: the boundaries the property quantifies
	// over, each a cut a snapshot can pin.
	var (
		checkMu   sync.Mutex
		checkErrs []error
		checked   int
		committed = make(chan struct{}, 1)
	)
	group.Watch(func(txn.Timestamp, map[txn.StateID][]string) {
		err := equivCheck(ctx, tbl, ix)
		checkMu.Lock()
		if err != nil && len(checkErrs) < 5 {
			checkErrs = append(checkErrs, err)
		}
		checked++
		checkMu.Unlock()
		select {
		case committed <- struct{}{}:
		default:
		}
	})

	// With sweep set, a loop beside the topology sweeps the table after
	// the commits the watcher signals, for as long as the script runs, so
	// commits and their boundary checks cross sweeps dropping index
	// candidates. Table.GC takes the commit latch, so it runs here and
	// never from the watcher. Whether those sweeps win the latch while
	// commits still run depends on the scheduler, so the source also
	// holds the final transaction back until every earlier one is
	// decided and the loop has finished one more sweep: that sweep starts
	// after the script's last roaming write, with no transaction open, so
	// it drops the row from the set the write left unless an earlier
	// sweep already did, and the final commit's check crosses it.
	var (
		stopSweeps = make(chan struct{})
		sweepNow   = make(chan chan struct{})
		sweeps     sync.WaitGroup
		stats      *ToTableStats
	)
	final := 0 // the final transaction's BOT
	for i, e := range script {
		if e.Kind == KindBOT {
			final = i
		}
	}

	top := New("equiv")
	var src *Stream
	src = top.Source("script", func(emit func(Element)) error {
		for i, e := range script {
			if sweep && i == final-1 {
				// The emitter ships a partial batch only while the edge
				// has room: with room, this element ships every one
				// emitted before it.
				for len(src.ch) == cap(src.ch) {
					time.Sleep(time.Millisecond)
				}
			}
			if sweep && i == final {
				deadline := time.Now().Add(time.Minute)
				for stats.Commits.Load()+stats.Aborts.Load() < int64(txns-1) {
					if time.Now().After(deadline) {
						return fmt.Errorf("%d of %d transactions decided before the final one", stats.Commits.Load()+stats.Aborts.Load(), txns-1)
					}
					time.Sleep(time.Millisecond)
				}
				swept := make(chan struct{})
				sweepNow <- swept
				<-swept
			}
			emit(e)
		}
		return nil
	})
	region := src.Transactions(p).Parallelize(lanes, nil)
	stats = region.ToTable(p, tbl)
	region.Merge("merge").Discard()
	if sweep {
		sweeps.Add(1)
		go func() {
			defer sweeps.Done()
			for {
				select {
				case <-stopSweeps:
					return
				case <-committed:
					tbl.GC()
				case done := <-sweepNow:
					tbl.GC()
					close(done)
				}
			}
		}()
	}
	err = top.Run()
	close(stopSweeps)
	sweeps.Wait()
	if err != nil {
		t.Fatal(err)
	}

	checkMu.Lock()
	defer checkMu.Unlock()
	for _, err := range checkErrs {
		t.Error(err)
	}
	if commits := stats.Commits.Load(); checked < int(commits) {
		t.Errorf("watcher checked %d boundaries, expected >= %d commits", checked, commits)
	}
	if checked == 0 {
		t.Fatal("no commit boundary was ever checked (empty script?)")
	}
	// And once more at the final horizon, plus the released-world check:
	// everything the scripts left behind must still be equivalent.
	if err := equivCheck(ctx, tbl, ix); err != nil {
		t.Error(err)
	}
	if sweep && ix.Stats().Swept == 0 {
		t.Error("the sweep loop ran, yet no sweep dropped an index candidate")
	}
}

// TestPropertyIndexTableEquivalence sweeps the property over the three
// protocols × {1, 4} lanes × several seeds (fewer under -short), without
// sweeps (gc=0) and with a Table.GC loop beside the topology (gc=1), so
// that every script also crosses sweeps dropping index candidates.
func TestPropertyIndexTableEquivalence(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, protocol := range []string{"mvcc", "s2pl", "bocc"} {
		for _, lanes := range []int{1, 4} {
			for _, gc := range []int{0, 1} {
				for seed := int64(0); seed < int64(seeds); seed++ {
					t.Run(fmt.Sprintf("%s/lanes=%d/gc=%d/seed=%d", protocol, lanes, gc, seed), func(t *testing.T) {
						runEquivProperty(t, protocol, lanes, seed, gc == 1)
					})
				}
			}
		}
	}
}

// TestSnapshotIndexLookupThroughStream pins the composition the query
// quickstart relies on: FromSnapshot streams a pinned snapshot's rows
// through a topology while writers keep committing, and Snapshot.Lookup
// over the index agrees with the streamed rows filtered by bucket.
func TestSnapshotIndexLookupThroughStream(t *testing.T) {
	ctx := txn.NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("rows", store, txn.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("rows", tbl); err != nil {
		t.Fatal(err)
	}
	ix, err := tbl.CreateIndex("bucket", equivExtract)
	if err != nil {
		t.Fatal(err)
	}
	p := txn.NewSI(ctx)

	// Seed 100 keys over the buckets via the write path.
	write := func(from, to int) {
		top := New("seed")
		src := top.Source("gen", func(emit func(Element)) error {
			for i := from; i < to; i++ {
				emit(DataElement(Tuple{
					Key:   fmt.Sprintf("k%03d", i),
					Value: []byte(fmt.Sprintf("%d-v%d", i%len(equivBuckets), i)),
				}))
			}
			return nil
		})
		s := src.Punctuate(10).Transactions(p)
		s, _ = s.ToTable(p, tbl)
		s.Discard()
		if err := top.Run(); err != nil {
			t.Fatal(err)
		}
	}
	write(0, 100)

	snap, err := ctx.Snapshot(tbl)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	// Commit more rows AFTER pinning: the streamed scan must not see them.
	write(100, 150)

	top := New("scan")
	rows := FromSnapshot(top, snap, tbl, 4)
	collected := rows.Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	streamed := map[string][]byte{}
	for _, e := range <-collected {
		if e.Kind == KindData {
			streamed[e.Tuple.Key] = e.Tuple.Value
		}
	}
	if len(streamed) != 100 {
		t.Fatalf("streamed scan saw %d rows, want the 100 pre-pin rows", len(streamed))
	}
	for _, b := range equivBuckets {
		want := map[string]bool{}
		for k, v := range streamed {
			if bk, ok := equivExtract(k, v); ok && bk == b {
				want[k] = true
			}
		}
		got := map[string]bool{}
		if err := snap.Lookup(ix, b, func(key string, _ []byte) bool {
			got[key] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("bucket %s: index lookup %d rows, streamed scan %d", b, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Errorf("bucket %s: key %s streamed but absent from index lookup", b, k)
			}
		}
	}
}
