package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/lsm"
	"sistream/internal/txn"
)

// backendEquivSpecs are the stores the cross-backend property drives, by
// name: the volatile reference, the persistent LSM store, and the fault
// wrapper (unscripted, so it only exercises the pass-through + overlay
// machinery).
var backendEquivSpecs = []string{
	"mem",
	"lsm",
	"fault+mem",
}

// runSpineOn drives one script through the full commit spine —
// Punctuate → TransactionsWindow → Parallelize → ToTable →
// MergeBatched — over the named store with synchronous commits, and
// returns the committed table content and the commit stats.
func runSpineOn(t *testing.T, spec string, script []scriptItem, punctuateN, window, lanes int) (rows map[string]string, writes, commits, aborts int64, commitTxns uint64) {
	t.Helper()
	var store kv.Store
	switch spec {
	case "mem":
		store = kv.NewMem()
	case "lsm":
		db, err := lsm.Open(t.TempDir(), lsm.Options{})
		if err != nil {
			t.Fatalf("open %q: %v", spec, err)
		}
		store = db
	case "fault+mem":
		store = kv.NewFault(kv.NewMem())
	}
	t.Cleanup(func() { store.Close() })
	ctx := txn.NewContext()
	tbl, err := ctx.CreateTable("equiv", store, txn.TableOptions{SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	group, err := ctx.CreateGroup("g", tbl)
	if err != nil {
		t.Fatal(err)
	}
	p := txn.NewSI(ctx)

	top := New("equiv-" + spec)
	src := top.Source("script", func(emit func(Element)) error {
		for _, it := range script {
			if it.kind == KindData {
				emit(DataElement(Tuple{Key: it.key, Value: []byte(it.val), Delete: it.del}))
			} else {
				emit(Punctuation(it.kind))
			}
		}
		return nil
	})
	region := src.Punctuate(punctuateN).TransactionsWindow(p, window).Parallelize(lanes, nil)
	stats := region.ToTable(p, tbl)
	region.MergeBatched("merge", window).Discard()
	if err := top.Run(); err != nil {
		t.Fatalf("spec %q: %v", spec, err)
	}

	kvs, err := TableSnapshot(p, tbl)
	if err != nil {
		t.Fatal(err)
	}
	rows = map[string]string{}
	for _, r := range kvs {
		rows[r.Key] = string(r.Value)
	}
	txns := group.CommitProfile().Txns
	return rows, stats.Writes.Load(), stats.Commits.Load(), stats.Aborts.Load(), txns
}

// TestPropertyBackendEquivalence: one random script driven through the
// full spine must yield identical table contents and commit stats on
// every backend — the storage adapter is not allowed to
// change what commits, only where the bytes live. Batch counts are NOT
// compared: group-commit coalescing depends on commit latency, which is
// exactly what differs between backends.
func TestPropertyBackendEquivalence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			script := genScript(rng)
			punctuateN := 1 + rng.Intn(7)
			window := 1 + rng.Intn(4)
			lanes := 1 + rng.Intn(3)

			ref := backendEquivSpecs[0]
			wantRows, wantW, wantC, wantA, wantTxns := runSpineOn(t, ref, script, punctuateN, window, lanes)
			for _, spec := range backendEquivSpecs[1:] {
				rows, w, c, a, txns := runSpineOn(t, spec, script, punctuateN, window, lanes)
				if fmt.Sprint(rows) != fmt.Sprint(wantRows) {
					t.Fatalf("table content diverged between %q and %q (punctuate=%d window=%d lanes=%d):\n got %v\nwant %v",
						ref, spec, punctuateN, window, lanes, rows, wantRows)
				}
				if w != wantW || c != wantC || a != wantA || txns != wantTxns {
					t.Fatalf("commit stats diverged between %q and %q: got w=%d c=%d a=%d txns=%d, want w=%d c=%d a=%d txns=%d",
						ref, spec, w, c, a, txns, wantW, wantC, wantA, wantTxns)
				}
			}
		})
	}
}
