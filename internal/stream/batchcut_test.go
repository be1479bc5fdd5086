package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/txn"
)

// This file pins the batch-wide fused stages to their one-element-batch
// behaviour: a whole chain run over random batch cuts — punctuations at
// batch edges and mid-batch, transactions spanning batches, window waits
// that must hand a batch's prefix on before they block — must produce
// exactly what the same chain produces one element at a time.

// firstWriteFault injects a conflict abort into every every-th
// transaction that writes through it, at that transaction's first write:
// nothing of the segment applies, the transaction is aborted for real and
// the write reports ErrConflict. Which transaction fails does not depend
// on where the batches are cut (faultProtocol's count of operations does,
// for two ToTables of one transaction: each runs over a whole batch
// before the next one starts).
type firstWriteFault struct {
	txn.Protocol
	every int
	seen  int
	last  *txn.Txn
}

func (f *firstWriteFault) WriteSegment(tx *txn.Txn, tbl *txn.Table, seg *txn.Segment) (int, error) {
	if tx != f.last {
		f.last = tx
		f.seen++
		if f.every > 0 && f.seen%f.every == 0 {
			_ = f.Protocol.Abort(tx)
			return 0, txn.ErrConflict
		}
	}
	return f.Protocol.WriteSegment(tx, tbl, seg)
}

// chainRun is what one run of the fused chain produced.
type chainRun struct {
	sig        []string
	rows       [2]map[string]string
	stats      [2]*ToTableStats
	edge, mids int // punctuations fed at a batch edge / mid-batch
}

// runFusedChain feeds script through batchFeed, cut into batches of the
// given sizes (the last one takes the rest), into Map→Filter→FlatMap→
// Punctuate(punctuateN)→TransactionsWindow(window)→ToTable(a)→ToTable(b)→
// Collect under SI, aborting the first write of every failEvery-th
// transaction into a.
func runFusedChain(t *testing.T, script []scriptItem, cuts []int, punctuateN, window, failEvery int) chainRun {
	t.Helper()
	ctx := txn.NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	var tables [2]*txn.Table
	for i := range tables {
		tbl, err := ctx.CreateTable(txn.StateID(fmt.Sprintf("cut%d", i)), store, txn.TableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tbl
	}
	if _, err := ctx.CreateGroup("g", tables[:]...); err != nil {
		t.Fatal(err)
	}
	p := txn.NewSI(ctx)

	var run chainRun
	var batches [][]Element
	for i, c := 0, 0; i < len(script); c++ {
		n := len(script) - i
		if c < len(cuts) && cuts[c] < n {
			n = cuts[c]
		}
		b := make([]Element, 0, n)
		for j, it := range script[i : i+n] {
			if it.kind != KindData {
				if j == 0 || j == n-1 {
					run.edge++
				} else {
					run.mids++
				}
				b = append(b, Punctuation(it.kind))
				continue
			}
			b = append(b, DataElement(Tuple{Key: it.key, Value: []byte(it.val), Delete: it.del}))
		}
		batches = append(batches, b)
		i += n
	}

	top := New("cuts")
	s := batchFeed(top, batches).
		Map("m", func(tp Tuple) Tuple {
			tp.Value = append([]byte("m"), tp.Value...)
			return tp
		}).
		Filter("f", func(tp Tuple) bool { return tp.Key != "k3" }).
		FlatMap("fm", func(tp Tuple, emit func(Tuple)) {
			switch tp.Key {
			case "k7":
			case "k5":
				emit(tp)
				tp.Key = "k5b"
				emit(tp)
			default:
				emit(tp)
			}
		}).
		Punctuate(punctuateN).
		TransactionsWindow(p, window, tables[:]...)
	s, run.stats[0] = s.ToTable(&firstWriteFault{Protocol: p, every: failEvery}, tables[0])
	s, run.stats[1] = s.ToTable(p, tables[1])
	collected := s.Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range <-collected {
		switch e.Kind {
		case KindData:
			run.sig = append(run.sig, fmt.Sprintf("D:%s=%s/%t", e.Tuple.Key, e.Tuple.Value, e.Tuple.Delete))
			if e.Tx == nil {
				t.Fatal("data element lost its transaction handle")
			}
		default:
			run.sig = append(run.sig, e.Kind.String())
		}
	}
	for i, tbl := range tables {
		kvs, err := TableSnapshot(p, tbl)
		if err != nil {
			t.Fatal(err)
		}
		run.rows[i] = map[string]string{}
		for _, r := range kvs {
			run.rows[i][r.Key] = string(r.Value)
		}
	}
	return run
}

// TestPropertyFusedChainBatchCuts: for random scripts, batch cuts of 1 to
// 128 elements, punctuation intervals, windows 1 and 8 and injected
// aborts, the fused chain produces the element sequence, both tables and
// the stats of the run that feeds one element per batch (for the second
// ToTable's Writes within the bound its rolled-back transactions allow,
// see below). A window wait
// that blocked before handing on the prefix holding the awaited COMMIT
// would hang here; a prefix sharing its backing array with the rest of
// the batch would corrupt the sequence.
func TestPropertyFusedChainBatchCuts(t *testing.T) {
	edge, mids := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		for _, window := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed=%d/window=%d", seed, window), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				script := genScript(rng)
				punctuateN := 1 + rng.Intn(7)
				failEvery := 0
				if rng.Intn(3) > 0 {
					failEvery = 2 + rng.Intn(5)
				}
				cuts := make([]int, len(script))
				for i := range cuts {
					cuts[i] = 1 + rng.Intn(128)
					if rng.Intn(4) == 0 {
						cuts[i] = 1 + rng.Intn(8)
					}
				}
				one := make([]int, len(script))
				for i := range one {
					one[i] = 1
				}

				want := runFusedChain(t, script, one, punctuateN, window, failEvery)
				got := runFusedChain(t, script, cuts, punctuateN, window, failEvery)
				edge += got.edge
				mids += got.mids

				if fmt.Sprint(got.sig) != fmt.Sprint(want.sig) {
					t.Fatalf("element sequence diverged (punctuate=%d failEvery=%d):\n got %v\nwant %v", punctuateN, failEvery, got.sig, want.sig)
				}
				for i := range got.rows {
					if fmt.Sprint(got.rows[i]) != fmt.Sprint(want.rows[i]) {
						t.Fatalf("table %d diverged:\n got %v\nwant %v", i, got.rows[i], want.rows[i])
					}
					g, w := got.stats[i], want.stats[i]
					// The first ToTable aborts a rolled-back transaction as
					// its ROLLBACK passes. A run of it the second one
					// flushed before that is applied; one still pending
					// finds the transaction finished and is not. How much is
					// pending depends on the cut, so for b the run may count
					// fewer writes than the one-element run, which flushes
					// every element before the ROLLBACK reaches a. Aborts
					// are equal: the ROLLBACK of a transaction b's failed
					// run already counted adds no second abort.
					writesOK := g.Writes.Load() == w.Writes.Load()
					if i == 1 {
						writesOK = g.Writes.Load() <= w.Writes.Load()
					}
					if !writesOK || g.Aborts.Load() != w.Aborts.Load() || g.Commits.Load() != w.Commits.Load() {
						t.Fatalf("table %d stats diverged: got w=%d c=%d a=%d, want w=%d c=%d a=%d", i,
							g.Writes.Load(), g.Commits.Load(), g.Aborts.Load(), w.Writes.Load(), w.Commits.Load(), w.Aborts.Load())
					}
				}
			})
		}
	}
	if edge == 0 || mids == 0 {
		t.Fatalf("punctuations fed at batch edges %d times and mid-batch %d times: want both", edge, mids)
	}
}
