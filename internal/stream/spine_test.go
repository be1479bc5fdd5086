package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/txn"
)

// This file pins the fused commit spine to the sequential semantics it
// accelerates: windowed transactions (TransactionsWindow) feeding a
// batched barrier (MergeBatched) must produce exactly the reference
// model's committed state, stats, punctuation sequence, per-transaction
// element multisets and abort placement — for every window/batch size,
// lane count and protocol, including rollbacks landing mid-batch.

// runSpine executes the script through the fused spine: windowed
// transactions, keyed lanes, per-lane TO_TABLE, batching merge barrier.
func runSpine(t *testing.T, script []scriptItem, punctuateN, lanes, window, batch int, proto func(*txn.Context) txn.Protocol) (sig []string, rows map[string]string, stats *ToTableStats) {
	t.Helper()
	ctx := txn.NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("prop", store, txn.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := proto(ctx)

	top := New("prop-spine")
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
	stats = region.ToTable(p, tbl)
	collected := region.MergeBatched("merge", batch).Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range <-collected {
		switch e.Kind {
		case KindBOT:
			sig = append(sig, "B")
		case KindData:
			sig = append(sig, "D:"+e.Tuple.Key)
		case KindCommit:
			sig = append(sig, "C")
		case KindRollback:
			sig = append(sig, "R")
		}
	}
	kvs, err := TableSnapshot(p, tbl)
	if err != nil {
		t.Fatal(err)
	}
	rows = map[string]string{}
	for _, r := range kvs {
		rows[r.Key] = string(r.Value)
	}
	return sig, rows, stats
}

// checkSpineAgainstRef compares one spine run against the sequential
// reference model (punctuation sequence, per-transaction multisets,
// table contents, stats — abort placement included via the stats and the
// punctuation sequence).
func checkSpineAgainstRef(t *testing.T, label string, want *refModel, sig []string, rows map[string]string, stats *ToTableStats) {
	t.Helper()
	wantPunct, wantSegs := sigStructure(want.sequence)
	gotPunct, gotSegs := sigStructure(sig)
	if gotPunct != wantPunct {
		t.Fatalf("%s: punctuation sequence diverged:\n got %q\nwant %q", label, gotPunct, wantPunct)
	}
	if fmt.Sprint(gotSegs) != fmt.Sprint(wantSegs) {
		t.Fatalf("%s: per-transaction element multisets diverged:\n got %v\nwant %v", label, gotSegs, wantSegs)
	}
	if fmt.Sprint(rows) != fmt.Sprint(want.table) {
		t.Fatalf("%s: table content diverged:\n got %v\nwant %v", label, rows, want.table)
	}
	if stats.Writes.Load() != want.writes ||
		stats.Commits.Load() != want.commits ||
		stats.Aborts.Load() != want.aborts {
		t.Fatalf("%s: stats diverged: got w=%d c=%d a=%d, want w=%d c=%d a=%d",
			label, stats.Writes.Load(), stats.Commits.Load(), stats.Aborts.Load(),
			want.writes, want.commits, want.aborts)
	}
}

// TestPropertySpineEquivalence: for random scripts (rollbacks included —
// an abort landing mid-batch splits the chain), every window/batch size
// must reproduce the sequential reference exactly. genScript mixes
// explicit BOT..COMMIT/ROLLBACK transactions with auto-punctuated runs,
// so batched chains regularly carry a rollback in the middle.
func TestPropertySpineEquivalence(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + 9000))
			script := genScript(rng)
			punctuateN := 1 + rng.Intn(7)
			want := runRef(script, punctuateN, 0)
			for _, wb := range []int{1, 2, 8} {
				sig, rows, stats := runSpine(t, script, punctuateN, 4, wb, wb,
					func(c *txn.Context) txn.Protocol { return txn.NewSI(c) })
				checkSpineAgainstRef(t, fmt.Sprintf("window=batch=%d", wb), want, sig, rows, stats)
			}
		})
	}
}

// TestSpineEquivalenceAllProtocols drives the fused spine (window=8,
// batch=8, 4 lanes) through all three protocols; S2PL additionally
// exercises lane-side lock acquisition with chain-aware wait-die.
func TestSpineEquivalenceAllProtocols(t *testing.T) {
	protos := map[string]func(*txn.Context) txn.Protocol{
		"mvcc": func(c *txn.Context) txn.Protocol { return txn.NewSI(c) },
		"s2pl": func(c *txn.Context) txn.Protocol { return txn.NewS2PL(c) },
		"bocc": func(c *txn.Context) txn.Protocol { return txn.NewBOCC(c) },
	}
	for seed := int64(40); seed < 44; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := genScript(rng)
		punctuateN := 1 + rng.Intn(7)
		want := runRef(script, punctuateN, 0)
		for name, proto := range protos {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				sig, rows, stats := runSpine(t, script, punctuateN, 4, 8, 8, proto)
				checkSpineAgainstRef(t, name, want, sig, rows, stats)
			})
		}
	}
}

// TestSpinePoisonedMidWindow: injected write failures poison
// transactions in the middle of a window, so the spine's chains are split
// by global aborts (tableSink.decide) — with semantics identical to the
// sequential reference, element for element.
func TestSpinePoisonedMidWindow(t *testing.T) {
	for seed := int64(200); seed < 210; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			script := genScript(rng)
			punctuateN := 1 + rng.Intn(7)
			failAt := int64(1 + rng.Intn(50))
			want := runRef(script, punctuateN, failAt)
			// One lane: sequential element order makes injected fault
			// positions deterministic, as in TestPropertyLane1FaultEquivalence
			// — here with the whole window/batch machinery in the path.
			sig, rows, stats := runSpine(t, script, punctuateN, 1, 8, 8, func(c *txn.Context) txn.Protocol {
				return &faultProtocol{Protocol: txn.NewSI(c), failAt: failAt}
			})
			if fmt.Sprint(sig) != fmt.Sprint(want.sequence) {
				t.Fatalf("element sequence diverged (failAt=%d):\n got %v\nwant %v", failAt, sig, want.sequence)
			}
			if fmt.Sprint(rows) != fmt.Sprint(want.table) {
				t.Fatalf("table content diverged (failAt=%d):\n got %v\nwant %v", failAt, rows, want.table)
			}
			if stats.Writes.Load() != want.writes ||
				stats.Commits.Load() != want.commits ||
				stats.Aborts.Load() != want.aborts {
				t.Fatalf("stats diverged (failAt=%d): got w=%d c=%d a=%d, want w=%d c=%d a=%d",
					failAt, stats.Writes.Load(), stats.Commits.Load(), stats.Aborts.Load(),
					want.writes, want.commits, want.aborts)
			}
		})
	}
}

// TestStressSpineAbortMidBatch is the -race stress of aborts landing
// mid-batch at the barrier: 8 lanes, window/batch 8, thousands of small
// transactions with every 5th transaction ROLLED BACK — so nearly every
// chain batch the spine forms is split by an abort — verified against a
// sequentially computed expectation (tables, stats, framing).
func TestStressSpineAbortMidBatch(t *testing.T) {
	ctx := txn.NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("stress", store, txn.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := txn.NewSI(ctx)

	txns := 2000
	if testing.Short() {
		txns = 400
	}
	const keys, perTxn, rollbackEvery = 97, 7, 5

	top := New("stress-spine")
	src := top.Source("gen", func(emit func(Element)) error {
		n := 0
		for i := 0; i < txns; i++ {
			emit(Punctuation(KindBOT))
			for j := 0; j < perTxn; j++ {
				emit(DataElement(Tuple{
					Key:   fmt.Sprintf("k%02d", n%keys),
					Value: []byte(fmt.Sprintf("t%05d", i)),
				}))
				n++
			}
			if (i+1)%rollbackEvery == 0 {
				emit(Punctuation(KindRollback))
			} else {
				emit(Punctuation(KindCommit))
			}
		}
		return nil
	})
	region := src.TransactionsWindow(p, 8).Parallelize(8, nil)
	stats := region.ToTable(p, tbl)
	collected := region.MergeBatched("merge", 8).Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}

	wantCommits := int64(txns - txns/rollbackEvery)
	wantAborts := int64(txns / rollbackEvery)
	if c, a := stats.Commits.Load(), stats.Aborts.Load(); c != wantCommits || a != wantAborts {
		t.Fatalf("commits=%d aborts=%d, want %d/%d", c, a, wantCommits, wantAborts)
	}
	if w := stats.Writes.Load(); w != int64(txns*perTxn) {
		t.Fatalf("writes=%d, want %d", w, txns*perTxn)
	}

	// Framing: one BOT and one COMMIT/ROLLBACK per transaction, data
	// strictly inside.
	depth, bots, ends := 0, 0, 0
	for _, e := range <-collected {
		switch e.Kind {
		case KindBOT:
			bots++
			if depth++; depth != 1 {
				t.Fatal("nested BOT in merged stream")
			}
		case KindCommit, KindRollback:
			ends++
			if depth--; depth != 0 {
				t.Fatal("unmatched COMMIT/ROLLBACK in merged stream")
			}
		case KindData:
			if depth != 1 {
				t.Fatal("data element outside transaction")
			}
		}
	}
	if bots != txns || ends != txns {
		t.Fatalf("framing: %d BOTs, %d ends, want %d each", bots, ends, txns)
	}

	// Final state: per key, the last value written by a COMMITTED
	// transaction (rolled-back writes discarded).
	want := map[string]string{}
	n := 0
	for i := 0; i < txns; i++ {
		commit := (i+1)%rollbackEvery != 0
		for j := 0; j < perTxn; j++ {
			if commit {
				want[fmt.Sprintf("k%02d", n%keys)] = fmt.Sprintf("t%05d", i)
			}
			n++
		}
	}
	rows, err := TableSnapshot(p, tbl)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.Key] = string(r.Value)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("table diverged after abort-heavy spine run:\n got %d keys\nwant %d keys", len(got), len(want))
	}
}

// TestSpineRaisesCommitFanIn: with small transactions and a window, the
// group-commit pipeline must carry multiple transactions per batch at
// least once — the whole point of the fused spine. (The exact fan-in is
// timing-dependent; the test only requires that SOME cross-transaction
// batch happened, which the synchronous spine can never produce.)
func TestSpineRaisesCommitFanIn(t *testing.T) {
	ctx := txn.NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("fanin", store, txn.TableOptions{SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ctx.CreateGroup("g", tbl)
	if err != nil {
		t.Fatal(err)
	}
	p := txn.NewSI(ctx)

	const txns = 500
	top := New("fanin")
	src := top.Source("gen", func(emit func(Element)) error {
		for i := 0; i < txns; i++ {
			emit(DataElement(Tuple{Key: fmt.Sprintf("k%d", i%31), Value: []byte("v")}))
		}
		return nil
	})
	region := src.Punctuate(1).TransactionsWindow(p, 8).Parallelize(2, nil)
	region.ToTable(p, tbl)
	region.MergeBatched("merge", 8).Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	prof := g.CommitProfile()
	committed, batches := prof.Txns, prof.Batches
	if committed != txns {
		t.Fatalf("group committed %d transactions, want %d", committed, txns)
	}
	if batches >= committed {
		t.Fatalf("no cross-transaction batching: %d txns in %d batches", committed, batches)
	}
}

// TestReparallelizeFusedSharesLanes: matching default-keyed regions fuse
// lane-for-lane (no merge hop — the new region holds the same lane
// edges); a count mismatch falls back to merge + re-route and stays
// correct.
func TestReparallelizeFusedSharesLanes(t *testing.T) {
	e := newParallelEnv(t)
	top := New("fuse")
	src := top.Source("gen", func(emit func(Element)) error {
		for i := 0; i < 500; i++ {
			emit(DataElement(Tuple{Key: fmt.Sprintf("k%d", i%13), Value: []byte(fmt.Sprintf("v%d", i))}))
		}
		return nil
	})
	r1 := src.Punctuate(25).Transactions(e.p).Parallelize(4, nil)
	lanesBefore := append([]*Stream(nil), r1.lanes...)
	r2 := r1.Reparallelize("repart", 4, nil)
	if len(r2.lanes) != 4 {
		t.Fatalf("fused region has %d lanes", len(r2.lanes))
	}
	for i := range r2.lanes {
		if r2.lanes[i] != lanesBefore[i] {
			t.Fatalf("lane %d was re-routed; fusion must reuse the upstream lane edges", i)
		}
	}
	stats := r2.ToTable(e.p, e.t1)
	r2.Merge("merge").Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.Writes.Load() != 500 || stats.Aborts.Load() != 0 {
		t.Fatalf("fused region: writes=%d aborts=%d", stats.Writes.Load(), stats.Aborts.Load())
	}
}

// TestReparallelizeSharedTokenFuses pins the KeyFn-token planner rule:
// regions partitioned with the SAME *KeyFn fuse lane-for-lane just like
// default-keyed ones; a different token wrapping the very same function —
// unprovably equal — takes the merge + re-route fallback, and keyed
// routing under the custom hash still holds either way.
func TestReparallelizeSharedTokenFuses(t *testing.T) {
	e := newParallelEnv(t)
	hash := func(key string) uint64 {
		if len(key) == 0 {
			return 0
		}
		return uint64(key[len(key)-1]) // routes by trailing byte
	}
	tok := NewKeyFn(hash)

	top := New("tokfuse")
	src := top.Source("gen", func(emit func(Element)) error {
		for i := 0; i < 500; i++ {
			emit(DataElement(Tuple{Key: fmt.Sprintf("k%d", i%13), Value: []byte(fmt.Sprintf("v%d", i))}))
		}
		return nil
	})
	r1 := src.Punctuate(25).Transactions(e.p).Parallelize(4, tok)
	lanesBefore := append([]*Stream(nil), r1.lanes...)
	r2 := r1.Reparallelize("repart", 4, tok)
	for i := range r2.lanes {
		if r2.lanes[i] != lanesBefore[i] {
			t.Fatalf("lane %d was re-routed; same-token regions must fuse", i)
		}
	}
	// Routing under the custom hash: every key owned by exactly one lane.
	laneOf := make([]map[string]int, 4)
	r2.Apply(func(lane int, s *Stream) *Stream {
		seen := map[string]int{}
		laneOf[lane] = seen
		return s.Map("observe", func(tp Tuple) Tuple {
			seen[tp.Key]++
			return tp
		})
	})
	stats := r2.ToTable(e.p, e.t1)
	r2.Merge("merge").Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.Writes.Load() != 500 || stats.Aborts.Load() != 0 {
		t.Fatalf("fused token region: writes=%d aborts=%d", stats.Writes.Load(), stats.Aborts.Load())
	}
	for k := 0; k < 13; k++ {
		key := fmt.Sprintf("k%d", k)
		owner := -1
		for lane := range laneOf {
			if laneOf[lane][key] > 0 {
				if owner != -1 {
					t.Fatalf("key %s on lanes %d and %d", key, owner, lane)
				}
				owner = lane
			}
		}
		if owner != int(hash(key)%4) {
			t.Fatalf("key %s on lane %d, want %d (custom hash routing)", key, owner, int(hash(key)%4))
		}
	}

	// Control: a DISTINCT token over the identical function must NOT fuse.
	top2 := New("tokfall")
	e2 := newParallelEnv(t)
	src2 := top2.Source("gen", func(emit func(Element)) error {
		emit(DataElement(Tuple{Key: "k1", Value: []byte("v")}))
		return nil
	})
	o1 := src2.Punctuate(1).Transactions(e2.p).Parallelize(2, tok)
	lanes1 := append([]*Stream(nil), o1.lanes...)
	o2 := o1.Reparallelize("repart", 2, NewKeyFn(hash))
	same := 0
	for i := range o2.lanes {
		if i < len(lanes1) && o2.lanes[i] == lanes1[i] {
			same++
		}
	}
	if same == len(lanes1) {
		t.Fatal("distinct tokens fused; token identity, not function identity, must gate fusion")
	}
	o2.ToTable(e2.p, e2.t1)
	o2.Merge("merge").Discard()
	if err := top2.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestReparallelizeFallbackReroutes: mismatched counts cannot fuse; the
// planner inserts a merge barrier and a fresh router, and keyed routing
// still holds in the downstream region.
func TestReparallelizeFallbackReroutes(t *testing.T) {
	e := newParallelEnv(t)
	top := New("refall")
	const elements, keys = 1000, 17
	src := top.Source("gen", func(emit func(Element)) error {
		for i := 0; i < elements; i++ {
			emit(DataElement(Tuple{Key: fmt.Sprintf("k%d", i%keys), Value: []byte(fmt.Sprintf("v%d", i))}))
		}
		return nil
	})
	r1 := src.Punctuate(50).Transactions(e.p).Parallelize(4, nil)
	r2 := r1.Reparallelize("repart", 2, nil)
	if len(r2.lanes) != 2 {
		t.Fatalf("fallback region has %d lanes, want 2", len(r2.lanes))
	}
	laneOf := make([]map[string]int, 2)
	r2.Apply(func(lane int, s *Stream) *Stream {
		seen := map[string]int{}
		laneOf[lane] = seen
		return s.Map("observe", func(tp Tuple) Tuple {
			seen[tp.Key]++
			return tp
		})
	})
	stats := r2.ToTable(e.p, e.t1)
	r2.Merge("merge").Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.Writes.Load() != elements {
		t.Fatalf("writes=%d, want %d", stats.Writes.Load(), elements)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%d", k)
		owners := 0
		for lane := 0; lane < 2; lane++ {
			if laneOf[lane][key] > 0 {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("key %s processed by %d downstream lanes after re-route", key, owners)
		}
	}
}
