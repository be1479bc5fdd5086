package stream

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/txn"
)

// This file pins the vectorized engine to the per-element semantics it
// replaced: a randomized pipeline run is compared element-for-element
// (punctuation positions included) against a sequential reference
// interpreter, with conflict aborts injected mid-batch through a
// fault-wrapping Protocol, and a deterministic test drives batches whose
// BOT/COMMIT land in the middle.

// faultProtocol injects a conflict abort at the failAt-th attempted
// write operation (1-based, counted across WriteSegment/WriteBatch
// calls): operations before it apply, the transaction is aborted for
// real, and the write reports ErrConflict — exactly what a
// First-Committer-Wins loss looks like to ToTable.
type faultProtocol struct {
	txn.Protocol
	failAt int64
	count  int64
}

func (f *faultProtocol) WriteBatch(tx *txn.Txn, tbl *txn.Table, ops []txn.WriteOp) (int, error) {
	for i := range ops {
		f.count++
		if f.failAt != 0 && f.count == f.failAt {
			n, err := f.Protocol.WriteBatch(tx, tbl, ops[:i])
			if err != nil {
				return n, err
			}
			_ = f.Protocol.Abort(tx)
			return n, txn.ErrConflict
		}
	}
	return f.Protocol.WriteBatch(tx, tbl, ops)
}

// WriteSegment is the call ToTable makes; the embedded protocol's would
// bypass the injection.
func (f *faultProtocol) WriteSegment(tx *txn.Txn, tbl *txn.Table, seg *txn.Segment) (int, error) {
	return f.WriteBatch(tx, tbl, seg.Ops())
}

// scriptItem is one element of a generated input script.
type scriptItem struct {
	kind Kind
	key  string
	val  string
	del  bool
}

// genScript produces a random mix of bare data tuples and well-formed
// explicit transactions (BOT ... COMMIT/ROLLBACK), with occasional
// empty-key tuples (ToTable skips those).
func genScript(rng *rand.Rand) []scriptItem {
	var script []scriptItem
	n := rng.Intn(300)
	inTxn := false
	for i := 0; i < n; i++ {
		switch {
		case !inTxn && rng.Intn(10) == 0:
			script = append(script, scriptItem{kind: KindBOT})
			inTxn = true
		case inTxn && rng.Intn(6) == 0:
			k := KindCommit
			if rng.Intn(4) == 0 {
				k = KindRollback
			}
			script = append(script, scriptItem{kind: k})
			inTxn = false
		default:
			it := scriptItem{
				kind: KindData,
				key:  fmt.Sprintf("k%d", rng.Intn(12)),
				val:  fmt.Sprintf("v%d", i),
				del:  rng.Intn(8) == 0,
			}
			if rng.Intn(20) == 0 {
				it.key = ""
			}
			script = append(script, it)
		}
	}
	if inTxn {
		script = append(script, scriptItem{kind: KindCommit})
	}
	return script
}

// refModel interprets the script sequentially with the engine's
// documented per-element semantics: Punctuate's auto/explicit state
// machine, then transactional TO_TABLE with write counting, poisoning at
// the failAt-th attempted write, rollback discard and end-of-stream
// auto-commit.
type refModel struct {
	// sequence is the expected output signature of the pipeline
	// (one letter per element: B, D:key, C, R).
	sequence []string
	// table is the expected committed content of the target table.
	table map[string]string
	// writes/commits/aborts are the expected ToTableStats.
	writes, commits, aborts int64
	// feed is, for each committed transaction that wrote a row, in commit
	// order, the rows a change feed carries for it: each key's last
	// write as rowSig renders it, sorted and joined by commas.
	feed []string
}

func runRef(script []scriptItem, punctuateN int, failAt int64) *refModel {
	m := &refModel{table: map[string]string{}}
	// Phase 1: punctuation (mirrors Punctuate).
	var out []scriptItem
	var explicit, auto bool
	count := 0
	for _, it := range script {
		switch it.kind {
		case KindData:
			if explicit {
				out = append(out, it)
				continue
			}
			if !auto {
				out = append(out, scriptItem{kind: KindBOT})
				auto = true
				count = 0
			}
			out = append(out, it)
			count++
			if count >= punctuateN {
				out = append(out, scriptItem{kind: KindCommit})
				auto = false
			}
		case KindBOT:
			if auto {
				out = append(out, scriptItem{kind: KindCommit})
				auto = false
			}
			explicit = true
			out = append(out, it)
		default:
			explicit = false
			out = append(out, it)
		}
	}
	if auto {
		out = append(out, scriptItem{kind: KindCommit})
	}

	// Phase 2: transactions + TO_TABLE.
	var (
		inTxn    bool
		poisoned bool
		buffered []scriptItem
		opCount  int64
	)
	for _, it := range out {
		switch it.kind {
		case KindBOT:
			m.sequence = append(m.sequence, "B")
			inTxn = true
			poisoned = false
			buffered = buffered[:0]
		case KindData:
			m.sequence = append(m.sequence, "D:"+it.key)
			if !inTxn || poisoned || it.key == "" {
				continue
			}
			opCount++
			if failAt != 0 && opCount == failAt {
				poisoned = true
				m.aborts++
				continue
			}
			m.writes++
			buffered = append(buffered, it)
		case KindCommit:
			m.sequence = append(m.sequence, "C")
			if !inTxn {
				continue
			}
			inTxn = false
			if poisoned {
				continue
			}
			m.commits++
			last := map[string]scriptItem{}
			for _, w := range buffered {
				last[w.key] = w
				if w.del {
					delete(m.table, w.key)
				} else {
					m.table[w.key] = w.val
				}
			}
			if len(last) > 0 {
				rows := make([]string, 0, len(last))
				for _, w := range last {
					rows = append(rows, rowSig(Tuple{Key: w.key, Value: []byte(w.val), Delete: w.del}))
				}
				sort.Strings(rows)
				m.feed = append(m.feed, strings.Join(rows, ","))
			}
		case KindRollback:
			m.sequence = append(m.sequence, "R")
			if !inTxn {
				continue
			}
			inTxn = false
			// A rollback counts one abort unless a poisoning abort of the
			// same transaction already counted it: one abort per
			// transaction, wherever batches are cut.
			if !poisoned {
				m.aborts++
			}
		}
	}
	return m
}

// runVectorized executes the same script through the real engine.
func runVectorized(t *testing.T, script []scriptItem, punctuateN int, failAt int64) (sig []string, rows map[string]string, stats *ToTableStats) {
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
	p := &faultProtocol{Protocol: txn.NewSI(ctx), failAt: failAt}

	top := New("prop")
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
	s := src.Punctuate(punctuateN).Transactions(p)
	s, stats = s.ToTable(p, tbl)
	collected := s.Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range <-collected {
		switch e.Kind {
		case KindBOT:
			sig = append(sig, "B")
		case KindData:
			sig = append(sig, "D:"+e.Tuple.Key)
			if e.Tx == nil {
				t.Fatal("data element lost its transaction handle")
			}
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

// TestPropertyVectorizedEquivalence: for random scripts, punctuation
// intervals and injected abort positions, the vectorized pipeline must
// produce the exact element sequence, table content and stats of the
// per-element reference semantics.
func TestPropertyVectorizedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			script := genScript(rng)
			punctuateN := 1 + rng.Intn(7)
			var failAt int64
			if rng.Intn(2) == 0 {
				failAt = int64(1 + rng.Intn(50))
			}

			want := runRef(script, punctuateN, failAt)
			sig, rows, stats := runVectorized(t, script, punctuateN, failAt)

			if fmt.Sprint(sig) != fmt.Sprint(want.sequence) {
				t.Fatalf("element sequence diverged (punctuate=%d failAt=%d):\n got %v\nwant %v",
					punctuateN, failAt, sig, want.sequence)
			}
			if fmt.Sprint(rows) != fmt.Sprint(want.table) {
				t.Fatalf("table content diverged:\n got %v\nwant %v", rows, want.table)
			}
			if stats.Writes.Load() != want.writes ||
				stats.Commits.Load() != want.commits ||
				stats.Aborts.Load() != want.aborts {
				t.Fatalf("stats diverged: got w=%d c=%d a=%d, want w=%d c=%d a=%d",
					stats.Writes.Load(), stats.Commits.Load(), stats.Aborts.Load(),
					want.writes, want.commits, want.aborts)
			}
		})
	}
}

// runParallel executes the script through a parallel keyed region with
// the given lane count (Parallelize → per-lane ToTable → Merge).
func runParallel(t *testing.T, script []scriptItem, punctuateN, lanes int, proto func(*txn.Context) txn.Protocol) (sig []string, rows map[string]string, stats *ToTableStats) {
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

	top := New("prop-lanes")
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
	region := src.Punctuate(punctuateN).Transactions(p).Parallelize(lanes, nil)
	stats = region.ToTable(p, tbl)
	collected := region.Merge("merge").Collect()
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

// sigStructure reduces an element signature to the parts a parallel
// region must preserve: the exact punctuation sequence, and the multiset
// of data keys between consecutive punctuations (cross-key order within
// a transaction is explicitly unordered across lanes).
func sigStructure(sig []string) (punct string, segments []string) {
	var cur []string
	flush := func() {
		sort.Strings(cur)
		segments = append(segments, strings.Join(cur, ","))
		cur = nil
	}
	for _, s := range sig {
		if strings.HasPrefix(s, "D:") {
			cur = append(cur, s[2:])
			continue
		}
		flush()
		punct += s
	}
	flush()
	return punct, segments
}

// TestPropertyLaneCountEquivalence: for random scripts, every lane count
// must produce the same committed table contents, the same stats, the
// same punctuation sequence and the same per-transaction element
// multisets as the sequential reference model — the convergence
// obligation of the parallel region (all lanes agree on transaction
// boundaries; final state equals the sequential run).
func TestPropertyLaneCountEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			script := genScript(rng)
			punctuateN := 1 + rng.Intn(7)

			want := runRef(script, punctuateN, 0)
			wantPunct, wantSegs := sigStructure(want.sequence)

			for _, lanes := range []int{1, 2, 4, 8} {
				sig, rows, stats := runParallel(t, script, punctuateN, lanes, func(c *txn.Context) txn.Protocol { return txn.NewSI(c) })
				gotPunct, gotSegs := sigStructure(sig)
				if gotPunct != wantPunct {
					t.Fatalf("lanes=%d: punctuation sequence diverged:\n got %q\nwant %q", lanes, gotPunct, wantPunct)
				}
				if fmt.Sprint(gotSegs) != fmt.Sprint(wantSegs) {
					t.Fatalf("lanes=%d: per-transaction element multisets diverged:\n got %v\nwant %v", lanes, gotSegs, wantSegs)
				}
				if fmt.Sprint(rows) != fmt.Sprint(want.table) {
					t.Fatalf("lanes=%d: table content diverged:\n got %v\nwant %v", lanes, rows, want.table)
				}
				if stats.Writes.Load() != want.writes ||
					stats.Commits.Load() != want.commits ||
					stats.Aborts.Load() != want.aborts {
					t.Fatalf("lanes=%d: stats diverged: got w=%d c=%d a=%d, want w=%d c=%d a=%d",
						lanes, stats.Writes.Load(), stats.Commits.Load(), stats.Aborts.Load(),
						want.writes, want.commits, want.aborts)
				}
			}
		})
	}
}

// TestPropertyLane1FaultEquivalence: a single-lane region processes
// elements in sequential order and flushes whole transactions, so with
// injected mid-transaction write failures it must reproduce the
// sequential reference EXACTLY — element sequence, table contents and
// stats. This is the regression for the poison-wipe bug: with one lane a
// whole [BOT .. COMMIT BOT ..] run arrives as one batch whose stage
// flushes (and thus poisoning) all happen before the barrier syncs, so a
// BOT-keyed poison reset would erase the failure the same batch's COMMIT
// must observe — committing a transaction whose writes never applied.
func TestPropertyLane1FaultEquivalence(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			script := genScript(rng)
			punctuateN := 1 + rng.Intn(7)
			failAt := int64(1 + rng.Intn(50))

			want := runRef(script, punctuateN, failAt)
			sig, rows, stats := runParallel(t, script, punctuateN, 1, func(c *txn.Context) txn.Protocol {
				return &faultProtocol{Protocol: txn.NewSI(c), failAt: failAt}
			})
			if fmt.Sprint(sig) != fmt.Sprint(want.sequence) {
				t.Fatalf("element sequence diverged (punctuate=%d failAt=%d):\n got %v\nwant %v",
					punctuateN, failAt, sig, want.sequence)
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

// TestLaneEquivalenceAllProtocols drives the parallel region through all
// three protocols' WriteSegment (S2PL's takes its locks lane-side).
func TestLaneEquivalenceAllProtocols(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	script := genScript(rng)
	const punctuateN = 5
	want := runRef(script, punctuateN, 0)
	protos := map[string]func(*txn.Context) txn.Protocol{
		"mvcc": func(c *txn.Context) txn.Protocol { return txn.NewSI(c) },
		"s2pl": func(c *txn.Context) txn.Protocol { return txn.NewS2PL(c) },
		"bocc": func(c *txn.Context) txn.Protocol { return txn.NewBOCC(c) },
	}
	for name, proto := range protos {
		t.Run(name, func(t *testing.T) {
			_, rows, stats := runParallel(t, script, punctuateN, 4, proto)
			if fmt.Sprint(rows) != fmt.Sprint(want.table) {
				t.Fatalf("table content diverged:\n got %v\nwant %v", rows, want.table)
			}
			if stats.Writes.Load() != want.writes || stats.Commits.Load() != want.commits {
				t.Fatalf("stats diverged: got w=%d c=%d, want w=%d c=%d",
					stats.Writes.Load(), stats.Commits.Load(), want.writes, want.commits)
			}
		})
	}
}

// batchFeed injects pre-built batches into a raw edge, giving tests
// deterministic control over where batch boundaries fall.
func batchFeed(top *Topology, batches [][]Element) *Stream {
	out := top.newStream()
	top.spawn("batchfeed", func() {
		defer close(out.ch)
		<-top.start
		for _, b := range batches {
			nb := getBatch()
			nb = append(nb, b...)
			out.ch <- nb
		}
	})
	return out
}

// TestBatchBoundaryMidTransaction drives batches whose BOT and COMMIT
// punctuations land mid-batch and whose transactions span batch
// boundaries: the engine must split on the in-band punctuations exactly.
func TestBatchBoundaryMidTransaction(t *testing.T) {
	e := newStreamEnv(t)
	top := New("t")
	d := func(key, val string) Element {
		return DataElement(Tuple{Key: key, Value: []byte(val)})
	}
	batches := [][]Element{
		// txn 1 committed mid-batch; txn 2 opens in the same batch.
		{Punctuation(KindBOT), d("a", "1"), d("b", "2"), Punctuation(KindCommit), Punctuation(KindBOT), d("c", "3")},
		// txn 2 spans the boundary and commits mid-batch; txn 3 opens.
		{d("d", "4"), Punctuation(KindCommit), Punctuation(KindBOT), d("a", "5")},
		// a batch holding only punctuations: txn 3 rolls back, txn 4 is empty.
		{Punctuation(KindRollback), Punctuation(KindBOT), Punctuation(KindCommit)},
	}
	s := batchFeed(top, batches).Transactions(e.p)
	s, stats := s.ToTable(e.p, e.t1)
	collected := s.Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	els := <-collected
	if k := kinds(els); k != "BDDCBDDCBDRBC" {
		t.Fatalf("punctuation positions not preserved: %q", k)
	}
	if stats.Writes.Load() != 5 || stats.Commits.Load() != 3 || stats.Aborts.Load() != 1 {
		t.Fatalf("stats: writes=%d commits=%d aborts=%d",
			stats.Writes.Load(), stats.Commits.Load(), stats.Aborts.Load())
	}
	rows, err := TableSnapshot(e.p, e.t1)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.Key] = string(r.Value)
	}
	// txn 3 (a=5) rolled back: a keeps txn 1's value.
	want := map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("table content: got %v want %v", got, want)
	}
}
