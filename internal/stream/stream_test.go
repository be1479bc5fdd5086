package stream

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sistream/internal/kv"
	"sistream/internal/leaktest"
	"sistream/internal/txn"
)

func tuples(keys ...string) []Tuple {
	out := make([]Tuple, len(keys))
	for i, k := range keys {
		out[i] = Tuple{Key: k, Value: []byte("v-" + k), Num: float64(i), Ts: int64(i)}
	}
	return out
}

func dataKeys(els []Element) []string {
	var out []string
	for _, e := range els {
		if e.Kind == KindData {
			out = append(out, e.Tuple.Key)
		}
	}
	return out
}

func kinds(els []Element) string {
	var b strings.Builder
	for _, e := range els {
		switch e.Kind {
		case KindData:
			b.WriteByte('D')
		case KindBOT:
			b.WriteByte('B')
		case KindCommit:
			b.WriteByte('C')
		case KindRollback:
			b.WriteByte('R')
		}
	}
	return b.String()
}

func TestSourceMapFilterSink(t *testing.T) {
	top := New("t")
	out := top.SliceSource("src", tuples("a", "b", "c", "d")).
		Map("upper", func(tp Tuple) Tuple {
			tp.Key = strings.ToUpper(tp.Key)
			return tp
		}).
		Filter("not-b", func(tp Tuple) bool { return tp.Key != "B" }).
		Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	got := dataKeys(<-out)
	if fmt.Sprint(got) != "[A C D]" {
		t.Fatalf("got %v", got)
	}
}

func TestFlatMap(t *testing.T) {
	top := New("t")
	out := top.SliceSource("src", tuples("a", "b")).
		FlatMap("dup", func(tp Tuple, emit func(Tuple)) {
			emit(tp)
			tp.Key += "2"
			emit(tp)
		}).
		Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if got := dataKeys(<-out); fmt.Sprint(got) != "[a a2 b b2]" {
		t.Fatalf("got %v", got)
	}
}

func TestPunctuateBatches(t *testing.T) {
	top := New("t")
	out := top.SliceSource("src", tuples("a", "b", "c", "d", "e")).
		Punctuate(2).
		Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	els := <-out
	if k := kinds(els); k != "BDDCBDDCBDC" {
		t.Fatalf("punctuation pattern %q", k)
	}
}

func TestPunctuateRespectsExplicitBoundaries(t *testing.T) {
	top := New("t")
	src := top.Source("src", func(emit func(Element)) error {
		emit(Punctuation(KindBOT))
		emit(DataElement(Tuple{Key: "a"}))
		emit(DataElement(Tuple{Key: "b"}))
		emit(DataElement(Tuple{Key: "c"}))
		emit(Punctuation(KindCommit))
		return nil
	})
	out := src.Punctuate(1).Collect() // explicit boundaries win
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if k := kinds(<-out); k != "BDDDC" {
		t.Fatalf("pattern %q, want explicit BDDDC", k)
	}
}

func TestMergeAndSplit(t *testing.T) {
	top := New("t")
	a := top.SliceSource("a", tuples("a1", "a2"))
	b := top.SliceSource("b", tuples("b1", "b2"))
	merged := Merge("m", a, b)
	parts := merged.Split(2)
	c1 := parts[0].Collect()
	c2 := parts[1].Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	k1, k2 := dataKeys(<-c1), dataKeys(<-c2)
	if len(k1) != 4 || len(k2) != 4 {
		t.Fatalf("split lost elements: %v / %v", k1, k2)
	}
	if fmt.Sprint(k1) != fmt.Sprint(k2) {
		t.Fatalf("split outputs differ: %v vs %v", k1, k2)
	}
}

func TestHubAttachFromPointOfAttachment(t *testing.T) {
	top := New("t")
	gate := make(chan struct{})
	firstSeen := make(chan struct{})
	src := top.Source("src", func(emit func(Element)) error {
		emit(DataElement(Tuple{Key: "early"}))
		<-gate
		emit(DataElement(Tuple{Key: "late1"}))
		emit(DataElement(Tuple{Key: "late2"}))
		return nil
	})
	hub := src.Hub()
	early, _ := hub.Attach()
	var earlyKeys []string
	early.Sink("early", func(e Element) {
		earlyKeys = append(earlyKeys, e.Tuple.Key)
		if e.Tuple.Key == "early" {
			close(firstSeen)
		}
	})
	top.Start()
	<-firstSeen // the first element has been broadcast; hub is gated now
	lateSub, detach := hub.Attach()
	lateOut := lateSub.Collect()
	close(gate)
	if err := top.Wait(); err != nil {
		t.Fatal(err)
	}
	defer detach()
	if fmt.Sprint(earlyKeys) != "[early late1 late2]" {
		t.Fatalf("early subscriber: %v", earlyKeys)
	}
	// The late subscriber attached strictly after "early" was broadcast
	// and before the gate opened: it sees exactly the suffix.
	if got := dataKeys(<-lateOut); fmt.Sprint(got) != "[late1 late2]" {
		t.Fatalf("late subscriber: %v", got)
	}
}

func TestSlidingWindowAggregate(t *testing.T) {
	top := New("t")
	var in []Tuple
	for i := 1; i <= 5; i++ {
		in = append(in, Tuple{Key: "m", Num: float64(i)})
	}
	out := top.SliceSource("src", in).
		SlidingWindow("w", 3, Sum).
		Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	var sums []float64
	for _, e := range <-out {
		sums = append(sums, e.Tuple.Num)
	}
	// windows: [1]=1 [1,2]=3 [1,2,3]=6 [2,3,4]=9 [3,4,5]=12
	if fmt.Sprint(sums) != "[1 3 6 9 12]" {
		t.Fatalf("sliding sums %v", sums)
	}
}

func TestSlidingWindowPerKey(t *testing.T) {
	top := New("t")
	in := []Tuple{
		{Key: "a", Num: 1}, {Key: "b", Num: 10},
		{Key: "a", Num: 2}, {Key: "b", Num: 20},
	}
	out := top.SliceSource("src", in).SlidingWindow("w", 2, Avg).Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range <-out {
		got = append(got, fmt.Sprintf("%s:%g", e.Tuple.Key, e.Tuple.Num))
	}
	if fmt.Sprint(got) != "[a:1 b:10 a:1.5 b:15]" {
		t.Fatalf("per-key windows: %v", got)
	}
}

func TestTumblingWindow(t *testing.T) {
	top := New("t")
	in := []Tuple{
		{Key: "m", Num: 1, Ts: 0}, {Key: "m", Num: 2, Ts: 5}, // window [0,10)
		{Key: "m", Num: 3, Ts: 12}, // window [10,20)
		{Key: "m", Num: 5, Ts: 25}, // window [20,30)
	}
	out := top.SliceSource("src", in).TumblingWindow("w", 10, Sum).Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range <-out {
		got = append(got, fmt.Sprintf("%d:%g", e.Tuple.Ts, e.Tuple.Num))
	}
	if fmt.Sprint(got) != "[0:3 10:3 20:5]" {
		t.Fatalf("tumbling windows: %v", got)
	}
}

func TestAggFuncs(t *testing.T) {
	vs := []float64{3, 1, 4, 1, 5}
	if Sum(vs) != 14 || Min(vs) != 1 || Max(vs) != 5 || Count(vs) != 5 {
		t.Fatal("agg funcs broken")
	}
	if Avg(vs) != 2.8 {
		t.Fatalf("avg = %g", Avg(vs))
	}
	if Avg(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty-window aggs should be 0")
	}
}

// streamEnv builds a transactional environment for linking-operator tests.
type streamEnv struct {
	ctx *txn.Context
	p   txn.Protocol
	t1  *txn.Table
	t2  *txn.Table
}

func newStreamEnv(t *testing.T) *streamEnv {
	t.Helper()
	ctx := txn.NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	t1, err := ctx.CreateTable("s1", store, txn.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ctx.CreateTable("s2", store, txn.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", t1, t2); err != nil {
		t.Fatal(err)
	}
	return &streamEnv{ctx: ctx, p: txn.NewSI(ctx), t1: t1, t2: t2}
}

// TestToTableRunsWithoutConsumer: a ToTable writes whether or not its
// output is used — Start discards a stream that carries a ToTable and
// that nothing consumes, also when a further stage was derived from it.
// An operator goroutine would block on its full output edge after a few
// batches and hang Run; a fused stage that nothing runs would write
// nothing.
func TestToTableRunsWithoutConsumer(t *testing.T) {
	for _, c := range []struct {
		name   string
		n      int
		derive bool
	}{
		{"10 tuples", 10, false},
		{"40 batches", 40 * batchCap, false},
		{"40 batches, derived stream ignored", 40 * batchCap, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			leaktest.Check(t)
			e := newStreamEnv(t)
			in := make([]Tuple, c.n)
			for i := range in {
				in[i] = Tuple{Key: fmt.Sprintf("k%05d", i), Value: []byte("v")}
			}
			top := New("unconsumed")
			out, stats := top.SliceSource("src", in).Punctuate(5).Transactions(e.p).ToTable(e.p, e.t1)
			if c.derive {
				out.Map("ignored", func(tp Tuple) Tuple { return tp })
			}
			done := make(chan error, 1)
			go func() { done <- top.Run() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("Run did not return: commits stopped at %d", stats.Commits.Load())
			}
			if cm, w := stats.Commits.Load(), stats.Writes.Load(); cm != int64(c.n/5) || w != int64(c.n) {
				t.Fatalf("commits=%d writes=%d, want %d and %d", cm, w, c.n/5, c.n)
			}
			rows, err := TableSnapshot(e.p, e.t1)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != c.n {
				t.Fatalf("table holds %d rows, want %d", len(rows), c.n)
			}
		})
	}
}

func TestToTableCommitsBatches(t *testing.T) {
	e := newStreamEnv(t)
	top := New("t")
	s := top.SliceSource("src", tuples("a", "b", "c", "d")).
		Punctuate(2).
		Transactions(e.p)
	s, stats := s.ToTable(e.p, e.t1)
	s.Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.Writes.Load() != 4 || stats.Commits.Load() != 2 || stats.Aborts.Load() != 0 {
		t.Fatalf("stats: writes=%d commits=%d aborts=%d",
			stats.Writes.Load(), stats.Commits.Load(), stats.Aborts.Load())
	}
	rows, err := TableSnapshot(e.p, e.t1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("table has %d rows", len(rows))
	}
}

func TestToTableRollbackDiscards(t *testing.T) {
	e := newStreamEnv(t)
	top := New("t")
	src := top.Source("src", func(emit func(Element)) error {
		emit(Punctuation(KindBOT))
		emit(DataElement(Tuple{Key: "kept", Value: []byte("1")}))
		emit(Punctuation(KindCommit))
		emit(Punctuation(KindBOT))
		emit(DataElement(Tuple{Key: "doomed", Value: []byte("2")}))
		emit(Punctuation(KindRollback))
		return nil
	})
	s, stats := src.Transactions(e.p).ToTable(e.p, e.t1)
	s.Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.Commits.Load() != 1 || stats.Aborts.Load() != 1 {
		t.Fatalf("stats: commits=%d aborts=%d", stats.Commits.Load(), stats.Aborts.Load())
	}
	rows, err := TableSnapshot(e.p, e.t1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Key != "kept" {
		t.Fatalf("rows: %v", rows)
	}
}

func TestToTableDeleteTuple(t *testing.T) {
	e := newStreamEnv(t)
	top := New("t")
	src := top.Source("src", func(emit func(Element)) error {
		emit(Punctuation(KindBOT))
		emit(DataElement(Tuple{Key: "k", Value: []byte("v")}))
		emit(Punctuation(KindCommit))
		emit(Punctuation(KindBOT))
		emit(DataElement(Tuple{Key: "k", Delete: true}))
		emit(Punctuation(KindCommit))
		return nil
	})
	s, _ := src.Transactions(e.p).ToTable(e.p, e.t1)
	s.Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	rows, err := TableSnapshot(e.p, e.t1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("delete tuple ignored: %v", rows)
	}
}

// TestTwoStatesOneTransaction chains two ToTable operators: both states
// must be updated atomically by the shared transaction.
func TestTwoStatesOneTransaction(t *testing.T) {
	e := newStreamEnv(t)
	top := New("t")
	s := top.SliceSource("src", tuples("x", "y")).
		Punctuate(2).
		Transactions(e.p, e.t1, e.t2)
	s, st1 := s.ToTable(e.p, e.t1)
	s, st2 := s.ToTable(e.p, e.t2)
	s.Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if st1.Commits.Load() != 1 || st2.Commits.Load() != 1 {
		t.Fatalf("commits: %d / %d", st1.Commits.Load(), st2.Commits.Load())
	}
	r1, _ := TableSnapshot(e.p, e.t1)
	r2, _ := TableSnapshot(e.p, e.t2)
	if len(r1) != 2 || len(r2) != 2 {
		t.Fatalf("rows: %d / %d", len(r1), len(r2))
	}
	// Both states committed under the SAME timestamp (one transaction).
	if e.t1.Group().LastCTS() == 0 {
		t.Fatal("no commit recorded")
	}
}

func TestToStreamEmitsCommittedChanges(t *testing.T) {
	e := newStreamEnv(t)
	top := New("t")

	feed, stopFeed := ToStream(top, e.t1, e.p)
	got := make(chan Element, 16)
	// The feed frames each commit's rows with BOT/COMMIT punctuations
	// carrying the commit timestamp; the rows are the data elements.
	feed.Sink("collect", func(el Element) {
		if el.Kind == KindData {
			got <- el
		}
	})

	writer := top.SliceSource("src", []Tuple{
		{Key: "a", Value: []byte("1")},
		{Key: "b", Value: []byte("2")},
		{Key: "a", Value: []byte("3")},
	}).Punctuate(1).Transactions(e.p)
	writer, _ = writer.ToTable(e.p, e.t1)
	writer.Discard()

	top.Start()
	var vals []string
	for i := 0; i < 3; i++ {
		el := <-got
		vals = append(vals, fmt.Sprintf("%s=%s", el.Tuple.Key, el.Tuple.Value))
	}
	stopFeed()
	if err := top.Wait(); err != nil {
		t.Fatal(err)
	}
	// Values are as-of each commit: a=1, b=2, a=3 in commit order.
	if fmt.Sprint(vals) != "[a=1 b=2 a=3]" {
		t.Fatalf("feed values: %v", vals)
	}
}

func TestQueryKeysConsistentSnapshot(t *testing.T) {
	e := newStreamEnv(t)
	// Seed both states.
	tx, _ := e.p.Begin()
	e.p.Write(tx, e.t1, "k", []byte("1"))
	e.p.Write(tx, e.t2, "k", []byte("1"))
	if err := e.p.Commit(tx); err != nil {
		t.Fatal(err)
	}
	vals, err := QueryKeys(e.p, []TableKey{{e.t1, "k"}, {e.t2, "k"}, {e.t1, "absent"}})
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "1" || string(vals[1]) != "1" || vals[2] != nil {
		t.Fatalf("query: %q %q %q", vals[0], vals[1], vals[2])
	}
}

func TestTransactionsAbortsDanglingTxn(t *testing.T) {
	e := newStreamEnv(t)
	top := New("t")
	src := top.Source("src", func(emit func(Element)) error {
		emit(Punctuation(KindBOT))
		emit(DataElement(Tuple{Key: "k", Value: []byte("v")}))
		return nil // stream ends mid-transaction
	})
	s, stats := src.Transactions(e.p).ToTable(e.p, e.t1)
	s.Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.Commits.Load() != 0 {
		t.Fatal("dangling transaction committed")
	}
	if e.ctx.ActiveCount() != 0 {
		t.Fatalf("dangling transaction leaked: %d active", e.ctx.ActiveCount())
	}
	rows, _ := TableSnapshot(e.p, e.t1)
	if len(rows) != 0 {
		t.Fatalf("dangling writes visible: %v", rows)
	}
}
