package stream

import (
	"errors"
	"strings"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/leaktest"
	"sistream/internal/txn"
)

func TestSourceErrorPropagates(t *testing.T) {
	top := New("t")
	boom := errors.New("sensor offline")
	s := top.Source("bad", func(emit func(Element)) error {
		emit(DataElement(Tuple{Key: "a"}))
		return boom
	})
	s.Discard()
	err := top.Run()
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("source error lost: %v", err)
	}
	if !strings.Contains(err.Error(), "t/bad") {
		t.Fatalf("error lacks topology/operator context: %v", err)
	}
}

func TestFirstErrorWins(t *testing.T) {
	top := New("t")
	a := top.Source("a", func(func(Element)) error { return errors.New("first") })
	b := top.Source("b", func(func(Element)) error { return errors.New("second") })
	a.Discard()
	b.Discard()
	if err := top.Run(); err == nil {
		t.Fatal("errors swallowed")
	}
}

func TestStartIdempotent(t *testing.T) {
	top := New("t")
	top.SliceSource("src", tuples("a")).Discard()
	top.Start()
	top.Start() // second call must not panic (double close)
	if err := top.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestOperatorPanicsOnBadArguments(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	top := New("t")
	s := top.SliceSource("src", nil)
	mustPanic("sliding-0", func() { s.SlidingWindow("w", 0, Sum) })
	mustPanic("tumbling-0", func() { s.TumblingWindow("w", 0, Sum) })
	mustPanic("merge-empty", func() { Merge("m") })
	s.Discard()
	_ = top.Run()
}

// runsNothing builds Source→build→ToTable(t1)→Sink over a fresh
// environment, where build makes one invalid fused-stage construction,
// and checks that Run returns that construction error (want names it),
// that no element reaches the sink, that nothing is written or committed,
// and that no goroutine is left behind.
func runsNothing(t *testing.T, want string, build func(s *Stream, p txn.Protocol, tables ...*txn.Table) *Stream) {
	t.Helper()
	leaktest.Check(t)
	e := newStreamEnv(t)
	top := New("t")
	s := top.Source("src", func(emit func(Element)) error {
		for _, tp := range tuples("a", "b", "c", "d") {
			emit(DataElement(tp))
		}
		return nil
	})
	s, stats := build(s, e.p, e.t1).ToTable(e.p, e.t1)
	seen := 0
	s.Sink("sink", func(Element) { seen++ })
	err := top.Run()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run returned %v, want the construction error naming %q", err, want)
	}
	if seen != 0 || stats.Writes.Load() != 0 || stats.Commits.Load() != 0 {
		t.Fatalf("an invalid topology ran: %d elements, %d writes, %d commits", seen, stats.Writes.Load(), stats.Commits.Load())
	}
	if rows, err := TableSnapshot(e.p, e.t1); err != nil || len(rows) != 0 {
		t.Fatalf("table after an invalid topology: %v, %v", rows, err)
	}
}

// TestPunctuateRejectsNonPositiveN: Punctuate(n < 1) is a construction
// error that Run returns, not a panic.
func TestPunctuateRejectsNonPositiveN(t *testing.T) {
	runsNothing(t, "Punctuate needs n >= 1", func(s *Stream, p txn.Protocol, tables ...*txn.Table) *Stream {
		return s.Punctuate(0).Transactions(p, tables...)
	})
}

// TestTransactionsWindowRejectsNonPositiveWindow: TransactionsWindow with
// a window below one is a construction error that Run returns.
func TestTransactionsWindowRejectsNonPositiveWindow(t *testing.T) {
	runsNothing(t, "TransactionsWindow needs window >= 1", func(s *Stream, p txn.Protocol, tables ...*txn.Table) *Stream {
		return s.Punctuate(2).TransactionsWindow(p, 0, tables...)
	})
}

// TestTransactionsTunedRejectsNilTuner: TransactionsTuned without a tuner
// is a construction error that Run returns.
func TestTransactionsTunedRejectsNilTuner(t *testing.T) {
	runsNothing(t, "TransactionsTuned needs a tuner", func(s *Stream, p txn.Protocol, tables ...*txn.Table) *Stream {
		return s.Punctuate(2).TransactionsTuned(p, nil, tables...)
	})
}

// TestFeedRejectsInvalidSource: FromTablePartitioned with parts < 1, and
// ToStream over a table in no group, are construction errors that Run
// returns, not panics: no element reaches the sink and no goroutine is
// left behind.
func TestFeedRejectsInvalidSource(t *testing.T) {
	e := newStreamEnv(t)
	store := kv.NewMem()
	defer store.Close()
	orphan, err := txn.NewContext().CreateTable("orphan", store, txn.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, want string
		build      func(top *Topology) *Stream
	}{
		{"parts=0", "needs parts >= 1", func(top *Topology) *Stream {
			r, _ := FromTablePartitioned(top, e.t1, 0, nil)
			return r.Merge("merge")
		}},
		{"no group", `"orphan"`, func(top *Topology) *Stream {
			s, _ := ToStream(top, orphan, e.p)
			return s
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			leaktest.Check(t)
			top := New("t")
			seen := 0
			c.build(top).Sink("sink", func(Element) { seen++ })
			err := top.Run()
			if err == nil || !strings.Contains(err.Error(), "t/from_table/") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Run returned %v, want the feed's construction error naming %s", err, c.want)
			}
			if seen != 0 {
				t.Fatalf("an invalid feed emitted %d elements", seen)
			}
		})
	}
}

// KindString covers the Kind stringer including the unknown branch.
func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindData:     "DATA",
		KindBOT:      "BOT",
		KindCommit:   "COMMIT",
		KindRollback: "ROLLBACK",
		Kind(99):     "Kind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestHubAfterClose(t *testing.T) {
	top := New("t")
	hub := top.SliceSource("src", tuples("a")).Hub()
	early, detach := hub.Attach()
	earlyOut := early.Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	<-earlyOut
	detach() // detach after hub finished: must be a no-op
	// Attaching after the hub's input closed yields a closed stream.
	late, lateDetach := hub.Attach()
	defer lateDetach()
	if _, ok := <-late.ch; ok {
		t.Fatal("post-close attach delivered an element")
	}
}
