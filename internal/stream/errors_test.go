package stream

import (
	"errors"
	"strings"
	"testing"

	"sistream/internal/kv"
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
	mustPanic("punctuate-0", func() { s.Punctuate(0) })
	mustPanic("sliding-0", func() { s.SlidingWindow("w", 0, Sum) })
	mustPanic("tumbling-0", func() { s.TumblingWindow("w", 0, Sum) })
	mustPanic("merge-empty", func() { Merge("m") })
	s.Discard()
	_ = top.Run()
}

func TestToStreamPanicsWithoutGroup(t *testing.T) {
	e := newStreamEnv(t)
	store := kv.NewMem()
	defer store.Close()
	orphan, err := txn.NewContext().CreateTable("orphan", store, txn.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ToStream on a group-less table must panic")
		}
	}()
	ToStream(New("t"), orphan, e.p)
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
