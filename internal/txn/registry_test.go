package txn

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sistream/internal/kv"
)

// scanGate is a store whose Scan waits until gate is closed, so a test can
// hold CreateGroup in the middle of its recovery.
type scanGate struct {
	kv.Store
	entered chan struct{}
	gate    chan struct{}
}

func (s *scanGate) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	close(s.entered)
	<-s.gate
	return s.Store.Scan(start, end, fn)
}

// TestRegistryNeverWaitsForRecovery: the registry's latch guards its maps
// only. While CreateGroup is loading a group's recovered rows, a lookup,
// the creation of another table and the poisoning scan all go ahead.
func TestRegistryNeverWaitsForRecovery(t *testing.T) {
	store := kv.NewMem()
	defer store.Close()
	{
		ctx := NewContext()
		tbl, _ := ctx.CreateTable("s", store, TableOptions{})
		if _, err := ctx.CreateGroup("g", tbl); err != nil {
			t.Fatal(err)
		}
		write(t, NewSI(ctx), tbl, "k", "v")
	}
	ctx := NewContext()
	held := &scanGate{Store: store, entered: make(chan struct{}), gate: make(chan struct{})}
	tbl, err := ctx.CreateTable("s", held, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	created := make(chan error, 1)
	go func() {
		_, err := ctx.CreateGroup("g", tbl)
		created <- err
	}()
	<-held.entered

	done := make(chan struct{})
	go func() {
		defer close(done)
		if got, ok := ctx.Table("s"); !ok || got != tbl {
			t.Error("lookup during recovery failed")
		}
		if _, err := ctx.CreateTable("other", held, TableOptions{}); err != nil {
			t.Error(err)
		}
		ctx.failAllGroups(errors.New("no group is registered yet"))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the registry waited for a CreateGroup recovery")
	}
	close(held.gate)
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if v, ok := tbl.ReadAt("k", tbl.Group().LastCTS()); !ok || string(v) != "v" {
		t.Fatalf("recovered k = %q %v, want v", v, ok)
	}
}

// TestMultiStateAtomicityUnderRegistryLookups: a multi-state transaction
// becomes visible all-or-nothing to concurrent read-only transactions that
// resolve both tables by name on every iteration, as an ad-hoc query
// would. Visibility is one LastCTS publish, wherever the states live in
// the registry.
func TestMultiStateAtomicityUnderRegistryLookups(t *testing.T) {
	const idA, idB = StateID("left"), StateID("right")
	ctx := NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	ta, err := ctx.CreateTable(idA, store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := ctx.CreateTable(idB, store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("xg", ta, tb); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)

	seed, _ := p.Begin()
	if err := p.Write(seed, ta, "pair", encodeU64(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(seed, tb, "pair", encodeU64(0)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, seed)

	h := newHammer(t)
	var checked atomic.Int64
	h.spawn(4, func(int) bool {
		tx, err := p.BeginReadOnly()
		if err != nil {
			t.Error(err)
			return false
		}
		rta, ok1 := ctx.Table(idA)
		rtb, ok2 := ctx.Table(idB)
		if !ok1 || !ok2 {
			t.Error("registry lookup failed mid-run")
			return false
		}
		va, oka, erra := p.Read(tx, rta, "pair")
		vb, okb, errb := p.Read(tx, rtb, "pair")
		if erra != nil || errb != nil {
			t.Errorf("snapshot reads: %v %v", erra, errb)
			return false
		}
		a, b := decodeU64(va), decodeU64(vb)
		if err := p.Commit(tx); err != nil {
			t.Errorf("read-only commit: %v", err)
			return false
		}
		if !oka || !okb || a != b {
			t.Errorf("torn multi-state commit observed: %q=%d %q=%d", idA, a, idB, b)
			return false
		}
		checked.Add(1)
		return true
	})

	// Writer: bump both states in one transaction, some via Commit and
	// some via the per-state CommitState coordination.
	for i := uint64(1); i <= 400; i++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(tx, ta, "pair", encodeU64(i)); err != nil {
			t.Fatal(err)
		}
		if err := p.Write(tx, tb, "pair", encodeU64(i)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			mustCommit(t, p, tx)
		} else {
			if err := p.CommitState(tx, ta); err != nil {
				t.Fatal(err)
			}
			if err := p.CommitState(tx, tb); err != nil {
				t.Fatal(err)
			}
		}
		if i%32 == 0 {
			time.Sleep(time.Millisecond) // let readers interleave
		}
	}
	h.finish()
	if checked.Load() == 0 {
		t.Fatal("no reader ever validated a snapshot; test proved nothing")
	}
}
