package txn

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		StatusActive: "Active",
		StatusCommit: "Commit",
		StatusAbort:  "Abort",
		Status(9):    "Status(9)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestErrorClassification(t *testing.T) {
	for _, err := range []error{ErrAborted, ErrConflict, ErrValidation, ErrDeadlock} {
		if !IsAbort(err) {
			t.Fatalf("%v not classified as abort", err)
		}
	}
	for _, err := range []error{ErrFinished, ErrUnknownState, ErrTooManyTxns, nil} {
		if IsAbort(err) {
			t.Fatalf("%v wrongly classified as abort", err)
		}
	}
	if !strings.Contains(ErrConflict.Error(), "first-committer-wins") {
		t.Fatalf("conflict error message: %v", ErrConflict)
	}
}

func TestTxnAccessors(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if tx.ID() == 0 {
		t.Fatal("zero transaction id")
	}
	if tx.ReadOnly() {
		t.Fatal("read-write txn reports read-only")
	}
	select {
	case <-tx.Done():
		t.Fatal("done before finish")
	default:
	}
	mustCommit(t, p, tx)
	select {
	case <-tx.Done():
	default:
		t.Fatal("done not closed after commit")
	}

	r, err := p.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	if !r.ReadOnly() {
		t.Fatal("read-only txn reports read-write")
	}
	if err := p.Abort(r); err != nil {
		t.Fatal(err)
	}
	select {
	case <-r.Done():
	default:
		t.Fatal("done not closed after abort")
	}
}

// TestDoneRacesDecision: Done makes its channel only when asked, so the
// first Done call races the commit or abort that closes it. Whichever
// wins, every channel Done returns must close — a channel made after the
// decision looked for one would never be closed, and its waiter would
// hang. One waiter asks before the race, one during it, one after it.
func TestDoneRacesDecision(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	closed := func(ch <-chan struct{}, what string, i int) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: the %s Done channel never closed", i, what)
		}
	}
	for i := range 2000 {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(tx, e.t1, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		var early <-chan struct{}
		if i%3 == 0 {
			early = tx.Done()
		}
		var racing <-chan struct{}
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			racing = tx.Done()
		}()
		go func() {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				err = p.Commit(tx)
			} else {
				err = p.Abort(tx)
			}
		}()
		close(start)
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: decision: %v", i, err)
		}
		if early != nil {
			closed(early, "early", i)
		}
		closed(racing, "racing", i)
		closed(tx.Done(), "late", i)
	}
}

func TestGroupAccessors(t *testing.T) {
	e := newEnv(t)
	if e.group.ID() != "g" {
		t.Fatalf("group id %q", e.group.ID())
	}
	if len(e.group.Tables()) != 2 {
		t.Fatalf("group tables: %d", len(e.group.Tables()))
	}
	if e.t1.Group() != e.group || e.t1.ID() != "state1" {
		t.Fatal("table accessors broken")
	}
}

func TestDeclareValidation(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	orphan, err := e.ctx.CreateTable("orphan2", e.store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := p.Begin()
	if err := tx.Declare(orphan); err == nil {
		t.Fatal("declared a group-less table")
	}
	if err := tx.Declare(e.t1, e.t2); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, tx)
	if err := tx.Declare(e.t1); err != ErrFinished {
		t.Fatalf("declare after finish: %v", err)
	}
}

// TestCommitStateOnUntouchedTable: flagging a state the transaction never
// wrote registers an empty entry and participates in coordination.
func TestCommitStateOnUntouchedTable(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	tx, _ := p.Begin()
	if err := p.Write(tx, e.t1, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Flag t2 first (untouched): not the last state, so no commit yet.
	if err := p.CommitState(tx, e.t2); err != nil {
		t.Fatal(err)
	}
	if _, ok := readOne(t, p, e.t1, "k"); ok {
		t.Fatal("committed early")
	}
	if err := p.CommitState(tx, e.t1); err != nil {
		t.Fatal(err)
	}
	if v, ok := readOne(t, p, e.t1, "k"); !ok || v != "v" {
		t.Fatalf("after full commit: %q %v", v, ok)
	}
}

// TestReadAtSnapshots: the exported snapshot reader used by TO_STREAM.
func TestReadAt(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	write(t, p, e.t1, "k", "v1")
	cts1 := e.group.LastCTS()
	write(t, p, e.t1, "k", "v2")
	cts2 := e.group.LastCTS()
	if v, ok := e.t1.ReadAt("k", cts1); !ok || string(v) != "v1" {
		t.Fatalf("ReadAt(cts1) = %q %v", v, ok)
	}
	if v, ok := e.t1.ReadAt("k", cts2); !ok || string(v) != "v2" {
		t.Fatalf("ReadAt(cts2) = %q %v", v, ok)
	}
	if _, ok := e.t1.ReadAt("k", cts1-1); ok {
		t.Fatal("ReadAt before first commit returned a version")
	}
	if _, ok := e.t1.ReadAt("absent", cts2); ok {
		t.Fatal("ReadAt on absent key returned a version")
	}
}
