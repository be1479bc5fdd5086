package txn

import (
	"fmt"
	"testing"

	"sistream/internal/kv"
)

// env bundles a context with two tables in one group over a shared
// in-memory store — the same shape as the paper's benchmark scenario.
type env struct {
	ctx   *Context
	store kv.Store
	t1    *Table
	t2    *Table
	group *Group
}

func newEnv(t testing.TB) *env {
	t.Helper()
	ctx := NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	t1, err := ctx.CreateTable("state1", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ctx.CreateTable("state2", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ctx.CreateGroup("g", t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	return &env{ctx: ctx, store: store, t1: t1, t2: t2, group: g}
}

func mustCommit(t testing.TB, p Protocol, tx *Txn) {
	t.Helper()
	if err := p.Commit(tx); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func write(t testing.TB, p Protocol, tbl *Table, kvs ...string) {
	t.Helper()
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(kvs); i += 2 {
		if err := p.Write(tx, tbl, kvs[i], []byte(kvs[i+1])); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, p, tx)
}

func readOne(t testing.TB, p Protocol, tbl *Table, key string) (string, bool) {
	t.Helper()
	tx, err := p.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := p.Read(tx, tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, tx)
	return string(v), ok
}

func TestSIBasicCommitVisibility(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	write(t, p, e.t1, "a", "1")
	if v, ok := readOne(t, p, e.t1, "a"); !ok || v != "1" {
		t.Fatalf("read after commit: %q %v", v, ok)
	}
	if _, ok := readOne(t, p, e.t1, "missing"); ok {
		t.Fatal("read of missing key succeeded")
	}
}

func TestSIReadYourOwnWrites(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	tx, _ := p.Begin()
	if err := p.Write(tx, e.t1, "k", []byte("mine")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := p.Read(tx, e.t1, "k")
	if err != nil || !ok || string(v) != "mine" {
		t.Fatalf("own write invisible: %q %v %v", v, ok, err)
	}
	if err := p.Delete(tx, e.t1, "k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := p.Read(tx, e.t1, "k"); ok {
		t.Fatal("own delete invisible")
	}
	mustCommit(t, p, tx)
}

func TestSIUncommittedInvisible(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	tx, _ := p.Begin()
	if err := p.Write(tx, e.t1, "k", []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if _, ok := readOne(t, p, e.t1, "k"); ok {
		t.Fatal("uncommitted write visible to other transaction")
	}
	mustCommit(t, p, tx)
	if v, ok := readOne(t, p, e.t1, "k"); !ok || v != "dirty" {
		t.Fatalf("committed write not visible: %q %v", v, ok)
	}
}

func TestSISnapshotStability(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	write(t, p, e.t1, "k", "v1")

	reader, _ := p.BeginReadOnly()
	v, ok, err := p.Read(reader, e.t1, "k")
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("first read: %q %v %v", v, ok, err)
	}

	write(t, p, e.t1, "k", "v2") // concurrent commit

	// The reader's snapshot is pinned: it must keep seeing v1.
	v, ok, err = p.Read(reader, e.t1, "k")
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("snapshot unstable: %q %v %v", v, ok, err)
	}
	mustCommit(t, p, reader)

	if v, _ := readOne(t, p, e.t1, "k"); v != "v2" {
		t.Fatalf("new reader should see v2, got %q", v)
	}
}

func TestSIAbortDiscardsWrites(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	write(t, p, e.t1, "k", "orig")
	tx, _ := p.Begin()
	if err := p.Write(tx, e.t1, "k", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := p.Abort(tx); err != nil {
		t.Fatal(err)
	}
	if v, _ := readOne(t, p, e.t1, "k"); v != "orig" {
		t.Fatalf("abort leaked: %q", v)
	}
	// Operations on the dead handle fail.
	if _, _, err := p.Read(tx, e.t1, "k"); err != ErrFinished {
		t.Fatalf("read after abort: %v", err)
	}
	if err := p.Write(tx, e.t1, "k", nil); err != ErrFinished {
		t.Fatalf("write after abort: %v", err)
	}
	if err := p.Commit(tx); err != ErrFinished {
		t.Fatalf("commit after abort: %v", err)
	}
	if err := p.Abort(tx); err != ErrFinished {
		t.Fatalf("double abort: %v", err)
	}
}

func TestSIFirstCommitterWins(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	write(t, p, e.t1, "k", "base")

	tx1, _ := p.Begin()
	tx2, _ := p.Begin()
	// Both read (pinning their snapshots), both write the same key.
	if _, _, err := p.Read(tx1, e.t1, "k"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Read(tx2, e.t1, "k"); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(tx1, e.t1, "k", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(tx2, e.t1, "k", []byte("two")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, tx1) // first committer wins
	err := p.Commit(tx2)
	if !IsAbort(err) {
		t.Fatalf("second committer must abort, got %v", err)
	}
	if v, _ := readOne(t, p, e.t1, "k"); v != "one" {
		t.Fatalf("winner's value lost: %q", v)
	}
}

func TestSIWriteWriteNoReadStillConflicts(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	tx1, _ := p.Begin()
	tx2, _ := p.Begin()
	if err := p.Write(tx1, e.t1, "blind", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(tx2, e.t1, "blind", []byte("2")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, tx1)
	// tx2 began before tx1 committed; FCW (latest > tx2's begin ts) fires.
	if err := p.Commit(tx2); !IsAbort(err) {
		t.Fatalf("blind write conflict missed: %v", err)
	}
}

func TestSISequentialWritersNoConflict(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	for i := 0; i < 10; i++ {
		write(t, p, e.t1, "k", fmt.Sprintf("v%d", i))
	}
	if v, _ := readOne(t, p, e.t1, "k"); v != "v9" {
		t.Fatalf("sequential writes broken: %q", v)
	}
}

func TestSIDeleteCommit(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	write(t, p, e.t1, "k", "v")

	reader, _ := p.BeginReadOnly()
	if _, ok, _ := p.Read(reader, e.t1, "k"); !ok {
		t.Fatal("pre-delete read failed")
	}

	tx, _ := p.Begin()
	if err := p.Delete(tx, e.t1, "k"); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, tx)

	// Old snapshot still sees it; new snapshot does not.
	if _, ok, _ := p.Read(reader, e.t1, "k"); !ok {
		t.Fatal("old snapshot lost deleted key")
	}
	mustCommit(t, p, reader)
	if _, ok := readOne(t, p, e.t1, "k"); ok {
		t.Fatal("delete not effective")
	}
	// Base store row is gone too.
	if _, found, _ := e.store.Get(e.t1.rowKey("k")); found {
		t.Fatal("base-table row survived the delete")
	}
}

// TestSIMultiStateAtomicVisibility is the heart of the consistency
// protocol (Section 4.3): a transaction writing both states must become
// visible in both at once — a reader pinned to one snapshot never sees
// state1's update without state2's.
func TestSIMultiStateAtomicVisibility(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	// Initial consistent pair.
	tx, _ := p.Begin()
	p.Write(tx, e.t1, "x", []byte("0"))
	p.Write(tx, e.t2, "x", []byte("0"))
	mustCommit(t, p, tx)

	for round := 1; round <= 5; round++ {
		val := []byte(fmt.Sprintf("%d", round))
		tx, _ := p.Begin()
		if err := p.Write(tx, e.t1, "x", val); err != nil {
			t.Fatal(err)
		}

		// A reader starting mid-transaction must see the OLD pair.
		r, _ := p.BeginReadOnly()
		v1, _, _ := p.Read(r, e.t1, "x")
		v2, _, _ := p.Read(r, e.t2, "x")
		if string(v1) != string(v2) {
			t.Fatalf("round %d: torn read %q vs %q", round, v1, v2)
		}
		mustCommit(t, p, r)

		if err := p.Write(tx, e.t2, "x", val); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, p, tx)

		// After commit both move together.
		r2, _ := p.BeginReadOnly()
		v1, _, _ = p.Read(r2, e.t1, "x")
		v2, _, _ = p.Read(r2, e.t2, "x")
		if string(v1) != string(v2) || string(v1) != string(val) {
			t.Fatalf("round %d: post-commit pair %q/%q want %q", round, v1, v2, val)
		}
		mustCommit(t, p, r2)
	}
}

// TestSICommitStateCoordinator exercises the per-state flag protocol: the
// operator that flips the last flag performs the global commit.
func TestSICommitStateCoordinator(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	tx, _ := p.Begin()
	p.Write(tx, e.t1, "k", []byte("v1"))
	p.Write(tx, e.t2, "k", []byte("v2"))

	// First state flagged: nothing visible yet.
	if err := p.CommitState(tx, e.t1); err != nil {
		t.Fatal(err)
	}
	if _, ok := readOne(t, p, e.t1, "k"); ok {
		t.Fatal("partial commit visible after first flag")
	}
	// Second (last) flag: this call coordinates the global commit.
	if err := p.CommitState(tx, e.t2); err != nil {
		t.Fatal(err)
	}
	if v, ok := readOne(t, p, e.t1, "k"); !ok || v != "v1" {
		t.Fatalf("state1 after global commit: %q %v", v, ok)
	}
	if v, ok := readOne(t, p, e.t2, "k"); !ok || v != "v2" {
		t.Fatalf("state2 after global commit: %q %v", v, ok)
	}
}

func TestSIAbortFlagAbortsGlobally(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	tx, _ := p.Begin()
	p.Write(tx, e.t1, "k", []byte("v1"))
	p.Write(tx, e.t2, "k", []byte("v2"))
	if err := p.CommitState(tx, e.t1); err != nil {
		t.Fatal(err)
	}
	if err := p.Abort(tx); err != nil {
		t.Fatal(err)
	}
	// CommitState on the aborted transaction fails, nothing visible.
	if err := p.CommitState(tx, e.t2); err != ErrFinished {
		t.Fatalf("commit-state after abort: %v", err)
	}
	if _, ok := readOne(t, p, e.t1, "k"); ok {
		t.Fatal("aborted write visible")
	}
}

func TestSIReadOnlyCannotWrite(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	tx, _ := p.BeginReadOnly()
	if err := p.Write(tx, e.t1, "k", []byte("v")); err == nil {
		t.Fatal("write in read-only transaction allowed")
	}
	mustCommit(t, p, tx)
}

func TestUnregisteredTableRejected(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	orphan, err := e.ctx.CreateTable("orphan", e.store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := p.Begin()
	if err := p.Write(tx, orphan, "k", nil); err == nil {
		t.Fatal("write to group-less table allowed")
	}
	if _, _, err := p.Read(tx, orphan, "k"); err == nil {
		t.Fatal("read from group-less table allowed")
	}
	mustCommit(t, p, tx)
}

func TestSIPersistenceAndRecovery(t *testing.T) {
	store := kv.NewMem() // shared across "restarts" (memory store stands in for disk)
	defer store.Close()

	// First incarnation: write and commit.
	ctx := NewContext()
	t1, _ := ctx.CreateTable("s1", store, TableOptions{SyncCommits: true})
	t2, _ := ctx.CreateTable("s2", store, TableOptions{SyncCommits: true})
	if _, err := ctx.CreateGroup("g", t1, t2); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	tx, _ := p.Begin()
	p.Write(tx, t1, "k1", []byte("v1"))
	p.Write(tx, t2, "k2", []byte("v2"))
	mustCommit(t, p, tx)
	lastCTS := t1.Group().LastCTS()

	// Second incarnation over the same base store.
	ctx2 := NewContext()
	r1, _ := ctx2.CreateTable("s1", store, TableOptions{})
	r2, _ := ctx2.CreateTable("s2", store, TableOptions{})
	g2, err := ctx2.CreateGroup("g", r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.LastCTS() != lastCTS {
		t.Fatalf("recovered LastCTS %d, want %d", g2.LastCTS(), lastCTS)
	}
	p2 := NewSI(ctx2)
	if v, ok := readOne(t, p2, r1, "k1"); !ok || v != "v1" {
		t.Fatalf("recovered k1: %q %v", v, ok)
	}
	if v, ok := readOne(t, p2, r2, "k2"); !ok || v != "v2" {
		t.Fatalf("recovered k2: %q %v", v, ok)
	}
	// New commits continue with larger timestamps.
	tx2, _ := p2.Begin()
	if tx2.ID() <= lastCTS {
		t.Fatalf("clock not advanced past recovery: %d <= %d", tx2.ID(), lastCTS)
	}
	p2.Write(tx2, r1, "k1", []byte("v1b"))
	mustCommit(t, p2, tx2)
	if v, _ := readOne(t, p2, r1, "k1"); v != "v1b" {
		t.Fatalf("post-recovery write: %q", v)
	}
}

func TestSIGarbageCollection(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	// Many updates of one key with no concurrent readers: GC keeps the
	// version array from growing without bound.
	for i := 0; i < 200; i++ {
		write(t, p, e.t1, "hot", fmt.Sprintf("v%d", i))
	}
	o := objectOf(e.t1, "hot", false)
	if o == nil {
		t.Fatal("object missing")
	}
	if o.Capacity() > 16 {
		t.Fatalf("version array grew to %d despite GC", o.Capacity())
	}
	if v, _ := readOne(t, p, e.t1, "hot"); v != "v199" {
		t.Fatalf("latest value lost: %q", v)
	}
}

func TestSIPinnedReaderBlocksGC(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	write(t, p, e.t1, "hot", "pinned")
	reader, _ := p.BeginReadOnly()
	if _, _, err := p.Read(reader, e.t1, "hot"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		write(t, p, e.t1, "hot", fmt.Sprintf("v%d", i))
	}
	// The reader's snapshot must have survived all that churn.
	v, ok, err := p.Read(reader, e.t1, "hot")
	if err != nil || !ok || string(v) != "pinned" {
		t.Fatalf("pinned snapshot lost: %q %v %v", v, ok, err)
	}
	mustCommit(t, p, reader)
}

func TestSnapshotScan(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	for i := 0; i < 10; i++ {
		write(t, p, e.t1, fmt.Sprintf("k%d", i), "v")
	}
	tx, _ := p.BeginReadOnly()
	rts := tx.pin(e.t1)
	n := 0
	e.t1.SnapshotScan(rts, func(_ string, _ []byte) bool { n++; return true })
	if n != 10 {
		t.Fatalf("scan saw %d keys", n)
	}
	// Early stop.
	n = 0
	e.t1.SnapshotScan(rts, func(_ string, _ []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
	mustCommit(t, p, tx)
}
