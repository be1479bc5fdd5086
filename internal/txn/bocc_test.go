package txn

import (
	"fmt"
	"sync"
	"testing"
)

func TestBOCCBasicCommit(t *testing.T) {
	e := newEnv(t)
	p := NewBOCC(e.ctx)
	write(t, p, e.t1, "a", "1")
	if v, ok := readOne(t, p, e.t1, "a"); !ok || v != "1" {
		t.Fatalf("read: %q %v", v, ok)
	}
}

func TestBOCCReadYourWrites(t *testing.T) {
	e := newEnv(t)
	p := NewBOCC(e.ctx)
	tx, _ := p.Begin()
	if err := p.Write(tx, e.t1, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := p.Read(tx, e.t1, "k"); !ok || string(v) != "v" {
		t.Fatalf("own write: %q %v", v, ok)
	}
	mustCommit(t, p, tx)
}

// TestBOCCValidationAbort is the canonical backward-validation case: a
// transaction reads a key, a concurrent transaction commits a write to
// that key, the reader-writer must abort at validation.
func TestBOCCValidationAbort(t *testing.T) {
	e := newEnv(t)
	p := NewBOCC(e.ctx)
	write(t, p, e.t1, "k", "v0")

	tx, _ := p.Begin()
	if _, _, err := p.Read(tx, e.t1, "k"); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(tx, e.t1, "other", []byte("x")); err != nil {
		t.Fatal(err)
	}

	write(t, p, e.t1, "k", "v1") // concurrent committer

	err := p.Commit(tx)
	if !IsAbort(err) {
		t.Fatalf("validation should abort, got %v", err)
	}
	if _, ok := readOne(t, p, e.t1, "other"); ok {
		t.Fatal("aborted write leaked")
	}
}

// TestBOCCReadOnlyValidates: even pure readers abort when a conflicting
// commit lands during their read phase — that is BOCC's consistency
// guarantee for ad-hoc queries.
func TestBOCCReadOnlyValidates(t *testing.T) {
	e := newEnv(t)
	p := NewBOCC(e.ctx)
	write(t, p, e.t1, "k", "v0")

	r, _ := p.BeginReadOnly()
	if _, _, err := p.Read(r, e.t1, "k"); err != nil {
		t.Fatal(err)
	}
	write(t, p, e.t1, "k", "v1")
	if err := p.Commit(r); !IsAbort(err) {
		t.Fatalf("read-only validation should abort, got %v", err)
	}

	// Without a conflicting commit the reader passes.
	r2, _ := p.BeginReadOnly()
	if _, _, err := p.Read(r2, e.t1, "k"); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, r2)
}

func TestBOCCDisjointKeysNoConflict(t *testing.T) {
	e := newEnv(t)
	p := NewBOCC(e.ctx)
	write(t, p, e.t1, "a", "1")
	write(t, p, e.t1, "b", "2")

	tx, _ := p.Begin()
	if _, _, err := p.Read(tx, e.t1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(tx, e.t1, "a", []byte("1x")); err != nil {
		t.Fatal(err)
	}
	write(t, p, e.t1, "b", "2x") // concurrent commit to a DIFFERENT key
	if err := p.Commit(tx); err != nil {
		t.Fatalf("disjoint commit should pass validation: %v", err)
	}
}

func TestBOCCBlindWritersBothCommit(t *testing.T) {
	// BOCC validates read sets only; two blind writers do not conflict.
	e := newEnv(t)
	p := NewBOCC(e.ctx)
	tx1, _ := p.Begin()
	tx2, _ := p.Begin()
	if err := p.Write(tx1, e.t1, "k", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(tx2, e.t1, "k", []byte("2")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, tx1)
	mustCommit(t, p, tx2)
	if v, _ := readOne(t, p, e.t1, "k"); v != "2" {
		t.Fatalf("last committer should win: %q", v)
	}
}

func TestBOCCAbortDiscards(t *testing.T) {
	e := newEnv(t)
	p := NewBOCC(e.ctx)
	tx, _ := p.Begin()
	if err := p.Write(tx, e.t1, "k", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := p.Abort(tx); err != nil {
		t.Fatal(err)
	}
	if _, ok := readOne(t, p, e.t1, "k"); ok {
		t.Fatal("aborted write visible")
	}
}

func TestBOCCHistoryPruned(t *testing.T) {
	e := newEnv(t)
	p := NewBOCC(e.ctx)
	// Many sequential committers with no concurrent transactions: the
	// history must stay bounded (pruning runs every 64 commits).
	for i := 0; i < 500; i++ {
		write(t, p, e.t1, fmt.Sprintf("k%d", i%10), "v")
	}
	if n := e.ctx.recent.Len(); n > 128 {
		t.Fatalf("BOCC history grew to %d records despite pruning", n)
	}
}

// TestBOCCNoLostUpdateUnderRetry: optimistic increments with retry must
// serialize exactly like S2PL.
func TestBOCCNoLostUpdateUnderRetry(t *testing.T) {
	e := newEnv(t)
	p := NewBOCC(e.ctx)
	write(t, p, e.t1, "ctr", "0")
	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for {
					tx, err := p.Begin()
					if err != nil {
						t.Error(err)
						return
					}
					v, _, err := p.Read(tx, e.t1, "ctr")
					if err != nil {
						t.Error(err)
						return
					}
					var n int
					fmt.Sscanf(string(v), "%d", &n)
					if err := p.Write(tx, e.t1, "ctr", []byte(fmt.Sprintf("%d", n+1))); err != nil {
						t.Error(err)
						return
					}
					if err := p.Commit(tx); err != nil {
						if IsAbort(err) {
							continue
						}
						t.Error(err)
						return
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	v, _ := readOne(t, p, e.t1, "ctr")
	if v != fmt.Sprintf("%d", workers*perWorker) {
		t.Fatalf("lost updates: counter = %q, want %d", v, workers*perWorker)
	}
}

func TestBOCCMultiStateAtomicity(t *testing.T) {
	e := newEnv(t)
	p := NewBOCC(e.ctx)
	tx, _ := p.Begin()
	p.Write(tx, e.t1, "x", []byte("A"))
	p.Write(tx, e.t2, "x", []byte("A"))
	mustCommit(t, p, tx)

	// A reader across both states either sees the pair or aborts — never
	// a torn pair, thanks to read-only validation.
	for round := 0; round < 20; round++ {
		val := []byte(fmt.Sprintf("%d", round))
		w, _ := p.Begin()
		p.Write(w, e.t1, "x", val)
		p.Write(w, e.t2, "x", val)

		r, _ := p.BeginReadOnly()
		v1, _, _ := p.Read(r, e.t1, "x")
		v2, _, _ := p.Read(r, e.t2, "x")

		mustCommit(t, p, w)

		if err := p.Commit(r); err == nil {
			if string(v1) != string(v2) {
				t.Fatalf("round %d: validated torn read %q/%q", round, v1, v2)
			}
		} else if !IsAbort(err) {
			t.Fatal(err)
		}
	}
}

// TestSnapshotHoldsNoBOCCHistory: BOCC keeps the write sets committed
// since its oldest active transaction began. A snapshot validates nothing,
// so holding one must leave that history pruned.
func TestSnapshotHoldsNoBOCCHistory(t *testing.T) {
	e := newEnv(t)
	p := NewBOCC(e.ctx)
	snap, err := e.ctx.Snapshot(e.t1)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	for i := 0; i < 1024; i++ {
		write(t, p, e.t1, fmt.Sprintf("k%d", i%10), "v")
	}
	if n := e.ctx.recent.Len(); n > 128 {
		t.Fatalf("%d BOCC commit records kept behind one held snapshot", n)
	}
}
