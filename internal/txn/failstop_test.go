package txn

import (
	"errors"
	"strings"
	"testing"

	"sistream/internal/kv"
)

// TestStoreFailurePoisonsEveryGroup: a failed durability Apply leaves the
// context's one base store in an unknowable state, and every group of the
// context commits into that store. So every group must be poisoned —
// including a group that was not part of the failing commit — or a later
// commit on it would re-diverge memory from disk; reads keep serving.
func TestStoreFailurePoisonsEveryGroup(t *testing.T) {
	inner := kv.NewMem()
	defer inner.Close()
	fs := &failingStore{Store: inner}

	ctx := NewContext()
	// Group g1 is the failing commit's; group g2 shares only the store.
	a, _ := ctx.CreateTable("a", fs, TableOptions{})
	b, _ := ctx.CreateTable("b", fs, TableOptions{})
	c, _ := ctx.CreateTable("c", fs, TableOptions{})
	g1, err := ctx.CreateGroup("g1", a, b)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ctx.CreateGroup("g2", c)
	if err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)

	// Seed g2 so we can verify reads survive the poisoning.
	tx, _ := p.Begin()
	p.Write(tx, c, "k", []byte("seed"))
	mustCommit(t, p, tx)

	fs.fail.Store(true)
	tx2, _ := p.Begin()
	p.Write(tx2, a, "k", []byte("doomed"))
	p.Write(tx2, b, "k", []byte("doomed"))
	if err := p.Commit(tx2); !errors.Is(err, errDiskFull) {
		t.Fatalf("commit = %v, want the injected disk error", err)
	}
	fs.fail.Store(false)
	if _, ok, _ := p.Read(mustBegin(t, p), a, "k"); ok {
		t.Fatal("failed write visible in memory")
	}

	// Both groups are poisoned: g1 directly, g2 because it commits into
	// the same store.
	if err := g1.Err(); !errors.Is(err, ErrGroupFailed) {
		t.Fatalf("g1.Err() = %v, want ErrGroupFailed", err)
	}
	if err := g2.Err(); !errors.Is(err, ErrGroupFailed) {
		t.Fatalf("g2.Err() = %v, want ErrGroupFailed (shared store)", err)
	}

	// A commit confined to g2 fails fast even though the store has healed.
	tx3, _ := p.Begin()
	p.Write(tx3, c, "k", []byte("later"))
	if err := p.Commit(tx3); !errors.Is(err, ErrGroupFailed) {
		t.Fatalf("g2 commit = %v, want fail-fast ErrGroupFailed", err)
	}

	// Reads still serve on both groups.
	if v, ok := readOne(t, p, c, "k"); !ok || v != "seed" {
		t.Fatalf("read on poisoned g2: %q %v", v, ok)
	}
}

// TestMultiGroupCommitFailurePoisonsSpan exercises the spanning commit
// (one batch under the latches of both groups): a transaction spanning
// two groups whose durability fails must poison both groups — its own
// verdict already carrying the fail-stop class, exactly like the same
// failure confined to one group — and later commits on either fail fast.
func TestMultiGroupCommitFailurePoisonsSpan(t *testing.T) {
	inner := kv.NewMem()
	defer inner.Close()
	fs := &failingStore{Store: inner}
	ctx := NewContext()
	a, _ := ctx.CreateTable("a", fs, TableOptions{})
	b, _ := ctx.CreateTable("b", fs, TableOptions{})
	g1, _ := ctx.CreateGroup("g1", a)
	g2, _ := ctx.CreateGroup("g2", b)
	p := NewSI(ctx)

	fs.fail.Store(true)
	tx, _ := p.Begin()
	p.Write(tx, a, "k", []byte("doomed"))
	p.Write(tx, b, "k", []byte("doomed"))
	if err := p.Commit(tx); !errors.Is(err, errDiskFull) || !errors.Is(err, ErrGroupFailed) {
		t.Fatalf("cross-group commit = %v, want ErrGroupFailed wrapping the injected disk error", err)
	}
	if err := g1.Err(); !errors.Is(err, ErrGroupFailed) {
		t.Fatalf("g1.Err() = %v, want ErrGroupFailed", err)
	}
	if err := g2.Err(); !errors.Is(err, ErrGroupFailed) {
		t.Fatalf("g2.Err() = %v, want ErrGroupFailed", err)
	}

	// A spanning transaction is rejected too.
	fs.fail.Store(false)
	tx2, _ := p.Begin()
	p.Write(tx2, a, "k", []byte("later"))
	p.Write(tx2, b, "k", []byte("later"))
	if err := p.Commit(tx2); !errors.Is(err, ErrGroupFailed) {
		t.Fatalf("spanning commit on poisoned groups = %v, want ErrGroupFailed", err)
	}
	if ctx.ActiveCount() != 0 {
		t.Fatalf("leaked slots: %d active", ctx.ActiveCount())
	}
}

// TestMultiGroupCommitFailurePoisonsSpanOnInstall covers the pipeline's
// other error exit under both latch sets: an install-invariant trip (a
// version already installed above the commit timestamp — S2PL has no
// admission check that would catch it first) must poison every latched
// group and decide the commit with ErrGroupFailed wrapping the diagnostic.
func TestMultiGroupCommitFailurePoisonsSpanOnInstall(t *testing.T) {
	for _, spanning := range []bool{false, true} {
		store := kv.NewMem()
		defer store.Close()
		ctx := NewContext()
		a, _ := ctx.CreateTable("a", store, TableOptions{})
		b, _ := ctx.CreateTable("b", store, TableOptions{})
		var groups []*Group
		if spanning {
			g1, _ := ctx.CreateGroup("g1", a)
			g2, _ := ctx.CreateGroup("g2", b)
			groups = []*Group{g1, g2}
		} else {
			g, _ := ctx.CreateGroup("g", a, b)
			groups = []*Group{g}
		}
		p := NewS2PL(ctx)

		if err := objectOf(b, "k", true).Install(1<<40, []byte("future"), false, 0); err != nil {
			t.Fatal(err)
		}
		tx, _ := p.Begin()
		p.Write(tx, a, "k", []byte("doomed"))
		p.Write(tx, b, "k", []byte("doomed"))
		err := p.Commit(tx)
		if !errors.Is(err, ErrGroupFailed) || !strings.Contains(err.Error(), "install invariant violated") {
			t.Fatalf("spanning=%v: commit = %v, want ErrGroupFailed wrapping the install diagnostic", spanning, err)
		}
		for _, g := range groups {
			if g.Err() == nil || g.Err().Error() != err.Error() {
				t.Fatalf("spanning=%v: group %s Err() = %v, want the commit's verdict %v", spanning, g.ID(), g.Err(), err)
			}
			if g.LastCTS() != 0 {
				t.Fatalf("spanning=%v: group %s published LastCTS %d for a failed batch", spanning, g.ID(), g.LastCTS())
			}
		}
		if ctx.ActiveCount() != 0 || p.LockCount() != 0 {
			t.Fatalf("spanning=%v: leaked %d slots, %d locks", spanning, ctx.ActiveCount(), p.LockCount())
		}
	}
}

// TestChainCommitFailsFastOnPoisonedGroup: the batched chain-commit path
// (groupCommitMany) must decide every request of a run with the sticky
// error without wedging any committer.
func TestChainCommitFailsFastOnPoisonedGroup(t *testing.T) {
	inner := kv.NewMem()
	defer inner.Close()
	fs := &failingStore{Store: inner}
	ctx := NewContext()
	a, _ := ctx.CreateTable("a", fs, TableOptions{})
	g, _ := ctx.CreateGroup("g", a)
	p := NewSI(ctx)

	fs.fail.Store(true)
	tx, _ := p.Begin()
	p.Write(tx, a, "k", []byte("doomed"))
	if err := p.Commit(tx); err == nil {
		t.Fatal("expected durability failure")
	}
	if g.Err() == nil {
		t.Fatal("group not poisoned")
	}

	ch := NewChain()
	txs := make([]*Txn, 4)
	for i := range txs {
		txs[i], _ = p.Begin()
		txs[i].SetChain(ch)
		p.Write(txs[i], a, "k", []byte{byte(i)})
	}
	errs := p.CommitChain(txs, []*Table{a})
	for i, row := range errs {
		if !errors.Is(row[0], ErrGroupFailed) {
			t.Fatalf("chain commit %d = %v, want ErrGroupFailed", i, row[0])
		}
	}
	if ctx.ActiveCount() != 0 {
		t.Fatalf("chain fail-fast leaked slots: %d active", ctx.ActiveCount())
	}
}

func mustBegin(t *testing.T, p Protocol) *Txn {
	t.Helper()
	tx, err := p.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Abort(tx) })
	return tx
}
