package txn

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sistream/internal/kv"
)

// chainEnv builds a one-table SI group over a mem store.
func chainEnv(t *testing.T) (*Context, *SI, *Table) {
	t.Helper()
	ctx := NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("chained", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	return ctx, NewSI(ctx), tbl
}

// beginChained starts a transaction on chain c with one buffered write.
func beginChained(t *testing.T, p Protocol, tbl *Table, c *Chain, key, val string) *Txn {
	t.Helper()
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx.SetChain(c)
	if err := p.Write(tx, tbl, key, []byte(val)); err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestCommitChainOneBatch: a chain of disjoint-key transactions submitted
// together must globally commit through ONE group-commit batch — the
// cross-transaction fan-in the fused spine exists for — with all values
// visible and the commit timestamps ascending in chain order.
func TestCommitChainOneBatch(t *testing.T) {
	_, p, tbl := chainEnv(t)
	c := NewChain()
	const n = 5
	txs := make([]*Txn, n)
	for i := range txs {
		txs[i] = beginChained(t, p, tbl, c, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	g := tbl.Group()
	prof0 := g.CommitProfile()
	txns0, batches0 := prof0.Txns, prof0.Batches

	errs := p.CommitChain(txs, []*Table{tbl})
	for i := range errs {
		for j, err := range errs[i] {
			if err != nil {
				t.Fatalf("tx %d table %d: %v", i, j, err)
			}
		}
	}
	prof1 := g.CommitProfile()
	txns1, batches1 := prof1.Txns, prof1.Batches
	if txns1-txns0 != n {
		t.Fatalf("committed %d transactions, want %d", txns1-txns0, n)
	}
	if batches1-batches0 != 1 {
		t.Fatalf("chain used %d group-commit batches, want 1", batches1-batches0)
	}
	for i := 0; i < n; i++ {
		v, ok := tbl.readVersion(fmt.Sprintf("k%d", i), g.LastCTS())
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q (ok=%t) after chain commit", i, v, ok)
		}
	}
}

// TestCommitChainSerialOverwrite: two chain members writing the SAME key
// must both commit — the successor's First-Committer-Wins check treats
// the predecessor as serial history, exactly as if it had begun after the
// predecessor's commit — and the final value is the successor's. The
// control half shows the same shape WITHOUT a chain aborts the successor.
func TestCommitChainSerialOverwrite(t *testing.T) {
	_, p, tbl := chainEnv(t)
	c := NewChain()
	t1 := beginChained(t, p, tbl, c, "hot", "first")
	t2 := beginChained(t, p, tbl, c, "hot", "second")
	errs := p.CommitChain([]*Txn{t1, t2}, []*Table{tbl})
	if errs[0][0] != nil || errs[1][0] != nil {
		t.Fatalf("chained same-key commits: %v / %v", errs[0][0], errs[1][0])
	}
	if v, ok := tbl.readVersion("hot", tbl.Group().LastCTS()); !ok || string(v) != "second" {
		t.Fatalf("hot = %q (ok=%t), want successor's value", v, ok)
	}

	// Control: unchained concurrent writers of one key conflict.
	u1, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	u2, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(u1, tbl, "cold", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(u2, tbl, "cold", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(u1); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(u2); !errors.Is(err, ErrConflict) {
		t.Fatalf("unchained overlap committed with err=%v, want FCW conflict", err)
	}
}

// TestCommitChainAbortSplitsBatch: a chain member that genuinely
// conflicts with a FOREIGN writer aborts alone; its chain neighbors
// commit unaffected and the foreign value survives. The conflicting
// member leads the chain — a LATER member cannot foreign-conflict by
// construction, because its snapshot is raised to its predecessor's
// commit timestamp, which already postdates the foreign commit (exactly
// the serial-execution outcome: the successor "ran" after the foreign
// writer and legitimately overwrites).
func TestCommitChainAbortSplitsBatch(t *testing.T) {
	_, p, tbl := chainEnv(t)
	c := NewChain()
	tc := beginChained(t, p, tbl, c, "x", "stale") // pins before the foreign commit
	t1 := beginChained(t, p, tbl, c, "a", "v1")
	t2 := beginChained(t, p, tbl, c, "b", "v2")

	// Foreign writer commits x after tc pinned its snapshot: tc has no
	// committed chain predecessor, so its FCW floor is its own pin and
	// the conflict is real.
	f, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(f, tbl, "x", []byte("foreign")); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(f); err != nil {
		t.Fatal(err)
	}

	errs := p.CommitChain([]*Txn{tc, t1, t2}, []*Table{tbl})
	if !errors.Is(errs[0][0], ErrConflict) {
		t.Fatalf("tc err = %v, want FCW conflict with the foreign writer", errs[0][0])
	}
	if errs[1][0] != nil {
		t.Fatalf("t1 must not be poisoned by its neighbor's abort: %v", errs[1][0])
	}
	if errs[2][0] != nil {
		t.Fatalf("t2 must not be poisoned by its neighbor's abort: %v", errs[2][0])
	}
	cts := tbl.Group().LastCTS()
	if v, _ := tbl.readVersion("x", cts); string(v) != "foreign" {
		t.Fatalf("x = %q, want the foreign writer's value", v)
	}
	if v, _ := tbl.readVersion("a", cts); string(v) != "v1" {
		t.Fatalf("a = %q", v)
	}
	if v, _ := tbl.readVersion("b", cts); string(v) != "v2" {
		t.Fatalf("b = %q", v)
	}
}

// TestCommitChainAllProtocols drives the chain entry point of every
// protocol with disjoint-key members: all must commit, in one batch.
func TestCommitChainAllProtocols(t *testing.T) {
	protos := map[string]func(*Context) Protocol{
		"mvcc": func(c *Context) Protocol { return NewSI(c) },
		"s2pl": func(c *Context) Protocol { return NewS2PL(c) },
		"bocc": func(c *Context) Protocol { return NewBOCC(c) },
	}
	for name, mk := range protos {
		t.Run(name, func(t *testing.T) {
			ctx := NewContext()
			store := kv.NewMem()
			t.Cleanup(func() { store.Close() })
			tbl, err := ctx.CreateTable("chained", store, TableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ctx.CreateGroup("g", tbl); err != nil {
				t.Fatal(err)
			}
			p := mk(ctx)
			c := NewChain()
			txs := make([]*Txn, 3)
			for i := range txs {
				txs[i] = beginChained(t, p, tbl, c, fmt.Sprintf("k%d", i), "v")
			}
			g := tbl.Group()
			b0 := g.CommitProfile().Batches
			errs := p.CommitChain(txs, []*Table{tbl})
			for i := range errs {
				if errs[i][0] != nil {
					t.Fatalf("tx %d: %v", i, errs[i][0])
				}
			}
			if b1 := g.CommitProfile().Batches; b1-b0 != 1 {
				t.Fatalf("chain used %d batches, want 1", b1-b0)
			}
			if s2, ok := p.(*S2PL); ok {
				if n := s2.LockCount(); n != 0 {
					t.Fatalf("%d live lock entries after chain commit", n)
				}
			}
		})
	}
}

// TestS2PLWriteSegmentLaneSideLocks: S2PL's WriteSegment
// acquires its exclusive locks on the calling (lane) goroutine before the
// merge and adopts the segment's values; locks fall at commit.
func TestS2PLWriteSegmentLaneSideLocks(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("locked", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewS2PL(ctx)
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	seg := NewSegment(4)
	seg.Put("a", []byte("1"))
	seg.Put("b", []byte("2"))
	seg.Delete("c")
	n, err := p.WriteSegment(tx, tbl, seg)
	if err != nil || n != 3 {
		t.Fatalf("WriteSegment = (%d, %v)", n, err)
	}
	if got := p.LockCount(); got != 3 {
		t.Fatalf("lane-side lock entries = %d, want 3", got)
	}
	if v, ok, err := p.Read(tx, tbl, "a"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("read-your-segment-writes: %q %t %v", v, ok, err)
	}
	if err := p.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if got := p.LockCount(); got != 0 {
		t.Fatalf("%d live lock entries after commit", got)
	}
	if v, ok := tbl.readVersion("a", tbl.Group().LastCTS()); !ok || string(v) != "1" {
		t.Fatalf("a = %q (ok=%t) after commit", v, ok)
	}
}

// TestS2PLChainSuccessorWaitsOutPredecessor: wait-die normally kills a
// younger requester, but a chain successor must be allowed to WAIT for
// its predecessor's lock and proceed once the spine commits the
// predecessor.
func TestS2PLChainSuccessorWaitsOutPredecessor(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("waity", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewS2PL(ctx)
	c := NewChain()

	t1, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	t1.SetChain(c)
	if err := p.Write(t1, tbl, "k", []byte("old")); err != nil {
		t.Fatal(err)
	}

	t2, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	t2.SetChain(c)
	acquired := make(chan error, 1)
	go func() {
		// Younger chain successor requests the predecessor's lock: plain
		// wait-die would return ErrDeadlock; the chain exception waits.
		acquired <- p.Write(t2, tbl, "k", []byte("new"))
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-acquired:
		t.Fatalf("successor acquired/died without waiting: %v", err)
	default:
	}
	if err := p.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if err := <-acquired; err != nil {
		t.Fatalf("successor write after predecessor commit: %v", err)
	}
	if err := p.Commit(t2); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.readVersion("k", tbl.Group().LastCTS()); string(v) != "new" {
		t.Fatalf("k = %q, want successor's value", v)
	}
}

// TestCommitChainUndeclaredTablesMatchCommitState: a chain member that did
// not Declare every table of the chain completes its flag set at the
// column of the last table it touched, and must then be committed exactly
// once — its later columns are those of a decided transaction. The
// verdict matrix, the number of transactions committed and the resulting
// rows must equal what per-transaction, per-table CommitState calls give
// on an identical universe, under every protocol.
func TestCommitChainUndeclaredTablesMatchCommitState(t *testing.T) {
	protos := map[string]func(*Context) Protocol{
		"mvcc": func(c *Context) Protocol { return NewSI(c) },
		"s2pl": func(c *Context) Protocol { return NewS2PL(c) },
		"bocc": func(c *Context) Protocol { return NewBOCC(c) },
	}
	// universe builds two grouped tables and three chain members: one that
	// touches only the first table and declares nothing, one that declares
	// both, one that touches only the second.
	universe := func(t *testing.T, mk func(*Context) Protocol) (Protocol, []*Table, []*Txn) {
		ctx := NewContext()
		store := kv.NewMem()
		t.Cleanup(func() { store.Close() })
		var tbls []*Table
		for _, id := range []StateID{"first", "second"} {
			tbl, err := ctx.CreateTable(id, store, TableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tbls = append(tbls, tbl)
		}
		if _, err := ctx.CreateGroup("g", tbls...); err != nil {
			t.Fatal(err)
		}
		p := mk(ctx)
		c := NewChain()
		onlyFirst := beginChained(t, p, tbls[0], c, "a", "only-first")
		both := beginChained(t, p, tbls[0], c, "b", "both")
		if err := both.Declare(tbls...); err != nil {
			t.Fatal(err)
		}
		if err := p.Write(both, tbls[1], "b", []byte("both")); err != nil {
			t.Fatal(err)
		}
		onlySecond := beginChained(t, p, tbls[1], c, "c", "only-second")
		return p, tbls, []*Txn{onlyFirst, both, onlySecond}
	}
	rows := func(tbls []*Table) string {
		out := ""
		for _, tbl := range tbls {
			for _, k := range []string{"a", "b", "c"} {
				v, ok := tbl.readVersion(k, tbl.Group().LastCTS())
				out += fmt.Sprintf("%s/%s=%q,%t ", tbl.ID(), k, v, ok)
			}
		}
		return out
	}
	for name, mk := range protos {
		t.Run(name, func(t *testing.T) {
			p, tbls, txs := universe(t, mk)
			got := p.CommitChain(txs, tbls)

			ref, refTbls, refTxs := universe(t, mk)
			for i, tx := range refTxs {
				for j, tbl := range refTbls {
					want := ref.CommitState(tx, tbl)
					if !errors.Is(got[i][j], want) || (want == nil) != (got[i][j] == nil) {
						t.Errorf("member %d table %d: CommitChain says %v, CommitState says %v", i, j, got[i][j], want)
					}
				}
			}
			if !errors.Is(got[0][1], ErrFinished) {
				t.Errorf("member 0 completed at its first column; its second must be ErrFinished, got %v", got[0][1])
			}
			gotTxns := tbls[0].Group().CommitProfile().Txns
			wantTxns := refTbls[0].Group().CommitProfile().Txns
			if gotTxns != wantTxns || gotTxns != 3 {
				t.Errorf("chain committed %d transactions, CommitState %d, want 3", gotTxns, wantTxns)
			}
			if g, w := rows(tbls), rows(refTbls); g != w {
				t.Errorf("rows after the chain:\n %s\nafter CommitState:\n %s", g, w)
			}
		})
	}
}
