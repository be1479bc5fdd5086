package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"sistream/internal/kv"
)

func TestRegistrySlots(t *testing.T) {
	ctx := NewContext()
	p := NewSI(ctx)
	var txns []*Txn
	for i := 0; i < 100; i++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		txns = append(txns, tx)
	}
	if ctx.ActiveCount() != 100 {
		t.Fatalf("active = %d", ctx.ActiveCount())
	}
	for _, tx := range txns {
		if err := p.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	if ctx.ActiveCount() != 0 {
		t.Fatalf("active after commits = %d", ctx.ActiveCount())
	}
}

func TestSlotExhaustion(t *testing.T) {
	ctx := NewContext()
	p := NewSI(ctx)
	var txns []*Txn
	for i := 0; i < maxActiveTxns; i++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
		txns = append(txns, tx)
	}
	if _, err := p.Begin(); err != ErrTooManyTxns {
		t.Fatalf("expected ErrTooManyTxns, got %v", err)
	}
	// Freeing one slot re-enables Begin.
	if err := p.Abort(txns[0]); err != nil {
		t.Fatal(err)
	}
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	p.Abort(tx)
	for _, old := range txns[1:] {
		p.Abort(old)
	}
}

func TestConcurrentSlotChurn(t *testing.T) {
	ctx := NewContext()
	p := NewSI(ctx)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tx, err := p.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if err := p.Commit(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ctx.ActiveCount() != 0 {
		t.Fatalf("slots leaked: %d", ctx.ActiveCount())
	}
}

func TestOldestActiveVersionHorizon(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	write(t, p, e.t1, "k", "v")

	// With no active pins, horizon == clock.
	if got, now := e.ctx.OldestActiveVersion(), e.ctx.Now(); got != now {
		t.Fatalf("idle horizon %d != clock %d", got, now)
	}

	r, _ := p.BeginReadOnly()
	if _, _, err := p.Read(r, e.t1, "k"); err != nil {
		t.Fatal(err)
	}
	pinned, _ := r.at(e.group)
	write(t, p, e.t1, "k", "v2")
	if got := e.ctx.OldestActiveVersion(); got != pinned {
		t.Fatalf("horizon %d, want pinned %d", got, pinned)
	}
	mustCommit(t, p, r)
	if got, now := e.ctx.OldestActiveVersion(), e.ctx.Now(); got != now {
		t.Fatalf("horizon after release %d != clock %d", got, now)
	}
}

func TestMonotonicClock(t *testing.T) {
	ctx := NewContext()
	var prev Timestamp
	for i := 0; i < 1000; i++ {
		ts := ctx.next()
		if ts <= prev {
			t.Fatalf("clock went backwards: %d after %d", ts, prev)
		}
		prev = ts
	}
	ctx.advanceTo(5000)
	if ctx.Now() != 5000 {
		t.Fatalf("advanceTo: %d", ctx.Now())
	}
	ctx.advanceTo(100) // never backwards
	if ctx.Now() != 5000 {
		t.Fatalf("advanceTo went backwards: %d", ctx.Now())
	}
}

func TestDuplicateRegistration(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("t", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateTable("t", store, TableOptions{}); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := ctx.CreateGroup("g"); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g2", tbl); err == nil {
		t.Fatal("table admitted to two groups")
	}
	if _, err := ctx.CreateGroup("g", tbl); err == nil {
		t.Fatal("duplicate group accepted")
	}
	if got, ok := ctx.Table("t"); !ok || got != tbl {
		t.Fatal("table lookup broken")
	}
	if _, ok := ctx.Table("absent"); ok {
		t.Fatal("phantom table")
	}
}

// TestContextKeepsOneStore: the first CreateTable fixes the context's base
// store. A table naming any other store is refused and registers nothing
// — not even its name — and the context's own tables keep committing and
// recovering.
func TestContextKeepsOneStore(t *testing.T) {
	store := kv.NewMem()
	defer store.Close()
	other := kv.NewMem()
	defer other.Close()
	ctx := NewContext()
	a, err := ctx.CreateTable("a", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateTable("b", other, TableOptions{}); err == nil {
		t.Fatal("a table on a second store was accepted")
	}
	if _, ok := ctx.Table("b"); ok {
		t.Fatal("the refused table was registered")
	}
	b, err := ctx.CreateTable("b", store, TableOptions{})
	if err != nil {
		t.Fatalf("the refused name was kept: %v", err)
	}
	g, err := ctx.CreateGroup("g", a, b)
	if err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	for _, v := range []string{"1", "2"} {
		tx, _ := p.Begin()
		p.Write(tx, a, "k", []byte(v))
		p.Write(tx, b, "k", []byte(v))
		mustCommit(t, p, tx)
	}
	if n, _ := kv.Len(other); n != 0 {
		t.Fatalf("the refused store holds %d keys", n)
	}

	ctx2 := NewContext()
	a2, _ := ctx2.CreateTable("a", store, TableOptions{})
	b2, _ := ctx2.CreateTable("b", store, TableOptions{})
	g2, err := ctx2.CreateGroup("g", a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.LastCTS() != g.LastCTS() {
		t.Fatalf("recovered LastCTS %d, want %d", g2.LastCTS(), g.LastCTS())
	}
	p2 := NewSI(ctx2)
	for _, tbl := range []*Table{a2, b2} {
		if v, ok := readOne(t, p2, tbl, "k"); !ok || v != "2" {
			t.Fatalf("recovered %s.k = %q %v, want 2", tbl.ID(), v, ok)
		}
	}
}

// TestCommitBatchIsOneStoreApply: every commit batch is exactly one store
// Apply — a plain commit over two tables of one group, a chain of 8 on one
// group, and a commit spanning two groups alike — with one sync point
// under SyncCommits and none without.
func TestCommitBatchIsOneStoreApply(t *testing.T) {
	for _, syncCommits := range []bool{false, true} {
		store := kv.NewFault(kv.NewMem())
		opts := TableOptions{SyncCommits: syncCommits}
		ctx := NewContext()
		a, _ := ctx.CreateTable("a", store, opts)
		b, _ := ctx.CreateTable("b", store, opts)
		c, _ := ctx.CreateTable("c", store, opts)
		if _, err := ctx.CreateGroup("g1", a, b); err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.CreateGroup("g2", c); err != nil {
			t.Fatal(err)
		}
		p := NewSI(ctx)
		var wantSyncs uint64
		if syncCommits {
			wantSyncs = 1
		}
		step := func(name string, commit func()) {
			t.Helper()
			before := store.Stats()
			commit()
			after := store.Stats()
			applies, syncs := after.Applies-before.Applies, after.SyncPoints-before.SyncPoints
			if applies != 1 || syncs != wantSyncs {
				t.Errorf("SyncCommits=%v, %s: %d applies, %d sync points; want 1, %d",
					syncCommits, name, applies, syncs, wantSyncs)
			}
		}
		step("plain commit over two tables", func() {
			tx, _ := p.Begin()
			p.Write(tx, a, "k", []byte("v"))
			p.Write(tx, b, "k", []byte("v"))
			mustCommit(t, p, tx)
		})
		step("chain of 8", func() {
			ch := NewChain()
			txs := make([]*Txn, 8)
			for i := range txs {
				txs[i], _ = p.Begin()
				txs[i].SetChain(ch)
				p.Write(txs[i], a, fmt.Sprint("k", i), []byte("v"))
			}
			for i, row := range p.CommitChain(txs, []*Table{a}) {
				if row[0] != nil {
					t.Fatalf("chain member %d: %v", i, row[0])
				}
			}
		})
		step("commit spanning two groups", func() {
			tx, _ := p.Begin()
			p.Write(tx, a, "k", []byte("w"))
			p.Write(tx, c, "k", []byte("w"))
			mustCommit(t, p, tx)
		})
		store.Close()
	}
}

// TestOverlapRuleOlderVersionWins: a query reading tables from two groups
// takes the OLDER pinned snapshot for states both groups cover.
func TestOverlapRuleAcrossGroups(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	a, _ := ctx.CreateTable("a", store, TableOptions{})
	b, _ := ctx.CreateTable("b", store, TableOptions{})
	if _, err := ctx.CreateGroup("ga", a); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("gb", b); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	write(t, p, a, "k", "a1")
	write(t, p, b, "k", "b1")

	r, _ := p.BeginReadOnly()
	if _, _, err := p.Read(r, a, "k"); err != nil { // pins ga
		t.Fatal(err)
	}
	write(t, p, b, "k", "b2") // gb advances after ga was pinned
	v, _, err := p.Read(r, b, "k")
	if err != nil {
		t.Fatal(err)
	}
	// gb pinned at its own first read: b2 is legal (groups are disjoint,
	// so no overlap constraint applies).
	if string(v) != "b2" {
		t.Fatalf("disjoint group read: %q", v)
	}
	mustCommit(t, p, r)
}

// TestPropertySISerialHistoryMatchesMap replays a random single-threaded
// history of transactions (with aborts) against SI and a reference map.
func TestPropertySISerialHistoryMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		e := newEnv(t)
		p := NewSI(e.ctx)
		rng := newRand(seed)
		model := map[string]string{}
		for step := 0; step < 60; step++ {
			tx, err := p.Begin()
			if err != nil {
				return false
			}
			staged := map[string]*string{}
			nOps := rng.Intn(6) + 1
			for i := 0; i < nOps; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(12))
				switch rng.Intn(3) {
				case 0:
					v := fmt.Sprintf("v%d-%d", step, i)
					if err := p.Write(tx, e.t1, k, []byte(v)); err != nil {
						return false
					}
					vc := v
					staged[k] = &vc
				case 1:
					if err := p.Delete(tx, e.t1, k); err != nil {
						return false
					}
					staged[k] = nil
				default:
					got, ok, err := p.Read(tx, e.t1, k)
					if err != nil {
						return false
					}
					var want *string
					if s, inTx := staged[k]; inTx {
						want = s
					} else if mv, inModel := model[k]; inModel {
						want = &mv
					}
					if (want == nil) != !ok {
						t.Logf("step %d read %q: ok=%v want-nil=%v", step, k, ok, want == nil)
						return false
					}
					if want != nil && string(got) != *want {
						t.Logf("step %d read %q: %q want %q", step, k, got, *want)
						return false
					}
				}
			}
			if rng.Intn(4) == 0 {
				if err := p.Abort(tx); err != nil {
					return false
				}
			} else {
				if err := p.Commit(tx); err != nil {
					return false
				}
				for k, v := range staged {
					if v == nil {
						delete(model, k)
					} else {
						model[k] = *v
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestHeldSnapshotsLeaveWriterSlots: snapshots register in a slot range of
// their own, so a full range of held snapshots leaves every transaction
// slot to the writers, and one snapshot more fails with ErrTooManyTxns.
func TestHeldSnapshotsLeaveWriterSlots(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	snaps := make([]*Snapshot, 0, maxSnapshots)
	for i := 0; i < maxSnapshots; i++ {
		snap, err := e.ctx.Snapshot(e.t1)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		snaps = append(snaps, snap)
	}
	tx, err := p.Begin()
	if err != nil {
		t.Fatalf("Begin with %d snapshots held: %v", len(snaps), err)
	}
	if err := p.Write(tx, e.t1, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, tx)
	if _, err := e.ctx.Snapshot(e.t1); !errors.Is(err, ErrTooManyTxns) {
		t.Fatalf("snapshot %d = %v, want ErrTooManyTxns", maxSnapshots+1, err)
	}
	for _, snap := range snaps {
		snap.Release()
	}
	if n := e.ctx.ActiveCount(); n != 0 {
		t.Fatalf("%d registered after every snapshot was released", n)
	}
}
