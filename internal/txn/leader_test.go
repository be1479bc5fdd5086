package txn

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sistream/internal/kv"
)

// gatedStore announces every Apply on entered and then holds it until the
// test sends on release.
type gatedStore struct {
	kv.Store
	entered, release chan struct{}
}

func (g *gatedStore) Apply(b *kv.Batch, sync bool) error {
	g.entered <- struct{}{}
	<-g.release
	return g.Store.Apply(b, sync)
}

// commitChainOK commits n chained one-write transactions as one chain
// submission and fails on any error.
func commitChainOK(t *testing.T, p *SI, tbl *Table, c *Chain, prefix string, n int) {
	t.Helper()
	txs := make([]*Txn, n)
	for i := range txs {
		txs[i] = beginChained(t, p, tbl, c, fmt.Sprintf("%s%d", prefix, i), "v")
	}
	for i, errs := range p.CommitChain(txs, []*Table{tbl}) {
		for _, err := range errs {
			if err != nil {
				t.Fatalf("chain %s tx %d: %v", prefix, i, err)
			}
		}
	}
}

// TestLeaderTargetCountsSubmitters: the leader's collection target is the
// number of SUBMITTERS in the previous batch, not of requests. A sole
// chain submitter therefore never collects — a run of 2 after a run of 5
// does not wait groupCommitLinger for three requests nobody will send —
// while independent committers count exactly as before: four Commit
// callers queued behind a blocked Apply coalesce into one batch and set
// the target to 4.
func TestLeaderTargetCountsSubmitters(t *testing.T) {
	ctx := NewContext()
	store := &gatedStore{Store: kv.NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("lead", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ctx.CreateGroup("g", tbl)
	if err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	// open lets the next n Applies straight through.
	open := func(n int) {
		go func() {
			for ; n > 0; n-- {
				<-store.entered
				store.release <- struct{}{}
			}
		}()
	}
	wantStats := func(txns, batches uint64) {
		t.Helper()
		if prof := g.CommitProfile(); prof.Txns != txns || prof.Batches != batches {
			t.Fatalf("group committed %d transactions in %d batches, want %d in %d", prof.Txns, prof.Batches, txns, batches)
		}
	}
	// target reads the leader-owned collection target between tenures.
	target := func() int {
		g.commitMu.Lock()
		defer g.commitMu.Unlock()
		return g.batchTarget
	}

	c := NewChain()
	open(2)
	commitChainOK(t, p, tbl, c, "a", 5)
	wantStats(5, 1)
	if got := target(); got != 1 {
		t.Fatalf("target after a 5-chain from one submitter = %d, want 1", got)
	}
	commitChainOK(t, p, tbl, c, "b", 2)
	wantStats(7, 2)
	if g.linger != nil {
		t.Fatal("a sole chain submitter with a shorter run made the leader arm its linger timer")
	}

	// One committer blocks in Apply; four more queue behind it.
	var wg sync.WaitGroup
	commit := func(key string) {
		defer wg.Done()
		tx, err := p.Begin()
		if err == nil {
			err = p.Write(tx, tbl, key, []byte("v"))
		}
		if err == nil {
			err = p.Commit(tx)
		}
		if err != nil {
			t.Errorf("commit %s: %v", key, err)
		}
	}
	wg.Add(1)
	go commit("lead")
	<-store.entered
	wg.Add(4)
	for i := 0; i < 4; i++ {
		go commit(fmt.Sprintf("f%d", i))
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		g.qmu.Lock()
		subs, reqs := g.pendingSubs, len(g.pending)
		g.qmu.Unlock()
		if subs == 4 && reqs == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never queued: %d submitters, %d requests pending", subs, reqs)
		}
	}
	store.release <- struct{}{}
	open(1)
	wg.Wait()
	wantStats(12, 4)
	if got := target(); got != 4 {
		t.Fatalf("target after four independent committers = %d, want 4", got)
	}
}
