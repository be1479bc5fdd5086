package stream

import (
	"fmt"
	"testing"
	"time"

	"sistream/internal/kv"
	"sistream/internal/txn"
)

// These tests pin how the commit spine FORMS batches, deterministically:
// the store's Apply blocks until the test releases it, so "what queued
// while the previous batch was committing" is exactly what the test put
// there.

// gatedStore announces every Apply on entered and then holds it until the
// test sends on release.
type gatedStore struct {
	kv.Store
	entered, release chan struct{}
}

func newGatedStore() *gatedStore {
	return &gatedStore{Store: kv.NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedStore) Apply(b *kv.Batch, sync bool) error {
	g.entered <- struct{}{}
	<-g.release
	return g.Store.Apply(b, sync)
}

// await receives from ch or fails the test: a spine holding out for
// boundaries that will never come shows up here, not as a hung test.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// runGatedSpine drives one script through a 2-lane spine over a gated
// store and returns the spine for inspection: a lone transaction; then,
// while its Apply is blocked, three more; then a lone one again. It
// checks after every Apply that the group committed the batches 1, 3, 1.
func runGatedSpine(t *testing.T, tun *AutoTuner, window int) *commitSpine {
	t.Helper()
	ctx := txn.NewContext()
	store := newGatedStore()
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("gated", store, txn.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ctx.CreateGroup("g", tbl)
	if err != nil {
		t.Fatal(err)
	}
	p := txn.NewSI(ctx)

	// The source emits as many one-tuple transactions as each step asks for;
	// the sink reports every boundary that has passed the barrier, which is
	// after its spine enqueue.
	steps := make(chan int)
	enqueued := make(chan struct{}, 16) // holds every boundary of the script (5)
	top := New("gated")
	src := top.Source("script", func(emit func(Element)) error {
		i := 0
		for n := range steps {
			for ; n > 0; n-- {
				emit(Punctuation(KindBOT))
				emit(DataElement(Tuple{Key: fmt.Sprintf("k%d", i), Value: []byte("v")}))
				emit(Punctuation(KindCommit))
				i++
			}
		}
		return nil
	})
	var s *Stream
	if tun != nil {
		s = src.TransactionsTuned(p, tun)
	} else {
		s = src.TransactionsWindow(p, window)
	}
	region := s.Parallelize(2, nil)
	region.ToTable(p, tbl)
	var merged *Stream
	var sp *commitSpine
	if tun != nil {
		merged, sp = region.mergeSpine("merge", "MergeTuned", tun.cfg.MaxWindow, tun)
	} else {
		merged, sp = region.mergeSpine("merge", "MergeBatched", window, nil)
	}
	merged.Sink("sink", func(e Element) {
		if e.Kind == KindCommit {
			enqueued <- struct{}{}
		}
	})
	done := make(chan error, 1)
	go func() { done <- top.Run() }()

	wantStats := func(txns, batches uint64) {
		t.Helper()
		if prof := g.CommitProfile(); prof.Txns != txns || prof.Batches != batches {
			t.Fatalf("group committed %d transactions in %d batches, want %d in %d", prof.Txns, prof.Batches, txns, batches)
		}
	}

	// A lone transaction on an idle spine goes straight to Apply: nothing
	// else is enqueued, so a spine waiting for company would sit here.
	steps <- 1
	await(t, enqueued, "boundary 1")
	await(t, store.entered, "Apply 1")
	select {
	case <-enqueued:
		t.Fatal("a second boundary was enqueued before the lone transaction reached Apply")
	default:
	}

	// Three boundaries queue while Apply 1 is blocked; they are the next
	// batch, whole.
	steps <- 3
	for i := 2; i <= 4; i++ {
		await(t, enqueued, fmt.Sprintf("boundary %d", i))
	}
	store.release <- struct{}{}
	await(t, store.entered, "Apply 2")
	wantStats(1, 1)

	// A lone transaction after a batch of three: Apply 3 cannot start
	// before Apply 2 returns, so its arrival shows batch 2 was all three.
	store.release <- struct{}{}
	steps <- 1
	await(t, enqueued, "boundary 5")
	await(t, store.entered, "Apply 3")
	wantStats(4, 2)
	store.release <- struct{}{}

	close(steps)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("topology did not finish")
	}
	wantStats(5, 3)
	return sp
}

// TestTunedSpineCommitsWhatQueued: the work-conserving spine forms the
// batches 1, 3, 1 from the script and never arms a linger timer — not
// even for the lone transaction that follows a batch of three, which a
// previous-batch-size target would hold back.
func TestTunedSpineCommitsWhatQueued(t *testing.T) {
	tun := NewAutoTuner(AutoTune{})
	sp := runGatedSpine(t, tun, 0)
	if sp.linger != nil {
		t.Fatal("the tuned spine armed a linger timer")
	}
	if got := tun.meanFanIn(); got != 5.0/3 {
		t.Fatalf("mean fan-in = %v, want 5/3", got)
	}
	if st := tun.Stats(); st.Window != DefaultMaxWindow || st.Grows != 0 || st.Shrinks != 0 {
		t.Fatalf("in-flight bound moved on a fast store: %+v", st)
	}
}

// TestStaticSpineStillHoldsOut: MergeBatched(8) under the same script forms
// the same batches as before this policy existed (its final lone
// transaction commits alone once the linger expires) and does hold out:
// after the batch of three its collection target is 3, so it arms the
// timer.
func TestStaticSpineStillHoldsOut(t *testing.T) {
	sp := runGatedSpine(t, nil, 8)
	if sp.linger == nil {
		t.Fatal("the static spine never armed its linger timer; it should hold out after a batch of 3")
	}
}
