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

// gatedSpine is a 2-lane spine over a gated store, running: the test feeds
// steps (each a number of one-tuple transactions to emit) and reads each
// boundary that has passed the barrier, which is after its spine enqueue,
// on enqueued.
type gatedSpine struct {
	t        *testing.T
	store    *gatedStore
	g        *txn.Group
	sp       *commitSpine
	steps    chan int
	enqueued chan struct{}
	done     chan error
}

// startGatedSpine builds and runs the spine: TransactionsTuned + MergeTuned
// with tun, or TransactionsWindow + MergeBatched with window when tun is nil.
func startGatedSpine(t *testing.T, tun *AutoTuner, window int) *gatedSpine {
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
	r := &gatedSpine{t: t, store: store, g: g,
		steps:    make(chan int),
		enqueued: make(chan struct{}, 16), // holds every boundary of a script
		done:     make(chan error, 1),
	}

	top := New("gated")
	src := top.Source("script", func(emit func(Element)) error {
		i := 0
		for n := range r.steps {
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
	if tun != nil {
		merged, r.sp = region.mergeSpine("merge", "MergeTuned", tun.window, false)
	} else {
		merged, r.sp = region.mergeSpine("merge", "MergeBatched", window, true)
	}
	merged.Sink("sink", func(e Element) {
		if e.Kind == KindCommit {
			r.enqueued <- struct{}{}
		}
	})
	go func() { r.done <- top.Run() }()
	return r
}

// emit asks the source for n transactions and waits until all n boundaries
// are enqueued on the spine.
func (r *gatedSpine) emit(n int) {
	r.t.Helper()
	r.steps <- n
	for i := 1; i <= n; i++ {
		await(r.t, r.enqueued, fmt.Sprintf("boundary %d of %d", i, n))
	}
}

// wantStats checks the group's committed transactions and batches.
func (r *gatedSpine) wantStats(txns, batches uint64) {
	r.t.Helper()
	if prof := r.g.CommitProfile(); prof.Txns != txns || prof.Batches != batches {
		r.t.Fatalf("group committed %d transactions in %d batches, want %d in %d", prof.Txns, prof.Batches, txns, batches)
	}
}

// finish ends the script and waits for the topology.
func (r *gatedSpine) finish() {
	r.t.Helper()
	close(r.steps)
	select {
	case err := <-r.done:
		if err != nil {
			r.t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		r.t.Fatal("topology did not finish")
	}
}

// runGatedSpine drives one script through a gated spine and returns the
// spine for inspection: a lone transaction; then, while its Apply is
// blocked, three more; then a lone one again. It checks after every Apply
// that the group committed the batches 1, 3, 1.
func runGatedSpine(t *testing.T, tun *AutoTuner, window int) *commitSpine {
	t.Helper()
	r := startGatedSpine(t, tun, window)

	// A lone transaction on an idle spine goes straight to Apply: nothing
	// else is enqueued, so a spine waiting for company would sit here.
	r.emit(1)
	await(t, r.store.entered, "Apply 1")
	select {
	case <-r.enqueued:
		t.Fatal("a second boundary was enqueued before the lone transaction reached Apply")
	default:
	}

	// Three boundaries queue while Apply 1 is blocked; they are the next
	// batch, whole.
	r.emit(3)
	r.store.release <- struct{}{}
	await(t, r.store.entered, "Apply 2")
	r.wantStats(1, 1)

	// A lone transaction after a batch of three: Apply 3 cannot start
	// before Apply 2 returns, so its arrival shows batch 2 was all three.
	r.store.release <- struct{}{}
	r.emit(1)
	await(t, r.store.entered, "Apply 3")
	r.wantStats(4, 2)
	r.store.release <- struct{}{}

	r.finish()
	r.wantStats(5, 3)
	return r.sp
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

// TestTunedSpineBoundSurvivesSlowBatch: a slow commit does not move the
// tuned spine's in-flight bound. With MaxWindow 4, the Apply of a batch of
// three is held for 30 ms; the bound stays 4, so three more transactions
// can be in flight behind the next lone one and commit as one batch.
func TestTunedSpineBoundSurvivesSlowBatch(t *testing.T) {
	tun := NewAutoTuner(AutoTune{MaxWindow: 4})
	r := startGatedSpine(t, tun, 0)

	r.emit(1)
	await(t, r.store.entered, "Apply 1")
	r.emit(3)
	r.store.release <- struct{}{}
	await(t, r.store.entered, "Apply 2 (the batch of three)")
	r.wantStats(1, 1)
	time.Sleep(30 * time.Millisecond)
	r.store.release <- struct{}{}

	// Apply 3 starts only after the spine has finished with batch 2.
	r.emit(1)
	await(t, r.store.entered, "Apply 3")
	r.wantStats(4, 2)
	if st := tun.Stats(); st.Window != 4 || st.Grows != 0 || st.Shrinks != 0 {
		t.Fatalf("in-flight bound moved after a slow batch: %+v, want window 4", st)
	}

	// With the lone transaction undecided, three more fit under the bound
	// of 4; they queue behind Apply 3 and commit together.
	r.emit(3)
	r.store.release <- struct{}{}
	await(t, r.store.entered, "Apply 4")
	r.wantStats(5, 3)
	r.store.release <- struct{}{}

	r.finish()
	r.wantStats(8, 4)
}
