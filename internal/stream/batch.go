package stream

import "sync"

// The dataflow engine is vectorized: edges carry []Element batches, so
// one channel send/receive is amortized over up to batchCap elements, and
// chains of operators that need no goroutine of their own (Map, Filter,
// FlatMap, Punctuate, FormatValue, Transactions, ToTable) fuse into
// the consuming operator's goroutine instead of costing one goroutine and
// one channel hop each. Punctuations stay in-band: a batch may contain
// BOT/COMMIT/ROLLBACK anywhere, and stages that care (ToTable,
// Transactions) act on them where they sit.
//
// Batch ownership is linear: whoever receives a batch owns it and either
// forwards it (possibly mutated in place — batches are single-reader) or
// returns it to the pool with putBatch. Fan-out operators (Split, Hub)
// hand each consumer its own copy.

const (
	// batchCap is the target number of elements per batch. Producers cut
	// batches at this size; under light load partial batches ship
	// immediately (see emitter), so batching never adds latency that a
	// consumer would notice.
	batchCap = 128

	// chanBuf is the per-edge channel buffer in batches; small enough
	// for backpressure, large enough to decouple operator scheduling.
	chanBuf = 16
)

// batchPool recycles batch backing arrays so the steady-state hot path
// allocates nothing per element. Pooled as *[]Element to avoid an
// interface allocation per slice header on Put; the boxes themselves
// circulate through holderPool — getBatch empties the box it took a
// batch from, putBatch refills one — so a batch's round trip through the
// pool allocates nothing either.
var (
	batchPool = sync.Pool{New: func() any {
		b := make([]Element, 0, batchCap)
		return &b
	}}
	holderPool sync.Pool
)

// getBatch returns an empty batch with at least batchCap capacity.
func getBatch() []Element {
	h := batchPool.Get().(*[]Element)
	b := (*h)[:0]
	*h = nil
	holderPool.Put(h)
	return b
}

// putBatch recycles a batch. Stale element contents are NOT cleared: the
// zeroing cost is measurable on the hot path, while the retention it
// avoids is transient and bounded — a pooled batch pins at most one
// batch worth of tuples until its next reuse, and sync.Pool drops idle
// entries within two GC cycles.
func putBatch(b []Element) {
	if cap(b) < batchCap {
		return
	}
	h, _ := holderPool.Get().(*[]Element)
	if h == nil {
		h = new([]Element)
	}
	*h = b[:0]
	batchPool.Put(h)
}

// fusedStage is one operator fused into its consumer and run there a
// batch at a time. run takes a batch it owns and returns the batch the
// rest of the chain gets, which it then owns: a 1:1 stage rewrites b in
// place (Map, Transactions' tagging, ToTable), a stage that drops
// elements compacts b (Filter), and a stage that adds elements fills one
// pooled output batch and recycles b (FlatMap; Punctuate when the batch
// needs a punctuation inserted, copying the runs between insertions as
// blocks). No closure runs per element and stage, and no element is
// copied from one stage to the next.
// flush (optional) runs at end-of-stream and appends what the stage still
// holds to out, which the stages after it then run over, preserving
// operator order for flush-emitted elements.
//
// A stage completes within run whatever it defers within a batch, so that
// work is done before the batch leaves the chain: ToTable applies its
// pending write run last thing in run, and a TableJoin consuming its
// output under the same transaction reads those writes.
//
// hosted (optional) receives, when the consumer starts, the host's cut:
// cut(prefix) runs the stages after this one over prefix and hands the
// result to the consumer's batch function, so a stage that is about to
// wait on the consumer (Transactions, on a full window) can let it catch
// up first. The prefix passes with ownership: it must not share a backing
// array with the part of the batch the stage still processes.
//
// What such a wait relies on is the consumer contract: every consume
// function forwards or decides each punctuation of a batch before it
// returns. A ToTable stage decides it inline, before the consumer sees
// it; Parallelize broadcasts it to the lanes at once; every other operator
// forwards it in its output batch.
type fusedStage struct {
	run    func(b []Element) []Element
	flush  func(out []Element) []Element
	hosted func(cut func(prefix []Element))
}

// fuse derives a stream with one more pending fused stage. The stage
// runs inside whatever goroutine eventually consumes the stream, so a
// chain of fused operators costs zero goroutines and zero channel hops.
func (s *Stream) fuse(st fusedStage) *Stream {
	stages := make([]fusedStage, len(s.stages)+1)
	copy(stages, s.stages)
	stages[len(s.stages)] = st
	out := &Stream{t: s.t, ch: s.ch, stages: stages}
	s.t.derive(s, out)
	return out
}

// consume spawns op's goroutine: it drains s batch-at-a-time, runs the
// stream's fused stages over each batch in order, and hands the last
// stage's non-empty batch to fn, which takes ownership. A hosted stage's
// cut hands fn a prefix of a batch the same way, and at end-of-stream each
// stage's flush output runs through the stages after it. fin (optional)
// runs once after the input is exhausted and every fused flush hook has
// fired — operators close their output edges there.
func (s *Stream) consume(op string, fn func(batch []Element), fin func()) {
	s.t.derive(s, nil)
	stages := s.stages
	s.t.spawn(op, func() {
		hand := func(b []Element) {
			if len(b) == 0 {
				putBatch(b)
				return
			}
			fn(b)
		}
		// from runs stages i.. over b; an emptied batch skips the rest,
		// which holds nothing for it.
		from := func(i int, b []Element) []Element {
			for ; i < len(stages) && len(b) > 0; i++ {
				b = stages[i].run(b)
			}
			return b
		}
		for i, st := range stages {
			if st.hosted != nil {
				st.hosted(func(prefix []Element) { hand(from(i+1, prefix)) })
			}
		}
		for b := range s.ch {
			hand(from(0, b))
		}
		for i, st := range stages {
			if st.flush != nil {
				hand(from(i+1, st.flush(getBatch())))
			}
		}
		if fin != nil {
			fin()
		}
	})
}

// emitter adapts per-element producers (Source generators, ToStream) to
// batched edges. Emit appends to the current batch and ships it when it
// is full — or immediately, via a non-blocking send, while the edge has
// room: when the consumer keeps up elements flow with per-element
// latency, and once backpressure builds batches grow toward batchCap,
// which is exactly when amortization pays.
type emitter struct {
	out *Stream
	buf []Element
}

func newEmitter(out *Stream) *emitter {
	return &emitter{out: out, buf: getBatch()}
}

func (em *emitter) emit(e Element) {
	em.buf = append(em.buf, e)
	if len(em.buf) >= batchCap {
		em.out.ch <- em.buf
		em.buf = getBatch()
		return
	}
	select {
	case em.out.ch <- em.buf:
		em.buf = getBatch()
	default:
	}
}

// flush ships a partial batch (blocking).
func (em *emitter) flush() {
	if len(em.buf) > 0 {
		em.out.ch <- em.buf
		em.buf = getBatch()
	}
}

// close flushes and closes the edge.
func (em *emitter) close() {
	em.flush()
	putBatch(em.buf)
	em.buf = nil
	close(em.out.ch)
}
