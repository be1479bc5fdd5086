package stream

import "sync"

// The dataflow engine is vectorized: edges carry []Element batches, so
// one channel send/receive is amortized over up to batchCap elements, and
// chains of operators that need no goroutine of their own (Map, Filter,
// FlatMap, Punctuate, KeyBy, FormatValue, Transactions, ToTable) fuse into
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

// fusedStage is one stateless (or single-goroutine stateful) operator
// fused into its consumer: apply transforms one element into zero or
// more, and flush (optional) runs at end-of-stream, emitting into the
// remainder of the chain. end (optional) runs before every cut — after
// each input batch, before a hosted stage's mid-batch cut and before
// end-of-stream delivery — so work a stage holds for a batch is done
// before the stage's elements leave the chain: ToTable applies its
// pending write run there, and a TableJoin consuming its output under the
// same transaction reads those writes. hosted (optional) receives, when
// the consumer starts, the host's cut: a call hands everything the chain
// has emitted so far to the consumer's batch function at once, so a stage
// that is about to wait on the consumer (Transactions) can let it catch
// up first.
//
// What such a wait relies on is the consumer contract: every consume
// function forwards or decides each punctuation of a batch before it
// returns. A ToTable stage decides it inline, before the consumer sees
// it; Parallelize broadcasts it to the lanes at once; every other operator
// forwards it in its output batch.
type fusedStage struct {
	apply  func(e Element, emit func(Element))
	flush  func(emit func(Element))
	end    func()
	hosted func(cut func())
}

// fuse derives a stream with one more pending fused stage. The stage
// runs inside whatever goroutine eventually consumes the stream, so a
// chain of fused operators costs zero goroutines and zero channel hops.
func (s *Stream) fuse(apply func(Element, func(Element)), flush func(func(Element))) *Stream {
	stages := make([]fusedStage, len(s.stages)+1)
	copy(stages, s.stages)
	stages[len(s.stages)] = fusedStage{apply: apply, flush: flush}
	out := &Stream{t: s.t, ch: s.ch, stages: stages}
	s.t.derive(s, out)
	return out
}

// consume spawns op's goroutine: it drains s batch-at-a-time, applies
// the stream's fused stages, and hands each processed non-empty batch to
// fn, which takes ownership. fin (optional) runs once after the input is
// exhausted and every fused flush hook has fired — operators close their
// output edges there.
func (s *Stream) consume(op string, fn func(batch []Element), fin func()) {
	s.t.derive(s, nil)
	s.t.spawn(op, func() {
		if len(s.stages) == 0 {
			for b := range s.ch {
				if len(b) == 0 {
					putBatch(b)
					continue
				}
				fn(b)
			}
			if fin != nil {
				fin()
			}
			return
		}
		// sinks[i] runs the chain from stage i on; sinks[len] collects
		// into the current output batch, which cut hands to fn — after
		// every input batch, at end-of-stream, and whenever a hosted stage
		// asks — once the stages' end hooks have run. Stage flushes at
		// end-of-stream feed the chain suffix after their own stage,
		// preserving operator order for flush-emitted elements.
		var ends []func()
		for _, st := range s.stages {
			if st.end != nil {
				ends = append(ends, st.end)
			}
		}
		out := getBatch()
		cut := func() {
			for _, end := range ends {
				end()
			}
			if len(out) > 0 {
				fn(out)
				out = getBatch()
			}
		}
		sinks := make([]func(Element), len(s.stages)+1)
		sinks[len(s.stages)] = func(e Element) { out = append(out, e) }
		for i := len(s.stages) - 1; i >= 0; i-- {
			st := s.stages[i]
			next := sinks[i+1]
			sinks[i] = func(e Element) { st.apply(e, next) }
			if st.hosted != nil {
				st.hosted(cut)
			}
		}
		head := sinks[0]
		for b := range s.ch {
			for _, e := range b {
				head(e)
			}
			putBatch(b)
			cut()
		}
		for i := range s.stages {
			if fl := s.stages[i].flush; fl != nil {
				fl(sinks[i+1])
			}
		}
		cut()
		putBatch(out)
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
