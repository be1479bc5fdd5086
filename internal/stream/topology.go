package stream

import (
	"fmt"
	"sync"
)

// Topology is a dataflow graph under construction and, after Start, in
// execution. Operators are goroutines or stages fused into the goroutine
// of their consumer; edges are channels of Element batches (see batch.go
// for the vectorized execution model). Build the
// graph with Source and the Stream methods, then call Start and Wait.
// The first operator error aborts bookkeeping and is returned by Wait.
type Topology struct {
	name  string
	start chan struct{}
	wg    sync.WaitGroup

	mu      sync.Mutex
	errs    []error
	started bool
	// invalid is set by Start when construction recorded an error: the
	// sources then emit nothing, so Run returns the error with no
	// element having flowed. Read after <-start.
	invalid bool
	// undrained holds the streams that carry a sequential TO_TABLE stage
	// and that no operator consumes or derives from yet. Start drains
	// each, so a ToTable writes whether or not its output is used.
	undrained map[*Stream]bool

	// Recorded plan (see explain.go): construction-time notes plus live
	// samplers, append-only under its own mutex so Explain can run while
	// the topology does.
	planMu sync.Mutex
	plan   []*planNode
}

// New creates an empty topology.
func New(name string) *Topology {
	return &Topology{name: name, start: make(chan struct{})}
}

// Name returns the topology's name.
func (t *Topology) Name() string { return t.name }

// fail records an operator error.
func (t *Topology) fail(op string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.errs = append(t.errs, fmt.Errorf("%s/%s: %w", t.name, op, err))
}

// Start releases the sources. Idempotent. A stream carrying a ToTable
// that nothing consumes is discarded, so the ToTable still runs. When
// building the topology recorded an error (an operator given an invalid
// argument), the sources close their streams without emitting, every
// operator drains, and Wait returns that error.
func (t *Topology) Start() {
	t.mu.Lock()
	if t.started {
		t.mu.Unlock()
		return
	}
	t.started = true
	t.invalid = len(t.errs) > 0
	drains := t.undrained
	t.undrained = nil
	t.mu.Unlock()
	for s := range drains {
		s.Discard()
	}
	close(t.start)
}

// mustDrain records that s carries a sequential TO_TABLE stage: unless an
// operator consumes s or a derivation of it, Start drains it.
func (t *Topology) mustDrain(s *Stream) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.undrained == nil {
		t.undrained = make(map[*Stream]bool)
	}
	t.undrained[s] = true
}

// derive records that from is consumed (to == nil) or derived into to by
// one more fused stage, which carries from's stages and so its drain.
func (t *Topology) derive(from, to *Stream) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.undrained[from] {
		delete(t.undrained, from)
		if to != nil {
			t.undrained[to] = true
		}
	}
}

// released blocks until Start and reports whether the sources may emit:
// false when construction recorded an error.
func (t *Topology) released() bool {
	<-t.start
	return !t.invalid
}

// Wait blocks until every operator has finished (sources exhausted and
// channels drained) and returns the first recorded error.
func (t *Topology) Wait() error {
	t.wg.Wait()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) > 0 {
		return t.errs[0]
	}
	return nil
}

// Run is Start followed by Wait.
func (t *Topology) Run() error {
	t.Start()
	return t.Wait()
}

// Stream is one dataflow edge: the output of an operator, consumable by
// exactly one downstream operator (use Hub or Split for fan-out). A
// Stream may additionally carry fused stages — stateless transforms the
// eventual consumer applies inline (see batch.go) — so deriving a stream
// with Map/Filter/... costs nothing at runtime.
type Stream struct {
	t      *Topology
	ch     chan []Element
	stages []fusedStage
}

func (t *Topology) newStream() *Stream {
	return &Stream{t: t, ch: make(chan []Element, chanBuf)}
}

// empty returns a stream that closes, with no element, once the topology
// starts: what an operator whose construction recorded an error hands on.
func (t *Topology) empty(name string) *Stream {
	out := t.newStream()
	t.spawn(name, func() {
		<-t.start
		close(out.ch)
	})
	return out
}

// spawn registers and launches one operator goroutine.
func (t *Topology) spawn(op string, body func()) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		body()
	}()
	_ = op
}

// Source creates a stream fed by gen, which emits elements until it
// returns (nil for exhausted input, or an error). Generation begins when
// the topology starts. Emitted elements are delivered in batches: a
// partial batch ships as soon as the edge has room, so delivery is
// prompt whenever the consumer keeps up, and only a persistently full
// edge (a backlogged consumer) makes batches grow toward batchCap.
func (t *Topology) Source(name string, gen func(emit func(Element)) error) *Stream {
	out := t.newStream()
	t.note("source", name, "", occOf(out))
	t.spawn(name, func() {
		if !t.released() {
			close(out.ch)
			return
		}
		em := newEmitter(out)
		err := gen(em.emit)
		em.close()
		if err != nil {
			t.fail(name, err)
		}
	})
	return out
}

// SliceSource emits the given tuples as data elements (testing and
// examples convenience). The input is pre-chunked into full batches.
func (t *Topology) SliceSource(name string, tuples []Tuple) *Stream {
	out := t.newStream()
	t.note("source", name, fmt.Sprintf("%d tuples", len(tuples)), occOf(out))
	t.spawn(name, func() {
		defer close(out.ch)
		if !t.released() {
			return
		}
		for len(tuples) > 0 {
			n := batchCap
			if n > len(tuples) {
				n = len(tuples)
			}
			b := getBatch()
			for _, tp := range tuples[:n] {
				b = append(b, DataElement(tp))
			}
			tuples = tuples[n:]
			out.ch <- b
		}
	})
	return out
}

// Sink consumes the stream, calling fn for every element.
func (s *Stream) Sink(name string, fn func(Element)) {
	s.consume(name, func(b []Element) {
		for _, e := range b {
			fn(e)
		}
		putBatch(b)
	}, nil)
}

// Collect consumes the stream into a slice delivered on the returned
// channel when the stream closes (testing convenience).
func (s *Stream) Collect() <-chan []Element {
	out := make(chan []Element, 1)
	var all []Element
	s.consume("collect", func(b []Element) {
		all = append(all, b...)
		putBatch(b)
	}, func() { out <- all })
	return out
}

// Discard consumes and drops the stream (when only the operator's side
// effects matter, e.g. after ToTable).
func (s *Stream) Discard() {
	s.consume("discard", func(b []Element) { putBatch(b) }, nil)
}

// Merge fans one or more streams into one; element order across inputs
// is arbitrary, order within an input is preserved. Batches are forwarded
// whole — no copying. The first input is a parameter of its own: a Merge
// of nothing would have no topology to report its error to, so it does
// not compile.
func Merge(name string, first *Stream, more ...*Stream) *Stream {
	streams := append([]*Stream{first}, more...)
	t := first.t
	out := t.newStream()
	var wg sync.WaitGroup
	wg.Add(len(streams))
	for _, in := range streams {
		in.consume(name, func(b []Element) { out.ch <- b }, wg.Done)
	}
	t.spawn(name+"/closer", func() {
		wg.Wait()
		close(out.ch)
	})
	return out
}

// Split duplicates the stream into n independent output streams, each
// receiving every element (punctuations included). The transaction
// handle is shared — that is what lets several TO_TABLE operators join
// the same transaction. Each output gets its own copy of every batch
// (batches are single-owner; consumers may mutate them in place).
func (s *Stream) Split(n int) []*Stream {
	outs := make([]*Stream, n)
	for i := range outs {
		outs[i] = s.t.newStream()
	}
	s.consume("split", func(b []Element) {
		for _, o := range outs[1:] {
			nb := getBatch()
			nb = append(nb, b...)
			o.ch <- nb
		}
		outs[0].ch <- b
	}, func() {
		for _, o := range outs {
			close(o.ch)
		}
	})
	return outs
}

// Hub turns the stream into an attach-point implementing the paper's
// FROM(stream) semantics: subscribers receive all elements from their
// point of attachment onward. Elements arriving while no subscriber is
// attached are dropped (a stream is volatile).
type Hub struct {
	t    *Topology
	mu   sync.Mutex
	subs map[int]*hubSub
	next int
	done bool
}

// hubSub is one subscription. Its mutex serializes delivery against
// channel close, and done unblocks an in-flight delivery when the
// subscriber detaches — so Detach never waits on a slow subscriber's
// full channel.
type hubSub struct {
	st   *Stream
	done chan struct{}

	mu   sync.Mutex
	gone bool
}

// close closes the subscriber's edge exactly once.
func (sub *hubSub) close() {
	sub.mu.Lock()
	if !sub.gone {
		sub.gone = true
		close(sub.st.ch)
	}
	sub.mu.Unlock()
}

// Hub consumes the stream and returns the attach-point. Broadcasting
// snapshots the subscriber list under the hub lock and delivers outside
// it, so Attach and Detach never wait behind a slow subscriber, and a
// stalled subscriber can always be detached (done interrupts its
// in-flight delivery). Delivery itself is sequential: a subscriber with
// a full channel still backpressures the hub — and thus later
// subscribers in the same round — which is deliberate; the alternative
// is dropping or buffering elements unboundedly.
func (s *Stream) Hub() *Hub {
	h := &Hub{t: s.t, subs: make(map[int]*hubSub)}
	var snap []*hubSub
	s.consume("hub", func(b []Element) {
		h.mu.Lock()
		snap = snap[:0]
		for _, sub := range h.subs {
			snap = append(snap, sub)
		}
		h.mu.Unlock()
		if len(snap) == 1 {
			// Single-subscriber fast path: hand the batch off without the
			// copy — ownership transfers to the subscriber, so the hub must
			// not recycle it (and must recycle it itself if the delivery is
			// interrupted by a detach or the subscriber is already gone).
			sub := snap[0]
			delivered := false
			sub.mu.Lock()
			if !sub.gone {
				select {
				case sub.st.ch <- b:
					delivered = true
				case <-sub.done:
				}
			}
			sub.mu.Unlock()
			if !delivered {
				putBatch(b)
			}
			return
		}
		for _, sub := range snap {
			sub.mu.Lock()
			if !sub.gone {
				nb := getBatch()
				nb = append(nb, b...)
				select {
				case sub.st.ch <- nb:
				case <-sub.done:
					putBatch(nb)
				}
			}
			sub.mu.Unlock()
		}
		putBatch(b)
	}, func() {
		h.mu.Lock()
		h.done = true
		subs := make([]*hubSub, 0, len(h.subs))
		for id, sub := range h.subs {
			subs = append(subs, sub)
			delete(h.subs, id)
		}
		h.mu.Unlock()
		for _, sub := range subs {
			sub.close()
		}
	})
	return h
}

// Attach subscribes from this point on (FROM(stream)). The returned
// stream closes when the hub's input closes or Detach is called.
func (h *Hub) Attach() (*Stream, func()) {
	h.mu.Lock()
	sub := &hubSub{st: h.t.newStream(), done: make(chan struct{})}
	if h.done {
		h.mu.Unlock()
		close(sub.st.ch)
		return sub.st, func() {}
	}
	id := h.next
	h.next++
	h.subs[id] = sub
	h.mu.Unlock()
	detach := func() {
		h.mu.Lock()
		_, live := h.subs[id]
		delete(h.subs, id)
		h.mu.Unlock()
		if !live {
			return // already detached, or the hub closed it
		}
		close(sub.done)
		sub.close()
	}
	return sub.st, detach
}
