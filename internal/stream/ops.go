package stream

import (
	"errors"
	"fmt"

	"sistream/internal/txn"
)

// The stateless operators below are fused: they cost no goroutine and no
// channel hop, running a batch at a time in whatever operator eventually
// consumes the stream (see batch.go). Their per-element state, where any
// exists (Punctuate), is touched by exactly one goroutine — the
// consumer's.
//
// The name parameters are kept for API stability; they were only ever
// the (unused) goroutine label even in the operator-per-goroutine
// engine, so nothing references them.

// Map transforms data tuples one-to-one; punctuations pass through.
func (s *Stream) Map(name string, fn func(Tuple) Tuple) *Stream {
	_ = name
	return s.fuse(fusedStage{run: func(b []Element) []Element {
		for i := range b {
			if b[i].Kind == KindData {
				b[i].Tuple = fn(b[i].Tuple)
			}
		}
		return b
	}})
}

// Filter drops data tuples failing pred; punctuations pass through.
func (s *Stream) Filter(name string, pred func(Tuple) bool) *Stream {
	_ = name
	return s.fuse(fusedStage{run: func(b []Element) []Element {
		n := 0
		for i := range b {
			if b[i].Kind == KindData && !pred(b[i].Tuple) {
				continue
			}
			if n != i {
				b[n] = b[i]
			}
			n++
		}
		return b[:n]
	}})
}

// FlatMap maps one tuple to zero or more; punctuations pass through.
func (s *Stream) FlatMap(name string, fn func(Tuple, func(Tuple))) *Stream {
	_ = name
	// out and tx are the batch being filled and the transaction of the
	// tuple being mapped: one emit closure serves every tuple.
	var out []Element
	var tx *txn.Txn
	emit := func(t Tuple) { out = append(out, Element{Kind: KindData, Tuple: t, Tx: tx}) }
	return s.fuse(fusedStage{run: func(b []Element) []Element {
		out = getBatch()
		for i := range b {
			if b[i].Kind != KindData {
				out = append(out, b[i])
				continue
			}
			tx = b[i].Tx
			fn(b[i].Tuple, emit)
		}
		putBatch(b)
		res := out
		out = nil
		return res
	}})
}

// Punctuate inserts transaction boundary punctuations around groups of n
// data tuples — the data-centric "auto-commit every n elements" policy.
// Pre-existing punctuations in the input pass through and reset the
// counter, so explicit boundaries win over the automatic ones. The
// inserted punctuations land in-band inside the current batch. n < 1 is
// a construction error that Run returns.
func (s *Stream) Punctuate(n int) *Stream {
	if n < 1 {
		s.t.fail("punctuate", fmt.Errorf("Punctuate needs n >= 1, got %d", n))
		n = 1
	}
	s.t.note("operator", "punctuate", fmt.Sprintf("every=%d (fused)", n))
	// explicit: inside a transaction delimited by punctuations already
	// present in the input — those are passed through untouched.
	// auto: inside a transaction this operator opened itself.
	var explicit, auto bool
	count := 0
	return s.fuse(fusedStage{run: func(b []Element) []Element {
		// out is nil until the batch needs a punctuation inserted; b[from:]
		// is what has not been copied into it yet, so the elements between
		// two insertions move as one block.
		var out []Element
		from := 0
		for i := range b {
			switch b[i].Kind {
			case KindData:
				if explicit {
					continue
				}
				if !auto {
					out = splice(out, b[from:i], KindBOT)
					from = i
					auto = true
					count = 0
				}
				count++
				if count >= n {
					out = splice(out, b[from:i+1], KindCommit)
					from = i + 1
					auto = false
				}
			case KindBOT:
				if auto {
					// Close the automatic batch before the explicit one.
					out = splice(out, b[from:i], KindCommit)
					from = i
					auto = false
				}
				explicit = true
			case KindCommit, KindRollback:
				explicit = false
			}
		}
		if out == nil {
			return b
		}
		out = append(out, b[from:]...)
		putBatch(b)
		return out
	}, flush: func(out []Element) []Element {
		if auto {
			out = append(out, Punctuation(KindCommit))
			auto = false
		}
		return out
	}})
}

// splice appends run and then a punctuation of kind k to out, taking out
// from the pool first if it is nil.
func splice(out, run []Element, k Kind) []Element {
	if out == nil {
		out = getBatch()
	}
	out = append(out, run...)
	return append(out, Punctuation(k))
}

// Transactions interprets punctuations against protocol p: BOT begins a
// transaction whose handle is attached to every element up to the next
// COMMIT/ROLLBACK. Downstream stateful operators (ToTable) use the
// attached handle, so all states written by this query share one
// transaction — the precondition of the consistency protocol.
//
// tables lists the states the query maintains (each downstream ToTable
// target). They are declared on every transaction at Begin so the
// consistency protocol knows the full state list upfront and the LAST
// TO_TABLE operator in the pipeline becomes the commit coordinator; with
// a single ToTable the list may be empty.
//
// If Begin fails the error is recorded and the affected batch is dropped.
//
// The query's transactions are strictly serialized — batch N+1 begins
// only after batch N is decided; TransactionsWindow relaxes this to a
// bounded window for the fused commit spine. Transactions is a fused
// stage (no goroutine, no channel hop): before it waits for a decision it
// hands the part of the batch it has tagged, through the rest of the
// chain, to its consumer, which decides the transaction (ToTable) or
// forwards its COMMIT toward the operator that does — so on the
// sequential spine the wait returns at once.
func (s *Stream) Transactions(p txn.Protocol, tables ...*txn.Table) *Stream {
	return s.TransactionsWindow(p, 1, tables...)
}

// TransactionsWindow is Transactions with a bounded pipeline of undecided
// transactions: up to window consecutive transactions of the query may be
// in flight at once, the enabling half of the fused commit spine
// (ParallelRegion.MergeBatched submits the lane-complete ones to the
// group-commit pipeline as one batch). window == 1 is exactly
// Transactions: batch N+1 begins only after batch N is decided. A window
// below one is a construction error that Run returns.
//
// With window > 1 the transactions are attached to one txn.Chain, which
// keeps the serial-order semantics honest while they overlap: a chain
// successor's First-Committer-Wins check treats its predecessors' writes
// as serial history (not conflicts), and S2PL's wait-die lets a successor
// wait out a predecessor's locks. What a window does NOT preserve is read
// visibility BETWEEN the windowed transactions: transaction N+1 pins its
// snapshot before transaction N commits, so protocol reads inside the
// window may observe the pre-window state. Use windows on blind-write
// ingest spines (TO_TABLE pipelines); keep window == 1 for queries that
// read the states they maintain.
//
// Like Transactions it is a fused stage: in front of a parallel region
// the Parallelize router runs it, and a full window first makes the
// router broadcast the awaited COMMIT to the lanes, then waits.
func (s *Stream) TransactionsWindow(p txn.Protocol, window int, tables ...*txn.Table) *Stream {
	if window < 1 {
		s.t.fail("transactions", fmt.Errorf("TransactionsWindow needs window >= 1, got %d", window))
		window = 1
	}
	desc := fmt.Sprintf("protocol=%s window=%d (serialized, fused)", p.Name(), window)
	if window > 1 {
		desc = fmt.Sprintf("protocol=%s window=%d (chained, fused)", p.Name(), window)
	}
	return s.transactionsPipeline(p, window, desc, tables...)
}

// TransactionsTuned is TransactionsWindow whose window is the in-flight
// bound of an AutoTuner, MaxWindow. It is backpressure, not a batch size —
// the MergeTuned spine commits whatever has queued and never waits for the
// window to fill. Pass the SAME tuner to the region's MergeTuned. The
// visibility caveat of TransactionsWindow applies: use on blind-write
// ingest spines. A nil tuner is a construction error that Run returns.
func (s *Stream) TransactionsTuned(p txn.Protocol, tun *AutoTuner, tables ...*txn.Table) *Stream {
	if tun == nil {
		s.t.fail("transactions", errors.New("TransactionsTuned needs a tuner"))
		return s.transactionsPipeline(p, 1, fmt.Sprintf("protocol=%s (no tuner)", p.Name()), tables...)
	}
	desc := fmt.Sprintf("protocol=%s inflight<=%d (tuner, chained, fused)", p.Name(), tun.window)
	return s.transactionsPipeline(p, tun.window, desc, tables...)
}

// transactionsPipeline is the one implementation of Transactions /
// TransactionsWindow / TransactionsTuned, a fused stage run by whichever
// operator consumes the stream: window bounds the undecided transactions,
// and a window above one attaches them to a shared txn.Chain (a chain of
// one would be a plain transaction). desc states the window decision in
// the recorded plan (plan.go).
func (s *Stream) transactionsPipeline(p txn.Protocol, window int, desc string, tables ...*txn.Table) *Stream {
	s.t.note("operator", "transactions", desc)
	var cur *txn.Txn
	var inflight []*txn.Txn
	var chain *txn.Chain
	if window > 1 {
		chain = txn.NewChain()
	}
	var cut func([]Element)
	return s.fuse(fusedStage{run: func(b []Element) []Element {
		// b[base:w] is the tagged output not yet handed on: w compacts it
		// over the BOTs whose Begin failed, and a cut moves base past
		// what it handed on.
		base, w := 0, 0
		for r := 0; r < len(b); r++ {
			if b[r].Kind == KindBOT {
				// Bound the query's undecided transactions: batch N+1
				// begins only after batch N-window+1 is decided downstream.
				// Without any bound, pipelined batches writing the same hot
				// keys would be unboundedly many concurrent transactions;
				// with the chain attached, the overlap within the window is
				// conflict-exempt (see txn.Chain).
				if len(inflight) >= window {
					// Hand the host everything tagged so far FIRST: the
					// awaited transaction's COMMIT must reach the operator
					// that decides it — the very thing being awaited. By
					// the consumer contract (see fusedStage) the host has
					// decided or forwarded it when the cut returns. The
					// prefix leaves in a batch of its own, so it shares no
					// backing array with the rest, which is still being
					// tagged; every element is copied once at most, however
					// many cuts a batch holds.
					if w > base {
						cut(append(getBatch(), b[base:w]...))
						base, w = r, r
					}
					<-inflight[0].Done()
					// Shift rather than reslice, so the queue keeps its array.
					n := copy(inflight, inflight[1:])
					inflight[n] = nil
					inflight = inflight[:n]
				}
				tx, err := p.Begin()
				if err != nil {
					s.t.fail("transactions", fmt.Errorf("begin: %w", err))
					cur = nil
					continue
				}
				if chain != nil {
					tx.SetChain(chain)
				}
				if err := tx.Declare(tables...); err != nil {
					s.t.fail("transactions", fmt.Errorf("declare: %w", err))
					_ = p.Abort(tx)
					cur = nil
					continue
				}
				cur = tx
			}
			b[r].Tx = cur
			if b[r].Kind == KindCommit || b[r].Kind == KindRollback {
				if cur != nil {
					inflight = append(inflight, cur)
				}
				cur = nil
			}
			if w != r {
				b[w] = b[r]
			}
			w++
		}
		if base > 0 {
			// The rest moves to the front, so the batch keeps its array.
			w = copy(b, b[base:w])
		}
		return b[:w]
	}, flush: func(out []Element) []Element {
		// Input ended mid-transaction: roll the dangling transaction back.
		if cur != nil {
			_ = p.Abort(cur)
			cur = nil
		}
		return out
	}, hosted: func(c func([]Element)) { cut = c }})
}
