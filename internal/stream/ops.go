package stream

import (
	"fmt"

	"sistream/internal/txn"
)

// The stateless operators below are fused: they cost no goroutine and no
// channel hop, running inline in whatever operator eventually consumes
// the stream (see batch.go). Their per-element state, where any exists
// (Punctuate), is touched by exactly one goroutine — the consumer's.
//
// The name parameters are kept for API stability; they were only ever
// the (unused) goroutine label even in the operator-per-goroutine
// engine, and fused stages cannot fail, so nothing references them.

// Map transforms data tuples one-to-one; punctuations pass through.
func (s *Stream) Map(name string, fn func(Tuple) Tuple) *Stream {
	_ = name
	return s.fuse(func(e Element, emit func(Element)) {
		if e.Kind == KindData {
			e.Tuple = fn(e.Tuple)
		}
		emit(e)
	}, nil)
}

// Filter drops data tuples failing pred; punctuations pass through.
func (s *Stream) Filter(name string, pred func(Tuple) bool) *Stream {
	_ = name
	return s.fuse(func(e Element, emit func(Element)) {
		if e.Kind == KindData && !pred(e.Tuple) {
			return
		}
		emit(e)
	}, nil)
}

// FlatMap maps one tuple to zero or more; punctuations pass through.
func (s *Stream) FlatMap(name string, fn func(Tuple, func(Tuple))) *Stream {
	_ = name
	return s.fuse(func(e Element, emit func(Element)) {
		if e.Kind != KindData {
			emit(e)
			return
		}
		tx := e.Tx
		fn(e.Tuple, func(t Tuple) {
			emit(Element{Kind: KindData, Tuple: t, Tx: tx})
		})
	}, nil)
}

// Punctuate inserts transaction boundary punctuations around groups of n
// data tuples — the data-centric "auto-commit every n elements" policy.
// Pre-existing punctuations in the input pass through and reset the
// counter, so explicit boundaries win over the automatic ones. The
// inserted punctuations land in-band inside the current batch.
func (s *Stream) Punctuate(n int) *Stream {
	if n <= 0 {
		panic("stream: Punctuate needs n >= 1")
	}
	s.t.note("operator", "punctuate", fmt.Sprintf("every=%d (fused)", n), nil)
	// explicit: inside a transaction delimited by punctuations already
	// present in the input — those are passed through untouched.
	// auto: inside a transaction this operator opened itself.
	var explicit, auto bool
	count := 0
	return s.fuse(func(e Element, emit func(Element)) {
		switch e.Kind {
		case KindData:
			if explicit {
				emit(e)
				return
			}
			if !auto {
				emit(Punctuation(KindBOT))
				auto = true
				count = 0
			}
			emit(e)
			count++
			if count >= n {
				emit(Punctuation(KindCommit))
				auto = false
			}
		case KindBOT:
			if auto {
				// Close the automatic batch before the explicit one.
				emit(Punctuation(KindCommit))
				auto = false
			}
			explicit = true
			emit(e)
		case KindCommit, KindRollback:
			explicit = false
			emit(e)
		default:
			emit(e)
		}
	}, func(emit func(Element)) {
		if auto {
			emit(Punctuation(KindCommit))
			auto = false
		}
	})
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
// hands everything it has emitted to its consumer, which decides the
// transaction (ToTable) or forwards its COMMIT toward the operator that
// does — so on the sequential spine the wait returns at once.
func (s *Stream) Transactions(p txn.Protocol, tables ...*txn.Table) *Stream {
	return s.TransactionsWindow(p, 1, tables...)
}

// TransactionsWindow is Transactions with a bounded pipeline of undecided
// transactions: up to window consecutive transactions of the query may be
// in flight at once, the enabling half of the fused commit spine
// (ParallelRegion.MergeBatched submits the lane-complete ones to the
// group-commit pipeline as one batch). window == 1 is exactly
// Transactions: batch N+1 begins only after batch N is decided.
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
		panic("stream: TransactionsWindow needs window >= 1")
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
// ingest spines.
func (s *Stream) TransactionsTuned(p txn.Protocol, tun *AutoTuner, tables ...*txn.Table) *Stream {
	if tun == nil {
		panic("stream: TransactionsTuned needs a tuner")
	}
	desc := fmt.Sprintf("protocol=%s inflight<=%d (tuner, chained, fused)", p.Name(), tun.window)
	return s.transactionsPipeline(p, tun.window, desc, tables...)
}

// transactionsPipeline is the one implementation of Transactions /
// TransactionsWindow / TransactionsTuned, a fused stage run by whichever
// operator consumes the stream: window bounds the undecided transactions,
// and a window above one attaches them to a shared txn.Chain (a chain of
// one would be a plain transaction). desc states the window decision in
// the recorded plan (explain.go).
func (s *Stream) transactionsPipeline(p txn.Protocol, window int, desc string, tables ...*txn.Table) *Stream {
	s.t.note("operator", "transactions", desc, nil)
	var cur *txn.Txn
	var inflight []*txn.Txn
	var chain *txn.Chain
	if window > 1 {
		chain = txn.NewChain()
	}
	var cut func()
	out := s.fuse(func(e Element, emit func(Element)) {
		if e.Kind == KindBOT {
			// Bound the query's undecided transactions: batch N+1 begins
			// only after batch N-window+1 is decided downstream. Without
			// any bound, pipelined batches writing the same hot keys would
			// be unboundedly many concurrent transactions; with the chain
			// attached, the overlap within the window is conflict-exempt
			// (see txn.Chain).
			if len(inflight) >= window {
				// Hand the host everything emitted so far FIRST: the
				// awaited transaction's COMMIT must reach the operator
				// that decides it — the very thing being awaited. By the
				// consumer contract (see fusedStage) the host has decided
				// or forwarded it when the cut returns.
				cut()
				<-inflight[0].Done()
				inflight = inflight[1:]
			}
			tx, err := p.Begin()
			if err != nil {
				s.t.fail("transactions", fmt.Errorf("begin: %w", err))
				cur = nil
				return
			}
			if chain != nil {
				tx.SetChain(chain)
			}
			if err := tx.Declare(tables...); err != nil {
				s.t.fail("transactions", fmt.Errorf("declare: %w", err))
				_ = p.Abort(tx)
				cur = nil
				return
			}
			cur = tx
		}
		e.Tx = cur
		if e.Kind == KindCommit || e.Kind == KindRollback {
			if cur != nil {
				inflight = append(inflight, cur)
			}
			cur = nil
		}
		emit(e)
	}, func(func(Element)) {
		// Input ended mid-transaction: roll the dangling transaction back.
		if cur != nil {
			_ = p.Abort(cur)
			cur = nil
		}
	})
	out.stages[len(out.stages)-1].hosted = func(c func()) { cut = c }
	return out
}
