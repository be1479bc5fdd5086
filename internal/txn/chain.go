package txn

// This file implements cross-transaction commit chains: the transaction-
// layer half of the fused commit spine. A continuous stream query is a
// SEQUENCE of transactions; with the sequential spine the query's next
// transaction begins only after the previous one committed, so the
// group-commit pipeline sees at most one of the query's transactions at a
// time and every small transaction pays its own leader tenure, store batch
// and fsync. A Chain makes the sequence explicit so the stream layer can
// run a bounded WINDOW of the query's transactions concurrently and submit
// several consecutive, already-decided transactions to the pipeline as ONE
// batch — one leader tenure, one coalesced store batch + fsync, one
// LastCTS publish for N small transactions — without giving up the
// serial-order semantics the sequence had:
//
//   - First-Committer-Wins stays honest: a chain member admitted at
//     commit time raises the chain's committed floor to its commit
//     timestamp, and a later member's FCW snapshot is raised to that
//     floor. Conflicts between chain members therefore never abort (the
//     successor is, by construction, the next transaction of the same
//     serial query — exactly as if it had begun right after its
//     predecessor committed), while conflicts with FOREIGN writers that
//     committed after the floor still do.
//   - Wait-die stays deadlock-free: a chain successor may wait for a
//     predecessor's locks even though it is younger, because a
//     predecessor past its decision point never waits on a successor
//     (see lockmgr.go mayWait).
//
// What a window deliberately does NOT preserve is read visibility between
// the windowed transactions: member N+1 begins (and pins its snapshot)
// before member N commits, so reads inside the window may observe the
// pre-window state. The fused spine targets the blind-write TO_TABLE
// ingest path, where transactions carry no reads; see DESIGN.md "Fused
// commit spine" for the full argument.

import "sync/atomic"

// Chain is the serial-commit token shared by the transactions of one
// windowed stream query. Attach each transaction with Txn.SetChain before
// its first write; the commit machinery maintains the chain's committed
// floor. The zero value is ready to use; NewChain is the conventional
// constructor.
type Chain struct {
	// lastCTS is the chain's committed floor: the newest commit timestamp
	// admitted by a chain member. Later members' FCW snapshots are raised
	// to it.
	lastCTS atomic.Uint64
}

// NewChain creates an empty commit chain.
func NewChain() *Chain { return &Chain{} }

// floor returns the chain's committed floor (0 before the first member
// commits).
func (c *Chain) floor() Timestamp { return c.lastCTS.Load() }

// raise lifts the committed floor to at least cts. Admissions of one
// chain are ordered (the spine submits members in order and admissions
// serialize under the group commit latch), but distinct groups of a
// multi-state chain may race, hence the CAS-max.
func (c *Chain) raise(cts Timestamp) {
	for {
		cur := c.lastCTS.Load()
		if cur >= cts || c.lastCTS.CompareAndSwap(cur, cts) {
			return
		}
	}
}

// SetChain attaches t to a serial commit chain. The caller asserts that
// the chain's transactions are totally ordered — each is submitted for
// commit only after its predecessor — which is exactly what the stream
// layer's windowed Transactions operator plus the barrier's commit spine
// guarantee. Must be called before the transaction's first write.
func (t *Txn) SetChain(c *Chain) { t.chain = c }

// sameChainPredecessor reports whether hold is an earlier member of the
// same commit chain as req — the one younger-waits-for-older exception
// wait-die grants (see lockmgr.go).
func sameChainPredecessor(req, hold *Txn) bool {
	return req.chain != nil && req.chain == hold.chain && hold.id < req.id
}
