package txn

// S2PL is the strict two-phase locking baseline of the paper's
// evaluation [6]: shared locks on read, exclusive locks on write (with
// upgrade), all locks held until the transaction finishes. Reads return
// the latest committed version — there are no snapshots, which is exactly
// why concurrent ad-hoc readers stall behind the continuous writer on hot
// keys as contention rises (Figure 4). Deadlocks are avoided with
// wait-die; a killed transaction returns ErrDeadlock and the caller
// restarts it (counted as an abort by the benchmark).
//
// Over the shared entry path (protocolBase) S2PL sets two rules: the lock
// taken before every read and write (lockKey), and the release of all of
// a transaction's locks once it is decided (settle) — after its commit
// is installed and visible or failed, on Abort, and after a wait-die
// kill. No commit-time admission check is needed: the locks already
// guarantee serializability.
type S2PL struct {
	protocolBase
	locks *lockManager
}

// NewS2PL creates the strict-2PL protocol over ctx.
func NewS2PL(ctx *Context) *S2PL {
	locks := newLockManager()
	return &S2PL{
		protocolBase: protocolBase{
			ctx: ctx,
			// Writes lock on the calling goroutine, so the lanes of a
			// parallel region lock lane-side, before their segment merges
			// into the shared transaction. Concurrent calls from the lanes
			// of one transaction are safe: keyed routing keeps their key
			// sets disjoint, and acquisition is re-entrant per transaction.
			lockKey: locks.acquire,
			settle:  func(tx *Txn, _ error) { locks.releaseAll(tx) },
		},
		locks: locks,
	}
}

var _ Protocol = (*S2PL)(nil)

// Name implements Protocol.
func (p *S2PL) Name() string { return "s2pl" }

// LockCount exposes the live lock-entry count for tests.
func (p *S2PL) LockCount() int { return p.locks.lockCount() }
