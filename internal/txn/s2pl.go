package txn

import (
	"sistream/internal/mvcc"
)

// S2PL is the strict two-phase locking baseline of the paper's
// evaluation [6]: shared locks on read, exclusive locks on write (with
// upgrade), all locks held until the transaction finishes. Reads return
// the latest committed version — there are no snapshots, which is exactly
// why concurrent ad-hoc readers stall behind the continuous writer on hot
// keys as contention rises (Figure 4). Deadlocks are avoided with
// wait-die; a killed transaction returns ErrDeadlock and the caller
// restarts it (counted as an abort by the benchmark).
//
// S2PL shares the consistency protocol and commit machinery with SI: the
// same group latches, durability batches and LastCTS publication. No
// commit-time admission check is needed — the locks already guarantee
// serializability.
type S2PL struct {
	protocolBase
	locks *lockManager
}

// NewS2PL creates the strict-2PL protocol over ctx.
func NewS2PL(ctx *Context) *S2PL {
	p := &S2PL{protocolBase: protocolBase{ctx: ctx}, locks: newLockManager()}
	p.lockKey = p.lockExclusive
	return p
}

var _ Protocol = (*S2PL)(nil)

// Name implements Protocol.
func (p *S2PL) Name() string { return "s2pl" }

// Begin implements Protocol.
func (p *S2PL) Begin() (*Txn, error) { return p.begin(false) }

// BeginReadOnly implements Protocol.
func (p *S2PL) BeginReadOnly() (*Txn, error) { return p.begin(true) }

// Read implements Protocol: acquire a shared lock, then read the latest
// committed version.
func (p *S2PL) Read(tx *Txn, tbl *Table, key string) ([]byte, bool, error) {
	if err := requireGroup(tbl); err != nil {
		return nil, false, err
	}
	tx.mu.Lock()
	if tx.finished.Load() {
		tx.mu.Unlock()
		return nil, false, ErrFinished
	}
	if e, ok := tx.states[tbl.id]; ok {
		if op, dirty := e.get(key); dirty {
			v, del := op.value, op.delete
			tx.mu.Unlock()
			if del {
				return nil, false, nil
			}
			return v, true, nil
		}
	}
	tx.mu.Unlock()
	if err := p.locks.acquire(tx, tbl.id, key, lockShared); err != nil {
		p.abortInternal(tx)
		return nil, false, err
	}
	v, ok := tbl.readVersion(key, mvcc.Infinity)
	return v, ok, nil
}

// lockExclusive is S2PL's pre-write hook: every written key is locked
// exclusively — on the calling goroutine, so the lanes of a parallel
// region lock lane-side, before their segment merges into the shared
// transaction — and held until the transaction finishes. A wait-die kill
// aborts the transaction. Concurrent calls from the lanes of one
// transaction are safe: keyed routing keeps their key sets disjoint, and
// acquisition is re-entrant per transaction for duplicate keys.
func (p *S2PL) lockExclusive(tx *Txn, tbl *Table, key string) error {
	if err := p.locks.acquire(tx, tbl.id, key, lockExclusive); err != nil {
		p.abortInternal(tx)
		return err
	}
	return nil
}

// CommitChain implements Protocol. S2PL needs no commit-time
// admission (the locks already guarantee serializability); each
// coordinated transaction's locks fall only after its chain run is fully
// installed and visible, preserving strictness across the batch.
func (p *S2PL) CommitChain(txs []*Txn, tbls []*Table) [][]error {
	return p.commitChain(txs, tbls, nil, func(tx *Txn) { p.locks.releaseAll(tx) })
}

// CommitState implements Protocol.
func (p *S2PL) CommitState(tx *Txn, tbl *Table) error {
	if coordinator, err := flagState(tx, tbl); err != nil || !coordinator {
		return err
	}
	return p.finishCommit(tx)
}

// Commit implements Protocol.
func (p *S2PL) Commit(tx *Txn) error {
	return commitAll(tx, func() error { return p.finishCommit(tx) })
}

func (p *S2PL) finishCommit(tx *Txn) error {
	err := p.installCommit(tx, nil)
	// Strictness: locks fall only after the commit is fully installed and
	// visible (or failed).
	p.locks.releaseAll(tx)
	return err
}

// Abort implements Protocol.
func (p *S2PL) Abort(tx *Txn) error {
	err := p.abort(tx)
	p.locks.releaseAll(tx)
	return err
}

// abortInternal cleans up after a wait-die kill; the ErrDeadlock from the
// failed acquire is surfaced to the caller separately.
func (p *S2PL) abortInternal(tx *Txn) {
	_ = p.abort(tx)
	p.locks.releaseAll(tx)
}

// LockCount exposes the live lock-entry count for tests.
func (p *S2PL) LockCount() int { return p.locks.lockCount() }
