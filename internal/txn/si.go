package txn

import (
	"fmt"
)

// SI is the paper's snapshot-isolation protocol over MVCC tables
// (Section 4.2):
//
//   - Reads first consult the transaction's own uncommitted write set,
//     then the latest version visible at the snapshot pinned on the
//     transaction's first read of the group (ReadCTS). Reads never block
//     writes and vice versa.
//   - Writes only append to the write set ("Dirty Array") after pinning
//     the group's snapshot (protocolBase.pinOnWrite); with a single
//     writer they never block, and with multiple writers conflicts are
//     resolved at commit time by the First-Committer-Wins rule.
//   - Commit runs the shared consistency protocol through the group-commit
//     pipeline: the committer enqueues its validated write set, and a batch
//     leader admits it (First-Committer-Wins, against installed versions
//     plus earlier same-batch admissions), persists one coalesced
//     (optionally synchronous) batch per base store, installs the versions
//     and publishes LastCTS once per batch (see commitBatch).
//   - Abort just discards the write set — no undo is ever needed inside
//     the table.
type SI struct {
	protocolBase
}

// NewSI creates the snapshot-isolation protocol over ctx.
func NewSI(ctx *Context) *SI {
	return &SI{protocolBase{ctx: ctx, pinOnWrite: true}}
}

var _ Protocol = (*SI)(nil)

// Name implements Protocol.
func (p *SI) Name() string { return "mvcc" }

// Begin implements Protocol.
func (p *SI) Begin() (*Txn, error) { return p.begin(false) }

// BeginReadOnly implements Protocol.
func (p *SI) BeginReadOnly() (*Txn, error) { return p.begin(true) }

// Read implements Protocol: write set first, then the snapshot version.
func (p *SI) Read(tx *Txn, tbl *Table, key string) ([]byte, bool, error) {
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
	rts := tx.pin(tbl)
	tx.mu.Unlock()
	v, ok := tbl.readVersion(key, rts)
	return v, ok, nil
}

// admitFCW is the First-Committer-Wins check: the transaction must abort
// if any written key has a committed version newer than the transaction's
// snapshot — "if the current version is greater than the timestamp of
// the transaction, it must abort" (Section 4.2). The snapshot is the
// ReadCTS pinned at the transaction's first access of the group (writes
// pin it too, so it always exists for written states); the begin
// timestamp is a defensive fallback. The overlay carries writes admitted
// earlier in the same group-commit batch, whose versions are not
// installed yet but must conflict all the same.
//
// A transaction on a commit chain raises its snapshot to the chain's
// committed floor: its predecessors' writes are serial history, not
// conflicts (it is admitted strictly after them — exactly as if it had
// begun right after the predecessor's commit), while a foreign writer
// that committed after the floor still conflicts. See chain.go.
func (p *SI) admitFCW(tx *Txn, ov *commitOverlay) error {
	for _, e := range tx.states {
		snapshot := tx.id
		if pinned, ok := tx.readCTS[e.table.group.id]; ok {
			snapshot = pinned
		}
		if ch := tx.chain; ch != nil {
			if f := ch.floor(); f > snapshot {
				snapshot = f
			}
		}
		for i, key := range e.order {
			// Resolve the MVCC object once here and cache it for the
			// install phase (both run under the commit latch).
			o := e.table.object(key, false)
			e.ops[i].obj = o
			var latest Timestamp
			if o != nil {
				latest = o.LatestCTS()
			}
			if ts := ov.pending[e.table][key]; ts > latest {
				latest = ts
			}
			if latest > snapshot {
				return fmt.Errorf("%w: state %q key %q (latest %d > snapshot %d)",
					ErrConflict, e.table.id, key, latest, snapshot)
			}
		}
	}
	return nil
}

// CommitState implements Protocol (the consistency protocol's per-state
// flag; see Section 4.3).
func (p *SI) CommitState(tx *Txn, tbl *Table) error {
	if coordinator, err := flagState(tx, tbl); err != nil || !coordinator {
		return err
	}
	return p.installCommit(tx, func(ov *commitOverlay) error { return p.admitFCW(tx, ov) })
}

// Commit implements Protocol.
func (p *SI) Commit(tx *Txn) error {
	return commitAll(tx, func() error {
		return p.installCommit(tx, func(ov *commitOverlay) error { return p.admitFCW(tx, ov) })
	})
}

// CommitChain implements Protocol: the chain's transactions are
// flagged in order and the completed ones are admitted (First-Committer-
// Wins, chain-floor aware) and committed through the group-commit
// pipeline as one multi-request submission per consecutive same-group
// run — one leader tenure, one coalesced store batch and fsync, one
// LastCTS publish for the whole run.
func (p *SI) CommitChain(txs []*Txn, tbls []*Table) [][]error {
	return p.commitChain(txs, tbls, func(tx *Txn) func(*commitOverlay) error {
		return func(ov *commitOverlay) error { return p.admitFCW(tx, ov) }
	}, nil)
}

// Abort implements Protocol.
func (p *SI) Abort(tx *Txn) error { return p.abort(tx) }
