package txn

import (
	"fmt"
)

// SI is the paper's snapshot-isolation protocol over MVCC tables
// (Section 4.2). Over the shared entry path (protocolBase) it sets two
// rules:
//
//   - a snapshot pin (pinSnapshot): the transaction's first access, read
//     or write, pins the LastCTS of the accessed group and of every
//     declared one, at one cut, as its ReadCTS (Txn.pin); a group first
//     reached later is pinned then. Reads consult the write set, then the
//     latest version visible at that snapshot; they never block writes
//     and vice versa. Writes only append to the write set ("Dirty
//     Array"); with a single writer they never block.
//   - First-Committer-Wins admission (admitFCW): multiple writers of one
//     key are resolved at commit time by the group-commit pipeline's
//     leader, against installed versions plus earlier same-batch
//     admissions.
//
// Abort just discards the write set — no undo is ever needed inside the
// table.
type SI struct {
	protocolBase
}

// NewSI creates the snapshot-isolation protocol over ctx.
func NewSI(ctx *Context) *SI {
	p := &SI{protocolBase{ctx: ctx, pinSnapshot: true}}
	p.admit = p.admitFCW
	return p
}

var _ Protocol = (*SI)(nil)

// Name implements Protocol.
func (p *SI) Name() string { return "mvcc" }

// admitFCW is the First-Committer-Wins check: the transaction must abort
// if any written key has a committed version newer than the transaction's
// snapshot — "if the current version is greater than the timestamp of
// the transaction, it must abort" (Section 4.2). The snapshot is the
// ReadCTS pinned for the group (Txn.pin; writes pin it too, so it always
// exists for written states); the begin timestamp is a defensive
// fallback. The rows carry the writes admitted
// earlier in the same group-commit batch as their mark: those versions
// are not installed yet but must conflict all the same.
//
// A transaction on a commit chain raises its snapshot to the chain's
// committed floor: its predecessors' writes are serial history, not
// conflicts (it is admitted strictly after them — exactly as if it had
// begun right after the predecessor's commit), while a foreign writer
// that committed after the floor still conflicts. See chain.go.
func (p *SI) admitFCW(tx *Txn, _ batchMarks) error {
	for _, e := range tx.states {
		snapshot := tx.id
		if pinned, ok := tx.at(e.table.Group()); ok {
			snapshot = pinned
		}
		if ch := tx.chain; ch != nil {
			if f := ch.floor(); f > snapshot {
				snapshot = f
			}
		}
		for i := range e.ops {
			r := e.ops[i].row
			if latest := max(r.obj.LatestCTS(), r.mark); latest > snapshot {
				return fmt.Errorf("%w: state %q key %q (latest %d > snapshot %d)",
					ErrConflict, e.table.id, e.order[i], latest, snapshot)
			}
		}
	}
	return nil
}
