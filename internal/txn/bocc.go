package txn

import (
	"fmt"
	"math/bits"
	"sync"
)

// BOCC is the backward-oriented optimistic concurrency control baseline
// of the paper's evaluation [8]. Transactions run in three phases:
//
//	read phase      reads go straight to the latest committed version
//	                (no locks, no snapshot) while a read set is recorded;
//	                writes are buffered in the write set.
//	validation      at commit, the transaction is checked backward
//	                against every transaction that committed during its
//	                read phase: any overlap between our read set and
//	                their write sets forces an abort (ErrValidation).
//	write phase     on success, the shared commit machinery installs the
//	                versions and publishes LastCTS.
//
// Over the shared entry path (protocolBase) BOCC sets three rules: a read
// set recorded by every read that reaches the table (trackReads),
// backward validation as the admission check (validate), and the
// registration of a committed write set in the validation history
// (register). Following Härder's original scheme, validation and the
// write phase form one critical section (the history's mutex, held around
// the global commits of every commit entry call as protocolBase.serial),
// and the commit record
// enters the history with a timestamp drawn AFTER the write phase
// completes. Both points matter for correctness with lock-free readers:
// because reads are unsynchronized, a reader can observe a torn subset of
// a concurrent commit — but any such reader necessarily began before that
// commit's record timestamp, so its own validation will find the record
// and abort it. With few conflicts BOCC is the cheapest protocol (no lock
// table, no snapshot bookkeeping) — the paper measures it ~5% ahead of
// MVCC at low contention with many readers — but aborts explode once
// contention rises (Figure 4).
type BOCC struct {
	protocolBase
}

// NewBOCC creates the optimistic protocol over ctx.
func NewBOCC(ctx *Context) *BOCC {
	p := &BOCC{protocolBase{ctx: ctx, trackReads: true, serial: &ctx.recent.mu}}
	p.admit, p.settle = p.validate, p.register
	return p
}

var _ Protocol = (*BOCC)(nil)

// Name implements Protocol.
func (p *BOCC) Name() string { return "bocc" }

// validate is BOCC's admission: tx's read set is checked backward against
// every transaction that committed during its read phase — the history,
// and the requests admitted before it in the same pipeline batch (a chain
// predecessor of the same call, say), which are registered only once the
// batch is installed. A transaction that read what such a predecessor
// wrote read a pre-window value and must abort. Passing, tx's write set
// is kept for register: the install phase consumes the entries before the
// verdict reaches the submitter.
func (p *BOCC) validate(tx *Txn, batch batchMarks) error {
	if err := p.ctx.recent.validateLocked(tx); err != nil {
		return err
	}
	for tbl, keys := range tx.reads {
		for k := range keys {
			if batch.written(tbl, k) {
				return fmt.Errorf("%w: state %q key %q written earlier in the same commit batch", ErrValidation, tbl.id, k)
			}
		}
	}
	for _, e := range tx.states {
		if len(e.order) == 0 {
			continue
		}
		ks := make(map[string]struct{}, len(e.order))
		for _, k := range e.order {
			ks[k] = struct{}{}
		}
		if tx.writes == nil {
			tx.writes = make(map[*Table]map[string]struct{}, len(tx.states))
		}
		tx.writes[e.table] = ks
	}
	return nil
}

// register is BOCC's post-verdict step: a committed transaction that
// wrote something enters the history with a timestamp drawn after its
// write phase, so every transaction that could have observed a torn
// prefix of the commit (it must have begun before now) validates against
// it.
func (p *BOCC) register(tx *Txn, verdict error) {
	if verdict != nil || tx.writes == nil {
		return
	}
	r := &p.ctx.recent
	r.registerLocked(p.ctx.next(), tx.writes)
	if r.commits%64 == 0 {
		r.prune(p.ctx.oldestActiveStart())
	}
}

// commitRecord remembers one committed transaction's write set for
// backward validation of its contemporaries.
type commitRecord struct {
	cts    Timestamp
	writes map[*Table]map[string]struct{}
}

// recentCommits is the pruned history of committed write sets, ascending
// by cts. Pruning removes records no active transaction can conflict
// with (cts at or below the oldest active transaction's begin timestamp).
type recentCommits struct {
	mu      sync.Mutex
	records []commitRecord
	commits int
}

// validateLocked checks tx's read set backward against transactions
// committed after tx began. Caller holds r.mu.
func (r *recentCommits) validateLocked(tx *Txn) error {
	for i := len(r.records) - 1; i >= 0; i-- {
		rec := &r.records[i]
		if rec.cts <= tx.startTS {
			break // older records cannot conflict (list is cts-ascending)
		}
		for tbl, keys := range tx.reads {
			wr, ok := rec.writes[tbl]
			if !ok {
				continue
			}
			for k := range keys {
				if _, hit := wr[k]; hit {
					return fmt.Errorf("%w: state %q key %q written by txn committed at %d",
						ErrValidation, tbl.id, k, rec.cts)
				}
			}
		}
	}
	return nil
}

// registerLocked appends a commit record. Caller holds r.mu.
func (r *recentCommits) registerLocked(cts Timestamp, writes map[*Table]map[string]struct{}) {
	r.records = append(r.records, commitRecord{cts: cts, writes: writes})
	r.commits++
}

// prune drops records that no active transaction can conflict with.
// Caller holds r.mu.
func (r *recentCommits) prune(oldestStart Timestamp) {
	cut := 0
	for cut < len(r.records) && r.records[cut].cts <= oldestStart {
		cut++
	}
	if cut > 0 {
		r.records = append([]commitRecord(nil), r.records[cut:]...)
	}
}

// Len reports the number of retained records (diagnostic).
func (r *recentCommits) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.records)
}

// oldestActiveStart returns the minimum begin timestamp among active
// transactions, or the current clock when none are active; it bounds how
// much BOCC history must be retained. Held snapshots validate nothing and
// are not scanned.
func (c *Context) oldestActiveStart() Timestamp {
	oldest := c.counter.Load()
	for w := range txnWords {
		word := c.slotWords[w].Load()
		for ; word != 0; word &= word - 1 {
			slot := w*64 + bits.TrailingZeros64(word)
			k := c.slots[slot].Load()
			if k == nil {
				continue
			}
			if k.startTS < oldest {
				oldest = k.startTS
			}
		}
	}
	return oldest
}
