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
// Following Härder's original scheme, validation and the write phase form
// one critical section (the global validation mutex), and the commit
// record enters the history with a timestamp drawn AFTER the write phase
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
	return &BOCC{protocolBase{ctx: ctx}}
}

var _ Protocol = (*BOCC)(nil)

// Name implements Protocol.
func (p *BOCC) Name() string { return "bocc" }

// Begin implements Protocol.
func (p *BOCC) Begin() (*Txn, error) {
	t, err := p.begin(false)
	if err != nil {
		return nil, err
	}
	t.reads = make(map[StateID]map[string]struct{})
	return t, nil
}

// BeginReadOnly implements Protocol. Read-only transactions still
// validate: that is what guarantees an ad-hoc query saw a consistent
// state under BOCC.
func (p *BOCC) BeginReadOnly() (*Txn, error) {
	t, err := p.begin(true)
	if err != nil {
		return nil, err
	}
	t.reads = make(map[StateID]map[string]struct{})
	return t, nil
}

// Read implements Protocol: latest committed version, read set recorded.
func (p *BOCC) Read(tx *Txn, tbl *Table, key string) ([]byte, bool, error) {
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
	tx.trackRead(tbl.id, key)
	tx.mu.Unlock()
	v, ok := tbl.readVersion(key, ^Timestamp(0))
	return v, ok, nil
}

// CommitState implements Protocol.
func (p *BOCC) CommitState(tx *Txn, tbl *Table) error {
	if coordinator, err := flagState(tx, tbl); err != nil || !coordinator {
		return err
	}
	return p.finishCommit(tx)
}

// Commit implements Protocol.
func (p *BOCC) Commit(tx *Txn) error {
	return commitAll(tx, func() error { return p.finishCommit(tx) })
}

// finishCommit runs validation plus the write phase inside the global
// validation critical section (see the type comment for why the whole
// write phase is covered).
func (p *BOCC) finishCommit(tx *Txn) error {
	r := &p.ctx.recent
	r.mu.Lock()
	defer r.mu.Unlock()

	if err := r.validateLocked(tx); err != nil {
		_ = p.abort(tx) // the verdict is the validation error
		return err
	}

	// Collect the write set before installCommit consumes the entries.
	writes := make(map[StateID]map[string]struct{}, len(tx.states))
	for id, e := range tx.states {
		if len(e.order) == 0 {
			continue
		}
		ks := make(map[string]struct{}, len(e.order))
		for _, k := range e.order {
			ks[k] = struct{}{}
		}
		writes[id] = ks
	}

	if len(writes) == 0 {
		// Pure reader: validation was the whole commit.
		p.finish(tx)
		return nil
	}

	if err := p.installCommit(tx, nil); err != nil {
		return err
	}
	// Write phase done: register with a post-install timestamp so every
	// transaction that could have observed a torn prefix of this commit
	// (it must have begun before now) will validate against this record.
	r.registerLocked(p.ctx.next(), writes)
	if r.commits%64 == 0 {
		r.prune(p.ctx.oldestActiveStart())
	}
	return nil
}

// Abort implements Protocol.
func (p *BOCC) Abort(tx *Txn) error { return p.abort(tx) }

// chainRecord is one chain member's write set collected at admission,
// used for chain-internal backward validation and for post-install
// registration.
type chainRecord struct {
	tx     *Txn
	writes map[StateID]map[string]struct{}
}

// CommitChain implements Protocol. The whole chain window runs
// inside ONE validation critical section (Härder's scheme extends
// naturally: validation and write phase of the batch form one critical
// section). Each member is validated backward against the committed
// history AND against the write sets of its chain predecessors admitted
// in the same call — a member that read what its predecessor wrote reads
// a pre-window value and must abort, exactly as it would have had the
// predecessor's commit been registered before its validation. Survivors
// install through one pipeline submission per consecutive same-group run
// and register with post-install timestamps, in chain order.
func (p *BOCC) CommitChain(txs []*Txn, tbls []*Table) [][]error {
	r := &p.ctx.recent
	r.mu.Lock()
	defer r.mu.Unlock()

	var admitted []chainRecord
	errs := p.commitChain(txs, tbls, func(tx *Txn) func(*commitOverlay) error {
		return func(*commitOverlay) error {
			// Admissions of this chain are serialized (run by run, request
			// by request under the group latch), so admitted needs no
			// extra synchronization; cross-goroutine visibility rides the
			// pipeline's ready-channel edges.
			if err := r.validateLocked(tx); err != nil {
				return err
			}
			for i := range admitted {
				if err := conflicts(tx, admitted[i].writes); err != nil {
					return err
				}
			}
			// Collect the write set now: the install phase consumes the
			// entries before this call returns to the submitter.
			writes := make(map[StateID]map[string]struct{}, len(tx.states))
			for id, e := range tx.states {
				if len(e.order) == 0 {
					continue
				}
				ks := make(map[string]struct{}, len(e.order))
				for _, k := range e.order {
					ks[k] = struct{}{}
				}
				writes[id] = ks
			}
			admitted = append(admitted, chainRecord{tx: tx, writes: writes})
			return nil
		}
	}, nil)

	// Register the survivors' write sets with post-install timestamps so
	// every contemporary that could have observed a torn prefix validates
	// against them.
	failed := make(map[*Txn]bool)
	for i := range errs {
		for _, err := range errs[i] {
			if err != nil {
				failed[txs[i]] = true
			}
		}
	}
	for i := range admitted {
		rec := &admitted[i]
		if failed[rec.tx] || len(rec.writes) == 0 {
			continue
		}
		r.registerLocked(p.ctx.next(), rec.writes)
		if r.commits%64 == 0 {
			r.prune(p.ctx.oldestActiveStart())
		}
	}
	return errs
}

// conflicts reports a backward-validation failure of tx's read set
// against one write set.
func conflicts(tx *Txn, writes map[StateID]map[string]struct{}) error {
	for st, keys := range tx.reads {
		wr, ok := writes[st]
		if !ok {
			continue
		}
		for k := range keys {
			if _, hit := wr[k]; hit {
				return fmt.Errorf("%w: state %q key %q written by a chain predecessor", ErrValidation, st, k)
			}
		}
	}
	return nil
}

// commitRecord remembers one committed transaction's write set for
// backward validation of its contemporaries.
type commitRecord struct {
	cts    Timestamp
	writes map[StateID]map[string]struct{}
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
		for st, keys := range tx.reads {
			wr, ok := rec.writes[st]
			if !ok {
				continue
			}
			for k := range keys {
				if _, hit := wr[k]; hit {
					return fmt.Errorf("%w: state %q key %q written by txn committed at %d",
						ErrValidation, st, k, rec.cts)
				}
			}
		}
	}
	return nil
}

// registerLocked appends a commit record. Caller holds r.mu.
func (r *recentCommits) registerLocked(cts Timestamp, writes map[StateID]map[string]struct{}) {
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
// much BOCC history must be retained.
func (c *Context) oldestActiveStart() Timestamp {
	oldest := c.counter.Load()
	for w := range c.slotWords {
		word := c.slotWords[w].Load()
		for ; word != 0; word &= word - 1 {
			slot := w*64 + bits.TrailingZeros64(word)
			t := c.slots[slot].Load()
			if t == nil {
				continue
			}
			if t.startTS < oldest {
				oldest = t.startTS
			}
		}
	}
	return oldest
}
