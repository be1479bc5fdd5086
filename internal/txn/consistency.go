package txn

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"sistream/internal/kv"
	"sistream/internal/mvcc"
)

// This file implements the consistency protocol of the paper's
// Section 4.3 — the lightweight 2-phase-commit variant coordinating
// commits across the multiple states of a topology group — together with
// the commit machinery shared by all three concurrency-control protocols
// ("All concurrency control protocols use fundamentally the same
// consistency protocol", Section 5).
//
// Protocol recap: every operator maintaining a state flags its
// (transaction, state) pair with StatusCommit when its part of the
// transaction is done. The caller that flips the LAST flag becomes the
// coordinator and performs the global commit: installing all versions,
// persisting one batch to the context's base store, and finally
// publishing the group's LastCTS in a single atomic store — the instant
// the whole multi-state commit becomes visible. An abort anywhere (Abort, or a
// rejected admission) aborts the transaction globally; later flags of it
// report ErrFinished.

// Protocol is the common interface of the three concurrency-control
// protocols. All methods returning an error may return an ErrAborted
// variant, after which the transaction is finished and the caller decides
// whether to retry with a fresh Begin.
type Protocol interface {
	// Name identifies the protocol in benchmark reports: "mvcc",
	// "s2pl" or "bocc".
	Name() string
	// Begin starts a read-write transaction.
	Begin() (*Txn, error)
	// BeginReadOnly starts a read-only transaction (ad-hoc queries).
	BeginReadOnly() (*Txn, error)
	// Read returns the value of key in tbl visible to tx.
	Read(tx *Txn, tbl *Table, key string) ([]byte, bool, error)
	// Write buffers an update of key in tbl into tx's write set.
	Write(tx *Txn, tbl *Table, key string, value []byte) error
	// Delete buffers a deletion of key in tbl.
	Delete(tx *Txn, tbl *Table, key string) error
	// WriteBatch buffers a batch of updates/deletions of one table,
	// equivalent to the same sequence of Write/Delete calls but with the
	// per-call overhead — state-entry resolution, snapshot pinning, the
	// transaction latch — paid once per batch. It returns the number of
	// operations applied; on error the transaction is aborted exactly as
	// the corresponding single-operation call would have aborted it, and
	// operations from the failing one onward are not applied.
	WriteBatch(tx *Txn, tbl *Table, ops []WriteOp) (int, error)
	// WriteSegment is WriteBatch(tx, tbl, seg.Ops()) with ownership
	// transfer: the segment's buffered values — private copies already,
	// see Segment.Put — are adopted into the write set instead of copied
	// a second time. Safe to call concurrently from the lanes of one
	// transaction: the calls serialize on the transaction latch, and keyed
	// routing keeps the lanes' key sets disjoint, so merge order cannot
	// change the write set's contents.
	WriteSegment(tx *Txn, tbl *Table, seg *Segment) (int, error)
	// CommitState flags tbl as ready to commit for tx; when it is the
	// last accessed state, the caller executes the global commit
	// (consistency protocol, Section 4.3).
	CommitState(tx *Txn, tbl *Table) error
	// CommitChain takes a whole chain window at once (see chain.go): it
	// flags every table in tbls on every transaction in txs, in order —
	// exactly as per-transaction CommitState calls in that order would —
	// and globally commits every transaction whose flag set this
	// completed, batching consecutive single-group members through ONE
	// group-commit pipeline submission. An abort (admission rejection,
	// validation failure, prior poisoning) splits the batch: the rejected
	// member aborts alone and its neighbors commit unaffected.
	//
	// The returned matrix is indexed [transaction][table] and mirrors what
	// the equivalent CommitState call would have returned: nil for a
	// successful flag (or for the final flag of a successfully committed
	// transaction), an ErrAborted variant when the transaction failed,
	// with the global-commit verdict attributed to the table whose flag
	// completed the set.
	CommitChain(txs []*Txn, tbls []*Table) [][]error
	// Commit flags all states and executes the global commit.
	Commit(tx *Txn) error
	// Abort aborts tx globally, dropping all uncommitted writes.
	Abort(tx *Txn) error
	// Context returns the state context the protocol operates on.
	Context() *Context
}

// protocolBase is the one implementation of every Protocol entry point —
// Begin, BeginReadOnly, Read, the write path, CommitState, Commit,
// CommitChain and Abort — for all three protocols. A protocol is this
// entry path plus the few rules that really differ, set by its
// constructor: how a read or write reaches the table (pinSnapshot,
// lockKey, trackReads), what admits a coordinated transaction to the
// commit pipeline (admit), what follows a verdict (settle), and BOCC's
// critical section around its commits (serial).
type protocolBase struct {
	ctx *Context
	// pinSnapshot (SI) pins the snapshot of the table's group under the
	// transaction latch on the first access, read or write (first access
	// wins). Reads see that snapshot; without a pin they read the latest
	// committed version. The First-Committer-Wins check compares committed
	// versions against the pin, so strictly sequential transactions — the
	// batches of one continuous stream query, whose Begin may race ahead of
	// the previous batch's commit in a pipelined dataflow — never conflict
	// with themselves, while genuinely concurrent writers of one key still
	// abort.
	pinSnapshot bool
	// lockKey (S2PL) takes key's lock in mode: shared before a read that
	// reaches the table, exclusive before every write. It runs on the
	// calling goroutine outside the transaction latch: acquisition may
	// wait, and a wait-die kill aborts the transaction (see lock).
	lockKey func(tx *Txn, st StateID, key string, mode lockMode) error
	// trackReads (BOCC) gives every transaction a read set at Begin; each
	// read that reaches the table records its key for validation.
	trackReads bool
	// admit is the admission check of a coordinated transaction, run by
	// the commit pipeline in arrival order under the group latch, after
	// its write set is resolved to rows (SI: First-Committer-Wins; BOCC:
	// backward validation). batch tells which rows the requests admitted
	// earlier in the same pipeline batch wrote. nil admits every
	// transaction (S2PL: the locks already serialize).
	admit func(tx *Txn, batch batchMarks) error
	// settle is the post-verdict step, run once per decision: after each
	// coordinated transaction's global commit with its verdict, after
	// Abort and after a wait-die kill. S2PL releases its locks; BOCC
	// registers a committed write set in its validation history.
	settle func(tx *Txn, verdict error)
	// serial (BOCC) is held around the global commits of every commit
	// entry call — from its first completed flag set to its return — so
	// validation, the write phase and registration form one critical
	// section.
	serial *sync.Mutex
}

// Context returns the protocol's state context.
func (p *protocolBase) Context() *Context { return p.ctx }

// Begin implements Protocol.
func (p *protocolBase) Begin() (*Txn, error) { return p.begin(false) }

// BeginReadOnly implements Protocol. A read-only transaction still
// commits through admission: under BOCC, validation is what guarantees an
// ad-hoc query saw a consistent state.
func (p *protocolBase) BeginReadOnly() (*Txn, error) { return p.begin(true) }

func (p *protocolBase) begin(readOnly bool) (*Txn, error) {
	t := &Txn{id: p.ctx.next(), readOnly: readOnly}
	t.ctx, t.startTS = p.ctx, t.id
	if p.trackReads {
		t.reads = make(map[*Table]map[string]struct{})
	}
	if err := p.ctx.register(&t.cut, 0, txnWords); err != nil {
		return nil, err
	}
	return t, nil
}

// Read implements Protocol: the transaction's own write set first, then
// the table — at the pinned snapshot under SI, the latest committed
// version otherwise, after recording the read (BOCC) and taking its
// shared lock (S2PL).
func (p *protocolBase) Read(tx *Txn, tbl *Table, key string) ([]byte, bool, error) {
	if err := requireGroup(tbl); err != nil {
		return nil, false, err
	}
	tx.mu.Lock()
	if tx.finished.Load() {
		tx.mu.Unlock()
		return nil, false, ErrFinished
	}
	if e := tx.stateOf(tbl); e != nil {
		if op, dirty := e.get(key); dirty {
			tx.mu.Unlock()
			if op.delete {
				return nil, false, nil
			}
			return op.value, true, nil
		}
	}
	rts := mvcc.Infinity
	if p.pinSnapshot {
		rts = tx.pin(tbl)
	}
	tx.trackRead(tbl, key)
	tx.mu.Unlock()
	if p.lockKey != nil {
		if err := p.lock(tx, tbl.id, key, lockShared); err != nil {
			return nil, false, err
		}
	}
	v, ok := tbl.readVersion(key, rts)
	return v, ok, nil
}

// lock takes key's lock through lockKey. A wait-die kill aborts tx —
// Abort settles it, so the locks it already holds fall — and is returned
// as the verdict.
func (p *protocolBase) lock(tx *Txn, st StateID, key string, mode lockMode) error {
	err := p.lockKey(tx, st, key, mode)
	if err != nil {
		_ = p.Abort(tx) // the verdict is the kill
	}
	return err
}

// Abort implements Protocol: the write sets are dropped (abort) and the
// protocol settles the transaction.
func (p *protocolBase) Abort(tx *Txn) error {
	err := p.abort(tx)
	p.settled(tx, ErrAborted)
	return err
}

// settled runs the protocol's post-verdict step, if it has one.
func (p *protocolBase) settled(tx *Txn, verdict error) {
	if p.settle != nil {
		p.settle(tx, verdict)
	}
}

// requireGroup validates that tbl is usable transactionally.
func requireGroup(tbl *Table) error {
	if tbl.Group() == nil {
		return fmt.Errorf("%w: %q", ErrUnknownState, tbl.id)
	}
	return nil
}

// errReadOnlyWrite reports a write attempted in a read-only transaction.
func errReadOnlyWrite(tx *Txn) error {
	return fmt.Errorf("txn: write in read-only transaction %d", tx.id)
}

// Write implements Protocol.
func (p *protocolBase) Write(tx *Txn, tbl *Table, key string, value []byte) error {
	op := [1]WriteOp{{Key: key, Value: value}}
	_, err := p.bufferWrites(tx, tbl, op[:], false)
	return err
}

// Delete implements Protocol.
func (p *protocolBase) Delete(tx *Txn, tbl *Table, key string) error {
	op := [1]WriteOp{{Key: key, Delete: true}}
	_, err := p.bufferWrites(tx, tbl, op[:], false)
	return err
}

// WriteBatch implements Protocol: the fast path of hand-written writers —
// per-tuple cost reduces to one value copy and a write-set append.
func (p *protocolBase) WriteBatch(tx *Txn, tbl *Table, ops []WriteOp) (int, error) {
	return p.bufferWrites(tx, tbl, ops, false)
}

// WriteSegment implements Protocol: the flush of the TO_TABLE writers.
func (p *protocolBase) WriteSegment(tx *Txn, tbl *Table, seg *Segment) (int, error) {
	return p.bufferWrites(tx, tbl, seg.ops, true)
}

// bufferWrites is the write path of every protocol: it appends ops to
// tx's uncommitted write set — writes "are merely appended to the write
// set" (Section 4.2), each with its key's hash, and deduplicated once, at
// commit (stateEntry.resolve) — after the protocol's exclusive locks,
// under ONE latch acquisition however many operations the call carries.
// Values are copied unless the caller hands over ownership (adopt: a
// segment's values are private copies already). A lock that cannot be had
// has aborted the transaction; the count of keys locked before it is
// reported, matching the per-operation sequence (writes before the
// failure counted, the write set discarded by the abort either way).
func (p *protocolBase) bufferWrites(tx *Txn, tbl *Table, ops []WriteOp, adopt bool) (int, error) {
	if tx.readOnly {
		return 0, errReadOnlyWrite(tx)
	}
	if err := requireGroup(tbl); err != nil {
		return 0, err
	}
	if p.lockKey != nil {
		if tx.finished.Load() {
			return 0, ErrFinished
		}
		for i := range ops {
			if err := p.lock(tx, tbl.id, ops[i].Key, lockExclusive); err != nil {
				return i, err
			}
		}
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.finished.Load() {
		return 0, ErrFinished
	}
	if p.pinSnapshot {
		tx.pin(tbl)
	}
	e := tx.entry(tbl)
	e.grow(len(ops))
	touchKeys(ops)
	for i := range ops {
		op := &ops[i]
		w := writeOp{hash: keyHash(op.Key), delete: op.Delete}
		if !op.Delete {
			w.value = op.Value
			if !adopt {
				w.value = append([]byte(nil), op.Value...)
			}
		}
		e.write(op.Key, w)
	}
	return len(ops), nil
}

// storeBatch is the coalesced durability batch built by a commit: all
// row writes plus the LastCTS watermarks, applied to the context's base
// store with one (optionally synchronous) Apply. The group-commit leader
// caches one on the Group (leader-owned under commitMu), so the ops array
// and the row-key arena are reused across tenures instead of reallocated
// per batch.
type storeBatch struct {
	batch *kv.Batch
	arena []byte // backing for all row keys of this batch
	// vals backs the batch's watermark values. A store may keep a value
	// by reference (kv.Batch.PutHandle), so this arena is only ever carved,
	// never rewound: a full chunk is left to the stores and the GC.
	vals []byte
}

// watermark encodes ts into the batch's value arena.
func (sb *storeBatch) watermark(ts Timestamp) []byte {
	if cap(sb.vals)-len(sb.vals) < 8 {
		sb.vals = make([]byte, 0, 512)
	}
	off := len(sb.vals)
	sb.vals = binary.LittleEndian.AppendUint64(sb.vals, ts)
	return sb.vals[off:len(sb.vals):len(sb.vals)]
}

// storeScratch returns the group's cached scratch batch, reset for a new
// tenure. Caller holds g.commitMu.
func (g *Group) storeScratch() *storeBatch {
	sb := g.scratch
	sb.batch.Reset()
	sb.arena = sb.arena[:0]
	return sb
}

// recycleTxn returns a finished transaction's write-set storage to the
// entry pool. Safe only once the transaction is finished: the finished
// flag (checked under tx.mu by every accessor) guarantees no goroutine
// reaches the entries.
func recycleTxn(tx *Txn) {
	tx.mu.Lock()
	tx.dropStates()
	tx.mu.Unlock()
}

// CommitState implements Protocol (the consistency protocol's per-state
// flag, Section 4.3): the chain of one transaction and one table.
func (p *protocolBase) CommitState(tx *Txn, tbl *Table) error { return p.commitOne(tx, tbl) }

// Commit implements Protocol: the chain of one transaction whose one
// column flags every state it touched.
func (p *protocolBase) Commit(tx *Txn) error { return p.commitOne(tx, nil) }

// commitOne runs commitChain for one transaction and one column (nil:
// every state), with the verdict matrix on the stack.
func (p *protocolBase) commitOne(tx *Txn, tbl *Table) error {
	txs, tbls := [1]*Txn{tx}, [1]*Table{tbl}
	var verdict [1]error
	rows := [1][]error{verdict[:]}
	p.commitChain(txs[:], tbls[:], rows[:])
	return verdict[0]
}

// CommitChain implements Protocol (see chain.go).
func (p *protocolBase) CommitChain(txs []*Txn, tbls []*Table) [][]error {
	errs := make([][]error, len(txs))
	cells := make([]error, len(txs)*len(tbls))
	for i := range errs {
		errs[i], cells = cells[:len(tbls):len(tbls)], cells[len(tbls):]
	}
	p.commitChain(txs, tbls, errs)
	return errs
}

// flag flips tx's commit flag for tbl — for every state tx touched when
// tbl is nil (Commit) — and reports whether the flip completed the
// transaction's flag set: the caller became the coordinator (Section 4.3)
// and the transaction is decided by the global commit that follows.
func flag(tx *Txn, tbl *Table) (coordinator bool, err error) {
	if tbl != nil {
		if err := requireGroup(tbl); err != nil {
			return false, err
		}
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.finished.Load() {
		return false, ErrFinished
	}
	if tbl != nil {
		// Committing a state the transaction never touched registers an
		// empty entry so the accounting still works (a TO_TABLE operator
		// may see only punctuations for some batch).
		tx.entry(tbl).status = StatusCommit
	}
	for _, e := range tx.states {
		if tbl == nil {
			e.status = StatusCommit
		} else if e.status != StatusCommit {
			// Not the last flag: another operator will coordinate.
			return false, nil
		}
	}
	return true, nil
}

// commitChain is the one commit path, behind CommitState, Commit and
// CommitChain. It flags tbls on every transaction in txs, in order, up to
// the column that completes the transaction's flag set — exactly as
// per-table CommitState calls would — recording each flag's outcome in
// errs[i][j]. A transaction whose set completed is decided here, once:
// flagging a later column would register that table on a transaction that
// never declared it and commit it twice, so a CommitState on a decided
// transaction reports ErrFinished, and so do the remaining columns.
//
// Decided transactions commit in chain order (and thus with ascending
// commit timestamps per key). Maximal consecutive runs confined to the
// SAME single topology group form one multi-request pipeline submission
// (groupCommitMany) — one leader tenure and one coalesced durability
// batch for the whole run. A transaction spanning groups is a run of its
// own, committed through the same pipeline under the latches of all its
// groups. One with no state entry — a reader, or a transaction that
// touched nothing — has nothing to install: admission is its whole
// commit. The verdict replaces the completing flag's entry, and the
// protocol settles each transaction as soon as its run is decided — so
// S2PL's locks fall once the run is installed and visible, never held
// across a later run's durability.
func (p *protocolBase) commitChain(txs []*Txn, tbls []*Table, errs [][]error) {
	// The current run: its latch set, its requests and the errs cell each
	// verdict goes to. The buffers keep a run of up to eight off the heap.
	type cell struct{ i, j int }
	var (
		groups     []*Group
		reqBuf     [8]*commitReq
		dstBuf     [8]cell
		reqs       = reqBuf[:0]
		dsts       = dstBuf[:0]
		serialized bool
	)
	flush := func() {
		switch {
		case len(reqs) == 0:
			return
		case len(groups) == 1:
			p.groupCommitMany(groups[0], reqs)
		default:
			lockGroups(groups)
			p.commitBatch(groups, reqs)
			unlockGroups(groups)
		}
		for k, req := range reqs {
			errs[dsts[k].i][dsts[k].j] = req.err
			p.settled(req.tx, req.err)
		}
		reqs, dsts = reqs[:0], dsts[:0]
	}
	for i, tx := range txs {
		row := errs[i]
		for j, tbl := range tbls {
			coordinator, err := flag(tx, tbl)
			row[j] = err
			if !coordinator {
				continue
			}
			for k := j + 1; k < len(tbls); k++ {
				row[k] = ErrFinished
			}
			if p.serial != nil && !serialized {
				// From the first decision on: a flag that completes nothing
				// never waits for another commit's critical section.
				p.serial.Lock()
				serialized = true
			}
			gs := txGroups(tx)
			if len(reqs) > 0 && (len(gs) != 1 || len(groups) != 1 || gs[0] != groups[0]) {
				flush()
			}
			if len(gs) == 0 {
				row[j] = p.admitAlone(tx)
				p.settled(tx, row[j])
				break
			}
			groups = gs
			tx.req = commitReq{tx: tx, admit: p.admit}
			reqs = append(reqs, &tx.req)
			dsts = append(dsts, cell{i, j})
			break
		}
	}
	flush()
	if serialized {
		p.serial.Unlock()
	}
}

// admitAlone decides a coordinated transaction with no state entry: it
// finishes right after its admission check.
func (p *protocolBase) admitAlone(tx *Txn) error {
	if p.admit != nil {
		if err := p.admit(tx, batchMarks{}); err != nil {
			_ = p.abort(tx) // the verdict is the admission error
			return err
		}
	}
	tx.end(false)
	return nil
}

// groupCommitMany runs the group-commit pipeline for already-ordered
// commit requests confined to topology group g — one for a plain Commit,
// a whole run for a chain. All requests enter the queue in a single
// append, so one leader tenure drains them together (the whole point of
// cross-transaction batching — one coalesced store batch and one fsync
// for the run). If a batch leader is already active the committer nudges
// it (wake) and parks on its requests' ready channels, made for the wait
// — either the leader commits a request in its batch, or it hands the
// parked committer the leadership baton on retirement (promoted).
// Otherwise the committer claims leadership itself and needs no channel:
// the batch it leads drains all its requests. A leader's tenure is
// exactly ONE batch (leadGroup), so a committer is never conscripted into
// serving other transactions indefinitely — in particular an S2PL
// committer's row locks are released after one batch, as with the
// original per-commit latch.
func (p *protocolBase) groupCommitMany(g *Group, reqs []*commitReq) {
	if err := g.Err(); err != nil {
		// Fail-stop fast path: the group is poisoned, nothing may be
		// enqueued (commitBatch re-checks for requests that raced in).
		// Every request is decided here with the sticky error.
		p.failReqs(reqs, err)
		return
	}
	g.qmu.Lock()
	lead := !g.leaderActive
	if lead {
		g.leaderActive = true
	} else {
		for _, req := range reqs {
			req.ready = make(chan struct{})
		}
	}
	g.pending = append(g.pending, reqs...)
	g.pendingSubs++
	g.qmu.Unlock()
	if lead {
		p.leadGroup(g)
		return
	}
	// Nudge a collecting leader. The send never blocks (capacity 1); a
	// stale token at worst costs the leader one extra queue check.
	select {
	case g.wake <- struct{}{}:
	default:
	}
	for _, req := range reqs {
		<-req.ready
		if req.promoted {
			// Retiring leader handed us the baton with this request (and
			// therefore every later one of ours) still pending: the batch
			// we lead drains and decides them all synchronously.
			req.promoted = false
			req.ready = nil
			p.leadGroup(g)
			return
		}
	}
}

// abort drops all write sets and releases the slot. "It is enough ... to
// simply clear the corresponding write set and release the memory"
// (Section 4.2). Write sets are private, so it is safe under any latch —
// the commit pipeline aborts rejected and failed requests with it while
// holding the group latches. ErrFinished reports a transaction that was
// already decided (callers recording a verdict of their own ignore it).
func (p *protocolBase) abort(tx *Txn) error {
	if !tx.end(true) {
		return ErrFinished
	}
	return nil
}

// txGroups returns the distinct groups of the transaction's states in
// canonical (ID) order — the one place the latch order of a spanning
// commit is decided (lockGroups takes them as given). The common case,
// every state in one group, returns that group's preallocated solo set
// and allocates nothing.
func txGroups(tx *Txn) []*Group {
	var out []*Group
	for _, e := range tx.states {
		g := e.table.Group()
		if out == nil {
			out = g.solo
		} else if !slices.Contains(out, g) {
			// Clipped, so the first append copies instead of growing into
			// a group's shared solo array.
			out = append(slices.Clip(out), g)
		}
	}
	if len(out) > 1 {
		slices.SortFunc(out, func(a, b *Group) int { return cmp.Compare(a.id, b.id) })
	}
	return out
}

// commitReq is one coordinated transaction parked on a group's commit
// queue, with the admission check of the protocol that submitted it; it
// lives in its transaction (Txn.req). err is written by the batch leader
// before it closes ready and read by the owning goroutine only after
// ready is closed, so the channel orders the accesses. A request its
// owner decides itself — as the leader of the batch carrying it, or in a
// spanning commit — has no ready channel.
type commitReq struct {
	tx    *Txn
	admit func(tx *Txn, batch batchMarks) error
	cts   Timestamp
	err   error
	// promoted marks a leadership handoff instead of a decision: the
	// retiring leader closes ready with promoted set, and the owner —
	// whose request is still pending — leads the next batch itself.
	promoted bool
	ready    chan struct{}
}

// decided hands a decided request back to its owner.
func (req *commitReq) decided() {
	if req.ready != nil {
		close(req.ready)
	}
}

// batchMarks tells an admission check what the requests admitted earlier
// in the same commit batch wrote. Their versions are not installed (nor,
// under BOCC, registered) yet, but admission must see them — otherwise
// two same-batch writers of one key would both pass
// First-Committer-Wins, and a reader would validate clean against a
// same-batch writer of what it read. Admission marks each written row
// with the writer's commit timestamp (row.mark); a mark above base is
// this batch's. Only rows of the latched groups' tables carry such marks,
// and groups stays nil until the batch has marked a row.
type batchMarks struct {
	base   Timestamp
	groups []*Group
}

// written reports whether a request admitted earlier in the batch wrote
// key of tbl. The probe takes no lock: tbl's group latch is held.
func (b batchMarks) written(tbl *Table, key string) bool {
	if !slices.Contains(b.groups, tbl.Group()) {
		return false
	}
	h := keyHash(key)
	r := tbl.shard(h).find(h, key)
	return r != nil && r.mark > b.base
}

// groupCommitLinger bounds how long a batch leader collects followers for
// the next batch once commit pressure is established. The collection is
// wake-driven — each enqueue nudges the leader, and it stops as soon as as
// many submitters have queued as the previous batch carried — so under
// steady pressure the timer never fires; it is the fallback that bounds
// the wait when fewer committers are active than last time.
const groupCommitLinger = 200 * time.Microsecond

// leadGroup serves one leader tenure: collect a batch, commit it, then
// hand leadership to a parked committer (if any are pending) or release
// it. The claimant's own request is always in the queue, so the drained
// batch is never empty.
//
// Batch formation is adaptive: the number of submitters in the previous
// batch (g.batchTarget, leader-owned under commitMu; one per
// groupCommitMany call, however many requests it carries) estimates the
// number of concurrently active committers, and the leader collects
// arrivals until that many have queued — parking between wakes, so
// unrelated goroutines keep the CPU — or the linger timer expires. A lone
// committer (previous batch from one submitter) never collects and never
// pays the linger, whether it commits one transaction or a chain run of
// any length: counting requests instead would make a sole chain submitter
// with a shorter run than last time wait for itself. Leadership is
// released only with the queue observably empty (checked under qmu), so
// no request is ever stranded: an enqueuer that finds no active leader IS
// the leader for the batch containing its request, and a retiring leader
// that leaves requests behind promotes one of their owners.
func (p *protocolBase) leadGroup(g *Group) {
	g.commitMu.Lock()
	if g.batchTarget > 1 {
		// Collect as many submitters as the previous batch had before
		// draining. One timer serves every tenure (leader-owned under
		// commitMu).
		if g.linger == nil {
			g.linger = time.NewTimer(groupCommitLinger)
		} else {
			g.linger.Reset(groupCommitLinger)
		}
	collect:
		for {
			g.qmu.Lock()
			n := g.pendingSubs
			g.qmu.Unlock()
			if n >= g.batchTarget {
				break
			}
			select {
			case <-g.wake:
			case <-g.linger.C:
				break collect
			}
		}
		// Stop and drain, so the next Reset starts from an empty channel.
		if !g.linger.Stop() {
			select {
			case <-g.linger.C:
			default:
			}
		}
	}
	g.qmu.Lock()
	batch, subs := g.pending, g.pendingSubs
	g.pending, g.pendingSubs = g.spare, 0
	g.qmu.Unlock()
	// Drain a stale wake token so the next tenure's collection starts
	// clean.
	select {
	case <-g.wake:
	default:
	}
	g.batchTarget = subs
	p.commitBatch(g.solo, batch)
	clear(batch)
	g.spare = batch[:0]

	// Retire: pass the baton to a parked committer, or release.
	g.qmu.Lock()
	if len(g.pending) > 0 {
		next := g.pending[0]
		next.promoted = true
		close(next.ready)
	} else {
		g.leaderActive = false
	}
	g.qmu.Unlock()
	g.commitMu.Unlock()
}

// commitBatch is the commit pipeline: it commits one batch of coordinated
// transactions under a latch set. Caller holds the commitMu of every group
// in groups, and every state of every request belongs to one of them — a
// leader's drained queue under its own group's latch (leadGroup), or one
// spanning transaction under the latches of all its groups, taken in
// txGroups' canonical order (commitChain). Its unit is the row
// (row.go): each written key is probed once, when its request's write set
// is resolved, and admission, durability, install and index maintenance
// all work through the row found. The pipeline:
//
//  1. snapshot the GC horizon, then reserve a contiguous commit-timestamp
//     range — one timestamp per request, assigned in arrival order. The
//     horizon is taken BEFORE the range, so every version this batch
//     terminates has dts greater than the horizon and can never be
//     reclaimed by the batch's own installs (see Txn.pin).
//  2. in arrival order, resolve each request's write set to rows
//     (stateEntry.resolve: one probe per key, duplicates folded) and
//     admit it; an admitted request that has successors in the batch
//     marks its rows with its commit timestamp, so their admission checks
//     see its writes (batchMarks). A rejected request aborts immediately
//     with no version modified.
//  3. durability: ONE coalesced batch for the context's one base store —
//     all admitted rows, each through its store handle, plus one LastCTS
//     watermark per touched table (and nothing else: secondary indexes
//     persist nothing) — with a single (optionally synchronous) Apply,
//     so the store's failure atomicity is the whole batch's. This is
//     where group commit pays: N transactions share one fsync. A failed
//     Apply fails the batch fail-stop and poisons every group of the
//     context (poisonBatch); nothing was installed yet, so memory is
//     untouched and recovery reads whatever the store made durable.
//  4. install all versions in commit-timestamp order (cannot fail: a row
//     reuses a dead slot in place or grows, and the latch serializes
//     every writer of a row's versions); each installed row image is then
//     added to the candidate sets of the table's secondary indexes.
//  5. publish LastCTS once per latched group — under all the latches and,
//     for more than one group, with Context.spanning odd, so a reader
//     pinning several of the groups (pinGroups) sees the batch in all of
//     them or in none — then call each group's commit hooks per transaction
//     in commit order.
func (p *protocolBase) commitBatch(groups []*Group, batch []*commitReq) {
	// Fail-stop: a poisoned group anywhere in the latch set rejects the
	// whole batch — requests that passed the enqueue fast path before the
	// poisoning are decided here with the sticky error.
	for _, g := range groups {
		if err := g.Err(); err != nil {
			p.failReqs(batch, err)
			return
		}
	}
	tenureStart := time.Now()
	horizon := p.ctx.OldestActiveVersion()
	n := uint64(len(batch))
	base := p.ctx.counter.Add(n) - n

	// Phase 2: resolution and admission in arrival order.
	var (
		admBuf   [8]*commitReq
		admitted = admBuf[:0]
		marks    = batchMarks{base: base}
		maxCTS   Timestamp
	)
	for i, req := range batch {
		for _, e := range req.tx.states {
			e.resolve(req.tx.id)
		}
		if req.admit != nil {
			if err := req.admit(req.tx, marks); err != nil {
				req.err = err
				_ = p.abort(req.tx) // verdict recorded above
				req.decided()
				continue
			}
		}
		req.cts = base + uint64(i) + 1
		if ch := req.tx.chain; ch != nil {
			// Raise the chain's committed floor BEFORE later requests are
			// admitted: a chain successor in this very batch must see its
			// predecessor's writes as serial history, not as a conflict.
			ch.raise(req.cts)
		}
		if i+1 < len(batch) {
			// Later requests in this batch must see these writes in
			// their admission check; the final request has no successors,
			// so marking its rows would be dead work.
			for _, e := range req.tx.states {
				for k := range e.ops {
					e.ops[k].row.mark = req.cts
				}
			}
			marks.groups = groups
		}
		admitted = append(admitted, req)
		maxCTS = req.cts
	}
	if len(admitted) == 0 {
		return
	}
	admitDone := time.Now()

	// Phase 3: durability, one coalesced batch for the context's one base
	// store (see CreateTable). The scratch batch (ops array, row-key arena)
	// is cached on the first latched group across tenures, so coalescing
	// allocates nothing steady-state; neither does the list of the batch's
	// tables while it fits its stack buffer.
	var (
		sb     = groups[0].storeScratch()
		synced bool
		tblBuf [2]*Table
		tables = tblBuf[:0]
	)
	for _, req := range admitted {
		for _, e := range req.tx.states {
			for i, key := range e.order {
				op := &e.ops[i]
				off := len(sb.arena)
				sb.arena = e.table.appendRowKey(sb.arena, key)
				rk := sb.arena[off:len(sb.arena):len(sb.arena)]
				// Non-copying appends: the arena outlives the Apply, and
				// the write-set values are immutable private copies. The row's
				// handle lets a store that keeps per-key entries skip its
				// own lookup.
				if op.delete {
					sb.batch.DeleteHandle(rk, &op.row.handle)
				} else {
					sb.batch.PutHandle(rk, op.value, &op.row.handle)
				}
			}
			synced = synced || e.table.opts.SyncCommits
			if !slices.Contains(tables, e.table) {
				tables = append(tables, e.table)
			}
		}
	}
	// One watermark per touched table: everything below maxCTS is durable
	// together with it.
	for _, tbl := range tables {
		sb.batch.PutHandle(tbl.metaKey(), sb.watermark(maxCTS), nil)
	}
	// The sync point is requested only where the backend declares itself
	// Durable: a volatile backend has nothing to fsync, so the leader
	// skips the request instead of issuing one the store would silently
	// ignore.
	if err := p.ctx.store.Apply(sb.batch, synced && p.ctx.caps.Durable); err != nil {
		// After a durability error the store's state is unknowable (it may
		// hold any prefix of the batch). No version was installed yet, so
		// memory is clean — but ONLY a restart can reconcile disk, and
		// every group of the context commits into this store.
		cause := fmt.Errorf("txn: commit durability: %w", err)
		p.ctx.failAllGroups(cause)
		p.poisonBatch(groups, admitted, cause)
		return
	}
	syncDone := time.Now()

	// Phase 4: in-memory version install, ascending commit timestamps,
	// through the rows resolution found. Install cannot fail in normal
	// operation (rows grow on demand, installers are serialized by the
	// latch); an invariant trip is handled fail-stop — the latched
	// groups are poisoned with the diagnostic and the whole batch stays
	// invisible (LastCTS is never published) — instead of killing the
	// embedding process.
	for _, req := range admitted {
		for _, e := range req.tx.states {
			ixs := e.table.indexSet()
			for i := range e.ops {
				op := &e.ops[i]
				if err := op.row.obj.Install(req.cts, op.value, op.delete, horizon); err != nil {
					p.poisonBatch(groups, admitted, fmt.Errorf("txn: install invariant violated: %w", err))
					return
				}
				if op.delete {
					continue
				}
				// Secondary indexes: the row becomes a candidate of the
				// index key its NEW image carries — strictly after the
				// version is installed (the sweep's race argument, see
				// index.go), before LastCTS makes it readable.
				for _, ix := range ixs {
					ix.add(op.row, op.value)
				}
			}
		}
	}

	// Phase 5: atomic visibility for the whole batch, then the commit
	// hooks (TO_STREAM triggers), per transaction in commit order. Every
	// latched group records the batch under its own profile. Install
	// latency excludes the durability Apply — it is the in-memory half of
	// the batch (admission + version install + publish). The hooks are
	// excluded too: they run downstream consumers' code and can block on
	// feed backpressure, which is occupancy, not commit cost.
	spans := len(groups) > 1
	if spans {
		p.ctx.spanning.Add(1)
	}
	for _, g := range groups {
		g.lastCTS.Store(maxCTS)
	}
	if spans {
		p.ctx.spanning.Add(1)
	}
	syncNs := syncDone.Sub(admitDone).Nanoseconds()
	installNs := admitDone.Sub(tenureStart).Nanoseconds() + time.Since(syncDone).Nanoseconds()
	for _, g := range groups {
		g.commitTxns.Add(uint64(len(admitted)))
		g.commitBatches.Add(1)
		g.syncHist.Record(syncNs)
		g.installHist.Record(installNs)
	}
	for _, req := range admitted {
		for _, g := range groups {
			for _, h := range g.hooked() {
				(*h)(req.cts, req.tx.states)
			}
		}
		req.tx.end(false)
		recycleTxn(req.tx)
		req.decided()
	}
}
