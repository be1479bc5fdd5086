package txn

import (
	"fmt"
	"sort"
	"time"

	"sistream/internal/kv"
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
// persisting one batch per base store, and finally publishing the
// group's LastCTS in a single atomic store — the instant the whole
// multi-state commit becomes visible. One StatusAbort flag anywhere
// aborts the transaction globally.

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
	// CommitState flags tbl as ready to commit for tx; when it is the
	// last accessed state, the caller executes the global commit
	// (consistency protocol, Section 4.3).
	CommitState(tx *Txn, tbl *Table) error
	// Commit flags all states and executes the global commit.
	Commit(tx *Txn) error
	// Abort aborts tx globally, dropping all uncommitted writes.
	Abort(tx *Txn) error
	// Context returns the state context the protocol operates on.
	Context() *Context
}

// protocolBase carries the machinery shared by the three protocols.
type protocolBase struct {
	ctx *Context
}

// Context returns the protocol's state context.
func (p *protocolBase) Context() *Context { return p.ctx }

func (p *protocolBase) begin(readOnly bool) (*Txn, error) {
	t := &Txn{
		id:       p.ctx.next(),
		ctx:      p.ctx,
		readOnly: readOnly,
		states:   make(map[StateID]*stateEntry),
		readCTS:  make(map[GroupID]Timestamp),
		done:     make(chan struct{}),
	}
	t.startTS = t.id
	if err := p.ctx.register(t); err != nil {
		return nil, err
	}
	return t, nil
}

// requireGroup validates that tbl is usable transactionally.
func requireGroup(tbl *Table) error {
	if tbl.group == nil {
		return fmt.Errorf("%w: %q", ErrUnknownState, tbl.id)
	}
	return nil
}

// errReadOnlyWrite reports a write attempted in a read-only transaction.
func errReadOnlyWrite(tx *Txn) error {
	return fmt.Errorf("txn: write in read-only transaction %d", tx.id)
}

// bufferWrite records a write into tx's uncommitted write set. Writes
// "are merely appended to the write set" and never block (Section 4.2).
func bufferWrite(tx *Txn, tbl *Table, key string, op writeOp) error {
	if tx.readOnly {
		return errReadOnlyWrite(tx)
	}
	if err := requireGroup(tbl); err != nil {
		return err
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.finished.Load() {
		return ErrFinished
	}
	tx.entry(tbl).write(key, op)
	return nil
}

// bufferWriteBatch appends a whole batch of operations to tx's write set
// under a single latch acquisition — the batched analogue of bufferWrite.
// Values are copied, as with single writes. When pin is set the table's
// group snapshot is pinned first (SI semantics; see SI.Write).
func bufferWriteBatch(tx *Txn, tbl *Table, ops []WriteOp, pin bool) (int, error) {
	if tx.readOnly {
		return 0, errReadOnlyWrite(tx)
	}
	if err := requireGroup(tbl); err != nil {
		return 0, err
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.finished.Load() {
		return 0, ErrFinished
	}
	if pin {
		tx.pin(tbl)
	}
	e := tx.entry(tbl)
	e.grow(len(ops))
	for _, op := range ops {
		if op.Delete {
			e.write(op.Key, writeOp{delete: true})
		} else {
			e.write(op.Key, writeOp{value: append([]byte(nil), op.Value...)})
		}
	}
	return len(ops), nil
}

// storeBatch is the per-base-store coalesced durability batch built by a
// commit: all row writes plus the LastCTS watermark, applied with one
// (optionally synchronous) Apply. The group-commit leader caches one per
// store on the Group (leader-owned under commitMu), so the ops array and
// the row-key arena are reused across tenures instead of reallocated per
// batch.
type storeBatch struct {
	store kv.Store
	batch *kv.Batch
	sync  bool
	arena []byte // backing for all row keys of this batch
}

// storeScratch returns the group's cached scratch batch for st, reset for
// a new tenure. Caller holds g.commitMu.
func (g *Group) storeScratch(st kv.Store) *storeBatch {
	if g.sbCache == nil {
		g.sbCache = make(map[kv.Store]*storeBatch, 1)
	}
	sb := g.sbCache[st]
	if sb == nil {
		sb = &storeBatch{store: st, batch: kv.NewBatch(0)}
		g.sbCache[st] = sb
	}
	sb.batch.Reset()
	sb.arena = sb.arena[:0]
	sb.sync = false
	return sb
}

// recycleTxn returns a finished transaction's write-set storage to the
// entry pool. orderRetained marks entries whose key order escaped to a
// commit watcher (TO_STREAM holds those slices asynchronously). Safe only
// once the transaction is finished: the finished flag (checked under
// tx.mu by every accessor) guarantees no goroutine reaches the entries.
func recycleTxn(tx *Txn, orderRetained bool) {
	tx.mu.Lock()
	for _, e := range tx.states {
		e.recycle(orderRetained && len(e.order) > 0)
	}
	tx.states = nil
	tx.mu.Unlock()
}

// commitState implements the per-state flag protocol. finishFn runs the
// protocol-specific global commit when this call flipped the last flag.
func commitState(tx *Txn, tbl *Table, finishFn func() error) error {
	tx.mu.Lock()
	if tx.finished.Load() {
		tx.mu.Unlock()
		return ErrFinished
	}
	e, ok := tx.states[tbl.id]
	if !ok {
		// Committing a state the transaction never touched: register an
		// empty entry so the accounting still works (a TO_TABLE operator
		// may see only punctuations for some batch).
		e = tx.entry(tbl)
	}
	if e.status == StatusAbort {
		tx.mu.Unlock()
		return ErrAborted
	}
	e.status = StatusCommit
	for _, other := range tx.states {
		if other.status != StatusCommit {
			// Not the last flag: another operator will coordinate.
			tx.mu.Unlock()
			return nil
		}
	}
	// This caller flipped the last flag: it becomes the coordinator
	// (Section 4.3) and must perform the global commit.
	tx.mu.Unlock()
	return finishFn()
}

// commitAll flags every touched state and runs the global commit.
func commitAll(tx *Txn, finishFn func() error) error {
	tx.mu.Lock()
	if tx.finished.Load() {
		tx.mu.Unlock()
		return ErrFinished
	}
	for _, e := range tx.states {
		if e.status == StatusAbort {
			tx.mu.Unlock()
			return ErrAborted
		}
		e.status = StatusCommit
	}
	tx.mu.Unlock()
	return finishFn()
}

// flagState flips tx's commit flag for tbl without running the global
// commit, reporting whether this flip completed the transaction's flag set
// (the caller became the coordinator). It is commitState with the
// finishFn decoupled — the chain commit path flags several transactions
// before performing their global commits as one batch.
func flagState(tx *Txn, tbl *Table) (coordinator bool, err error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.finished.Load() {
		return false, ErrFinished
	}
	e, ok := tx.states[tbl.id]
	if !ok {
		e = tx.entry(tbl)
	}
	if e.status == StatusAbort {
		return false, ErrAborted
	}
	e.status = StatusCommit
	for _, other := range tx.states {
		if other.status != StatusCommit {
			return false, nil
		}
	}
	return true, nil
}

// commitChain is the shared implementation of ChainCommitter (see
// chain.go): flag tbls on every transaction in order, then globally
// commit the transactions whose flag set completed, submitting maximal
// consecutive runs that commit into the SAME single topology group as one
// multi-request pipeline submission (groupCommitMany) — one leader tenure
// and one coalesced durability batch for the whole run. Transactions
// spanning groups, or with nothing written, break the run and commit
// individually, preserving chain order (and thus ascending commit
// timestamps per key) throughout. admitFor supplies the protocol's
// admission check per transaction (nil for none); after, when non-nil,
// runs once per coordinated transaction after its commit attempt (S2PL
// releases its locks there).
func (p *protocolBase) commitChain(txs []*Txn, tbls []*Table, admitFor func(*Txn) func(*commitOverlay) error, after func(*Txn)) [][]error {
	errs := make([][]error, len(txs))
	type coord struct {
		tx     *Txn
		txIdx  int
		tblIdx int
	}
	var coords []coord
	for i, tx := range txs {
		errs[i] = make([]error, len(tbls))
		for j, tbl := range tbls {
			if err := requireGroup(tbl); err != nil {
				errs[i][j] = err
				continue
			}
			became, err := flagState(tx, tbl)
			errs[i][j] = err
			if became {
				coords = append(coords, coord{tx: tx, txIdx: i, tblIdx: j})
			}
		}
	}

	// Global commits, in chain order. runReqs accumulates the current
	// same-group run; flush submits it as one pipeline unit, records the
	// verdicts and runs the per-transaction epilogue for exactly that run
	// — so S2PL locks fall as soon as their run is installed and visible,
	// never held across a later run's durability.
	var (
		runReqs   []*commitReq
		runCoords []coord
		runGroup  *Group
	)
	flush := func() {
		if len(runReqs) == 0 {
			return
		}
		p.groupCommitMany(runGroup, runReqs)
		for i, c := range runCoords {
			errs[c.txIdx][c.tblIdx] = runReqs[i].err
			if after != nil {
				after(c.tx)
			}
		}
		runReqs, runCoords, runGroup = nil, nil, nil
	}
	for _, c := range coords {
		admit := func(*commitOverlay) error { return nil }
		if admitFor != nil {
			if a := admitFor(c.tx); a != nil {
				admit = a
			}
		}
		groups := txGroups(c.tx)
		switch len(groups) {
		case 0:
			// Nothing written: finish inline (no timestamp consumed, so
			// order relative to the run is immaterial).
			p.finish(c.tx)
			recycleTxn(c.tx, false)
			if after != nil {
				after(c.tx)
			}
		case 1:
			g := groups[0]
			if runGroup != nil && g != runGroup {
				flush()
			}
			runGroup = g
			runReqs = append(runReqs, &commitReq{tx: c.tx, admit: admit, ready: make(chan struct{})})
			runCoords = append(runCoords, c)
		default:
			flush()
			errs[c.txIdx][c.tblIdx] = p.multiGroupCommit(groups, c.tx, admit)
			if after != nil {
				after(c.tx)
			}
		}
	}
	flush()
	return errs
}

// groupCommitMany submits several already-ordered commit requests of one
// chain to g's pipeline as a unit: all requests enter the queue in a
// single append, so one leader tenure drains them together (the whole
// point of cross-transaction batching — one coalesced store batch and one
// fsync for the run). The caller then leads or parks exactly as a single
// committer does in groupCommit, handling the leadership baton on any of
// its requests.
func (p *protocolBase) groupCommitMany(g *Group, reqs []*commitReq) {
	if err := g.Err(); err != nil {
		// Fail-stop fast path: the group is poisoned, nothing may be
		// enqueued. Every request is decided here with the sticky error.
		p.failReqs(reqs, err)
		return
	}
	g.qmu.Lock()
	g.pending = append(g.pending, reqs...)
	g.pendingSubs++
	lead := !g.leaderActive
	if lead {
		g.leaderActive = true
	}
	g.qmu.Unlock()
	if lead {
		p.leadGroup(g)
	} else {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
	for _, req := range reqs {
		<-req.ready
		if req.promoted {
			// Retiring leader handed us the baton with this request (and
			// therefore every later one of ours) still pending: lead the
			// batch containing it; leaderCommit decides it synchronously.
			req.promoted = false
			req.ready = make(chan struct{})
			p.leadGroup(g)
			<-req.ready
		}
	}
}

// finish releases the transaction's slot exactly once.
func (p *protocolBase) finish(tx *Txn) {
	tx.mu.Lock()
	already := tx.finished.Swap(true)
	tx.mu.Unlock()
	if !already {
		close(tx.done)
		p.ctx.unregister(tx)
	}
}

// abort drops all write sets and releases the slot. "It is enough ... to
// simply clear the corresponding write set and release the memory"
// (Section 4.2).
func (p *protocolBase) abort(tx *Txn) error {
	tx.mu.Lock()
	if tx.finished.Swap(true) {
		tx.mu.Unlock()
		return ErrFinished
	}
	for _, e := range tx.states {
		e.recycle(false)
	}
	tx.states = nil
	tx.mu.Unlock()
	close(tx.done)
	p.ctx.unregister(tx)
	return nil
}

// txGroups returns the distinct groups of the transaction's states.
func txGroups(tx *Txn) []*Group {
	seen := map[GroupID]*Group{}
	for _, e := range tx.states {
		g := e.table.group
		seen[g.id] = g
	}
	out := make([]*Group, 0, len(seen))
	for _, g := range seen {
		out = append(out, g)
	}
	return out
}

// sortedEntries returns the transaction's state entries in StateID order
// for deterministic install and batch layout.
func sortedEntries(tx *Txn) []*stateEntry {
	out := make([]*stateEntry, 0, len(tx.states))
	for _, e := range tx.states {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].table.id < out[j].table.id })
	return out
}

// commitReq is one validated transaction parked on a group's commit
// queue. err is written by the batch leader before it closes ready and
// read by the owning goroutine only after ready is closed, so the channel
// orders the accesses.
type commitReq struct {
	tx      *Txn
	admit   func(ov *commitOverlay) error
	entries []*stateEntry // filled by the leader once admitted
	cts     Timestamp
	err     error
	// promoted marks a leadership handoff instead of a decision: the
	// retiring leader closes ready with promoted set, and the owner —
	// whose request is still pending — leads the next batch itself.
	promoted bool
	ready    chan struct{}
}

// commitOverlay exposes the writes admitted earlier in the same
// group-commit batch. Admission checks (First-Committer-Wins) must see
// those writes even though their versions are not installed yet —
// otherwise two same-batch writers of one key would both pass. Outside a
// batch (multi-group slow path) the overlay is nil and latestCTS falls
// back to the installed version store alone.
type commitOverlay struct {
	pending map[*Table]map[string]Timestamp
}

// latestCTS returns the newest commit timestamp of key in tbl, combining
// installed versions with writes admitted earlier in this batch.
func (ov *commitOverlay) latestCTS(tbl *Table, key string) Timestamp {
	var latest Timestamp
	if o := tbl.object(key, false); o != nil {
		latest = o.LatestCTS()
	}
	if ov != nil {
		if ts := ov.pending[tbl][key]; ts > latest {
			latest = ts
		}
	}
	return latest
}

// record notes an admitted write at cts for later admission checks in the
// same batch.
func (ov *commitOverlay) record(tbl *Table, key string, cts Timestamp) {
	if ov.pending == nil {
		ov.pending = make(map[*Table]map[string]Timestamp)
	}
	m := ov.pending[tbl]
	if m == nil {
		m = make(map[string]Timestamp)
		ov.pending[tbl] = m
	}
	m[key] = cts
}

// installCommit is the coordinator's global commit, shared by all
// protocols. Transactions whose states all belong to one topology group —
// the continuous-query common case — go through the group-commit pipeline
// (groupCommit); transactions spanning groups take the slow path under
// the commit latches of every involved group (multiGroupCommit). The
// caller (via commitState/commitAll) has already established that it is
// the coordinator.
func (p *protocolBase) installCommit(tx *Txn, admit func(*commitOverlay) error) error {
	groups := txGroups(tx)
	switch len(groups) {
	case 0:
		// Nothing written (read-only or empty transaction).
		p.finish(tx)
		recycleTxn(tx, false)
		return nil
	case 1:
		return p.groupCommit(groups[0], tx, admit)
	}
	return p.multiGroupCommit(groups, tx, admit)
}

// groupCommitLinger bounds how long a batch leader collects followers for
// the next batch once commit pressure is established. The collection is
// wake-driven — each enqueue nudges the leader, and it stops as soon as as
// many submitters have queued as the previous batch carried — so under
// steady pressure the timer never fires; it is the fallback that bounds
// the wait when fewer committers are active than last time.
const groupCommitLinger = 200 * time.Microsecond

// groupCommit runs the group-commit pipeline for a transaction confined
// to one topology group. The committer enqueues its validated request; if
// a batch leader is already active the committer nudges it (wake) and
// parks on the request's ready channel — either the leader commits the
// request in its batch, or it hands the parked committer the leadership
// baton on retirement (promoted). Otherwise the committer claims
// leadership itself. A leader's tenure is exactly ONE batch (leadGroup),
// so a committer is never conscripted into serving other transactions
// indefinitely — in particular an S2PL committer's row locks are released
// after one batch, as with the original per-commit latch.
func (p *protocolBase) groupCommit(g *Group, tx *Txn, admit func(*commitOverlay) error) error {
	if err := g.Err(); err != nil {
		// Fail-stop fast path: a poisoned group rejects commits before
		// they queue (leaderCommit re-checks for requests that raced in).
		p.abortLocked(tx)
		return err
	}
	req := &commitReq{tx: tx, admit: admit, ready: make(chan struct{})}
	g.qmu.Lock()
	g.pending = append(g.pending, req)
	g.pendingSubs++
	if g.leaderActive {
		g.qmu.Unlock()
		// Nudge a collecting leader. The send never blocks (capacity 1);
		// a stale token at worst costs the leader one extra queue check.
		select {
		case g.wake <- struct{}{}:
		default:
		}
		<-req.ready
		if !req.promoted {
			return req.err
		}
		// Retiring leader handed us the baton: our request is still
		// pending, so lead the batch that will contain it.
		req.promoted = false
		req.ready = make(chan struct{})
	} else {
		g.leaderActive = true
		g.qmu.Unlock()
	}

	p.leadGroup(g)
	// The leader's own request was part of the batch it led; err is set
	// (and ready closed) by leaderCommit.
	return req.err
}

// leadGroup serves one leader tenure: collect a batch, commit it, then
// hand leadership to a parked committer (if any are pending) or release
// it. The claimant's own request is always in the queue, so the drained
// batch is never empty.
//
// Batch formation is adaptive: the number of submitters in the previous
// batch (g.batchTarget, leader-owned under commitMu; one per groupCommit /
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
	g.pending, g.pendingSubs = nil, 0
	g.qmu.Unlock()
	// Drain a stale wake token so the next tenure's collection starts
	// clean.
	select {
	case <-g.wake:
	default:
	}
	g.batchTarget = subs
	p.leaderCommit(g, batch)

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

	// Housekeeping off the latch: the retiring leader sweeps any member
	// table whose opt-in GC threshold was reached. New commits proceed
	// concurrently (the next leader holds commitMu; the sweep takes only
	// per-object writer mutexes).
	for _, tbl := range g.tables {
		tbl.maybeGC()
	}
}

// leaderCommit commits one batch of enqueued transactions. Caller holds
// g.commitMu. The pipeline:
//
//  1. snapshot the GC horizon, then reserve a contiguous commit-timestamp
//     range — one timestamp per request, assigned in arrival order. The
//     horizon is taken BEFORE the range, so every version this batch
//     terminates has dts greater than the horizon and can never be
//     reclaimed by the batch's own installs (see Txn.pin).
//  2. admit each request in arrival order against a batch overlay so
//     First-Committer-Wins sees writes of earlier same-batch admissions;
//     a rejected request aborts immediately with no state modified.
//  3. durability: ONE coalesced batch per distinct base store — all
//     admitted rows plus one LastCTS watermark per touched table — with a
//     single (optionally synchronous) Apply. This is where group commit
//     pays: N transactions share one fsync. A failed store aborts the
//     whole batch; nothing was installed yet, so memory is untouched and
//     partially persisted stores reconcile at recovery via the watermark
//     (see CreateGroup).
//  4. install all versions in commit-timestamp order (cannot fail:
//     version arrays grow on demand and installers of one group are
//     serialized by the latch).
//  5. publish LastCTS once for the batch — the single atomic store that
//     makes every member transaction visible, completely or not at all —
//     then notify watchers per transaction in commit order.
func (p *protocolBase) leaderCommit(g *Group, batch []*commitReq) {
	if err := g.Err(); err != nil {
		// The group was poisoned after these requests passed the enqueue
		// fast path; decide them all with the sticky error.
		p.failReqs(batch, err)
		return
	}
	tenureStart := time.Now()
	horizon := p.ctx.OldestActiveVersion()
	n := uint64(len(batch))
	base := p.ctx.counter.Add(n) - n

	// Phase 2: admission in arrival order.
	var (
		admitted []*commitReq
		overlay  commitOverlay
		maxCTS   Timestamp
	)
	for i, req := range batch {
		if req.admit != nil {
			if err := req.admit(&overlay); err != nil {
				req.err = err
				p.abortLocked(req.tx)
				close(req.ready)
				continue
			}
		}
		req.cts = base + uint64(i) + 1
		req.entries = sortedEntries(req.tx)
		if ch := req.tx.chain; ch != nil {
			// Raise the chain's committed floor BEFORE later requests are
			// admitted: a chain successor in this very batch must see its
			// predecessor's writes as serial history, not as a conflict.
			ch.raise(req.cts)
		}
		if i+1 < len(batch) {
			// Later requests in this batch must see these writes in
			// their admission check; the final request has no successors,
			// so recording its writes would be dead work.
			for _, e := range req.entries {
				for _, key := range e.order {
					overlay.record(e.table, key, req.cts)
				}
			}
		}
		admitted = append(admitted, req)
		maxCTS = req.cts
	}
	if len(admitted) == 0 {
		return
	}
	admitDone := time.Now()

	// Phase 3: durability, one coalesced batch per distinct base store.
	// The scratch batches (ops array, row-key arena) are cached on the
	// group across tenures, so coalescing allocates nothing steady-state.
	var (
		batches []*storeBatch
		tables  []*Table
		// Secondary-index maintenance: posting mutations per admitted
		// request (installed in phase 4 at the request's cts), and the
		// pending post-write images of keys already visited in this batch
		// (the pre-image of a later same-batch write of the same key).
		// Both stay nil while no touched table has indexes.
		reqDeltas [][]indexDelta
		preimage  map[*Table]map[string]rowImage
	)
	getSB := func(st kv.Store) *storeBatch {
		for _, sb := range batches {
			if sb.store == st {
				return sb
			}
		}
		sb := g.storeScratch(st)
		batches = append(batches, sb)
		return sb
	}
	for ri, req := range admitted {
		var deltas []indexDelta
		for _, e := range req.entries {
			sb := getSB(e.table.store)
			ixs := e.table.indexSet()
			for i, key := range e.order {
				op := &e.ops[i]
				off := len(sb.arena)
				sb.arena = e.table.appendRowKey(sb.arena, key)
				rk := sb.arena[off:len(sb.arena):len(sb.arena)]
				// Owned variants: the arena outlives the Apply, and the
				// write-set values are immutable private copies.
				if op.delete {
					sb.batch.DeleteOwned(rk)
				} else {
					sb.batch.PutOwned(rk, op.value)
				}
				if len(ixs) > 0 {
					// Index mutations join the SAME durability batch as the
					// row (posting rows share its arena) and are stashed for
					// install at the SAME commit timestamp in phase 4 — the
					// index is never ahead of or behind its table.
					img, found := rowImage{}, false
					if m := preimage[e.table]; m != nil {
						img, found = m[key]
					}
					oldVal, hadOld := img.val, found && !img.del
					if !found {
						oldVal, hadOld = latestImage(e.table, op.obj, key)
					}
					start := len(deltas)
					deltas = indexDeltasFor(deltas, ixs, key, op.value, op.delete, oldVal, hadOld)
					for _, d := range deltas[start:] {
						ioff := len(sb.arena)
						sb.arena = d.ix.appendRowKey(sb.arena, d.ikey, d.pkey)
						irk := sb.arena[ioff:len(sb.arena):len(sb.arena)]
						if d.del {
							sb.batch.DeleteOwned(irk)
						} else {
							sb.batch.PutOwned(irk, nil)
						}
					}
					if preimage == nil {
						preimage = make(map[*Table]map[string]rowImage)
					}
					m := preimage[e.table]
					if m == nil {
						m = make(map[string]rowImage)
						preimage[e.table] = m
					}
					m[key] = rowImage{val: op.value, del: op.delete}
				}
			}
			// The sync point is requested only where the backend declares
			// SupportsSync: a volatile backend has nothing to fsync, so
			// the leader skips the request instead of issuing one the
			// store would silently ignore.
			if e.table.opts.SyncCommits && e.table.caps.SupportsSync {
				sb.sync = true
			}
			seen := false
			for _, t := range tables {
				if t == e.table {
					seen = true
					break
				}
			}
			if !seen {
				tables = append(tables, e.table)
			}
		}
		if deltas != nil {
			if reqDeltas == nil {
				reqDeltas = make([][]indexDelta, len(admitted))
			}
			reqDeltas[ri] = deltas
		}
	}
	// One watermark per touched table: everything below maxCTS in this
	// store is durable together with it.
	for _, tbl := range tables {
		getSB(tbl.store).batch.PutOwned(tbl.metaKey(), encodeTS(maxCTS))
	}
	for _, sb := range batches {
		if err := sb.store.Apply(sb.batch, sb.sync); err != nil {
			// Fail-stop: after a durability error the batch's persistence
			// is unknowable (stores applied earlier in this loop already
			// hold it durably, the failed one may hold any prefix). No
			// version was installed yet, so memory is clean — but ONLY a
			// restart can reconcile disk, so every group with a table on
			// any touched store is poisoned before the requests are
			// decided. Recovery resolves the divergence via the per-store
			// watermark (see CreateGroup).
			cause := fmt.Errorf("txn: commit durability: %w", err)
			stores := make([]kv.Store, len(batches))
			for i, b := range batches {
				stores[i] = b.store
			}
			g.fail(cause)
			p.ctx.failGroupsOnStores(stores, cause)
			p.failReqs(admitted, g.Err())
			return
		}
	}
	syncDone := time.Now()
	g.syncHist.Record(syncDone.Sub(admitDone).Nanoseconds())

	// Phase 4: in-memory version install, ascending commit timestamps.
	// Admission already resolved most objects (op.obj); only keys created
	// by this very batch still need the registry. Install cannot fail in
	// normal operation (version arrays grow on demand, installers are
	// serialized by the latch); an invariant trip is handled fail-stop —
	// the group is poisoned with the diagnostic and the whole batch stays
	// invisible (LastCTS is never published) — instead of killing the
	// embedding process.
	for ri, req := range admitted {
		for _, e := range req.entries {
			for i, key := range e.order {
				op := &e.ops[i]
				o := op.obj
				if o == nil {
					o = e.table.object(key, true)
				}
				if err := o.Install(req.cts, op.value, op.delete, horizon); err != nil {
					g.fail(fmt.Errorf("txn: install invariant violated: %w", err))
					p.failReqs(admitted, g.Err())
					return
				}
			}
		}
		if reqDeltas != nil {
			// Posting installs at the row's cts, right after the rows: a
			// snapshot sees the index mutation exactly when it sees the row.
			for _, d := range reqDeltas[ri] {
				if err := d.ix.install(d.ikey, d.pkey, req.cts, d.del, horizon); err != nil {
					g.fail(fmt.Errorf("txn: install invariant violated: %w", err))
					p.failReqs(admitted, g.Err())
					return
				}
			}
		}
	}

	// Phase 5: atomic visibility for the whole batch, then per-commit
	// watcher notifications (TO_STREAM triggers) in commit order.
	g.lastCTS.Store(maxCTS)
	g.commitTxns.Add(uint64(len(admitted)))
	g.commitBatches.Add(1)
	// Install latency excludes the durability Apply — it is the in-memory
	// half of the batch (admission + version install + publish). Watcher
	// notifications are excluded too: they run downstream consumers'
	// code and can block on feed backpressure, which is occupancy, not
	// commit cost.
	g.installHist.Record(admitDone.Sub(tenureStart).Nanoseconds() + time.Since(syncDone).Nanoseconds())
	g.batchEWMA.Observe(float64(len(admitted)))
	nowNs := syncDone.UnixNano()
	for _, tbl := range tables {
		tbl.lastCommitNanos.Store(nowNs)
	}
	for _, req := range admitted {
		var writes map[StateID][]string
		for _, e := range req.entries {
			if len(e.order) == 0 {
				continue
			}
			e.table.commitsSinceGC.Add(1)
			if writes == nil {
				writes = make(map[StateID][]string)
			}
			writes[e.table.id] = e.order
		}
		retained := false
		if writes != nil {
			retained = g.notify(req.cts, writes)
		}
		p.finish(req.tx)
		recycleTxn(req.tx, retained)
		close(req.ready)
	}
}

// multiGroupCommit is the slow path for transactions spanning topology
// groups: it takes the commit latch of every involved group in canonical
// ID order (quiescing their pipelines — a leader holds its group's latch
// for the whole batch) and commits the single transaction exactly as the
// original protocol did: admit, one durability batch per store, install,
// then one LastCTS publish per group so the cross-group commit is
// all-or-nothing for snapshot readers of any involved group.
func (p *protocolBase) multiGroupCommit(groups []*Group, tx *Txn, admit func(*commitOverlay) error) error {
	lockGroups(groups)
	defer func() {
		unlockGroups(groups)
		// Threshold-driven sweeps run after the latches are released so
		// they never extend the cross-group critical section.
		for _, g := range groups {
			for _, tbl := range g.tables {
				tbl.maybeGC()
			}
		}
	}()

	// Fail-stop: a poisoned group anywhere in the span rejects the whole
	// cross-group commit (checked under the latches so no failure can
	// race in between check and install).
	for _, g := range groups {
		if err := g.Err(); err != nil {
			p.abortLocked(tx)
			return err
		}
	}

	if admit != nil {
		if err := admit(nil); err != nil {
			p.abortLocked(tx)
			return err
		}
	}

	tenureStart := time.Now()
	entries := sortedEntries(tx)
	horizon := p.ctx.OldestActiveVersion()

	cts := p.ctx.next()
	if ch := tx.chain; ch != nil {
		ch.raise(cts)
	}

	// Durability precedes the in-memory install so a failed store leaves
	// no memory state behind: the transaction aborts as if it never
	// happened.
	type storeBatch struct {
		store kv.Store
		batch *kv.Batch
		sync  bool
	}
	var batches []*storeBatch
	var deltas []indexDelta
	byStore := map[kv.Store]*storeBatch{}
	for _, e := range entries {
		sb, ok := byStore[e.table.store]
		if !ok {
			sb = &storeBatch{store: e.table.store, batch: kv.NewBatch(len(e.order) + 1)}
			byStore[e.table.store] = sb
			batches = append(batches, sb)
		}
		ixs := e.table.indexSet()
		for i, key := range e.order {
			op := &e.ops[i]
			if op.delete {
				sb.batch.Delete(e.table.rowKey(key))
			} else {
				sb.batch.Put(e.table.rowKey(key), op.value)
			}
			if len(ixs) > 0 {
				// Single transaction: the pre-image is always the installed
				// state (a write set holds one op per key). Posting rows join
				// the same per-store durability batch as the rows.
				oldVal, hadOld := latestImage(e.table, op.obj, key)
				start := len(deltas)
				deltas = indexDeltasFor(deltas, ixs, key, op.value, op.delete, oldVal, hadOld)
				for _, d := range deltas[start:] {
					if d.del {
						sb.batch.Delete(d.ix.appendRowKey(nil, d.ikey, d.pkey))
					} else {
						sb.batch.Put(d.ix.appendRowKey(nil, d.ikey, d.pkey), nil)
					}
				}
			}
		}
		sb.batch.Put(e.table.metaKey(), encodeTS(cts))
		// Same capability gate as the single-group leader: no sync point
		// over backends that do not support one.
		if e.table.opts.SyncCommits && e.table.caps.SupportsSync {
			sb.sync = true
		}
	}
	applyStart := time.Now()
	for _, sb := range batches {
		if err := sb.store.Apply(sb.batch, sb.sync); err != nil {
			// No version was installed yet, so aborting here is clean in
			// memory — but stores applied earlier in this loop already
			// hold the batch durably (the multi-store tear window), so
			// every group with a table on any touched store is poisoned:
			// only restart + recovery (per-store watermark, see
			// CreateGroup) can reconcile the divergence.
			cause := fmt.Errorf("txn: commit durability: %w", err)
			stores := make([]kv.Store, len(batches))
			for i, b := range batches {
				stores[i] = b.store
			}
			p.ctx.failGroupsOnStores(stores, cause)
			p.abortLocked(tx)
			return cause
		}
	}
	syncDone := time.Now()

	// In-memory version install. An invariant trip is fail-stop: every
	// involved group is poisoned with the diagnostic and the commit stays
	// invisible (no LastCTS publish), instead of panicking the process.
	for _, e := range entries {
		for i, key := range e.order {
			op := &e.ops[i]
			if err := e.table.object(key, true).Install(cts, op.value, op.delete, horizon); err != nil {
				cause := fmt.Errorf("txn: install invariant violated: %w", err)
				for _, g := range groups {
					g.fail(cause)
				}
				p.abortLocked(tx)
				return fmt.Errorf("%w: %w", ErrGroupFailed, cause)
			}
		}
	}
	for _, d := range deltas {
		if err := d.ix.install(d.ikey, d.pkey, cts, d.del, horizon); err != nil {
			cause := fmt.Errorf("txn: install invariant violated: %w", err)
			for _, g := range groups {
				g.fail(cause)
			}
			p.abortLocked(tx)
			return fmt.Errorf("%w: %w", ErrGroupFailed, cause)
		}
	}

	// Atomic visibility, then commit watchers per group. The slow path is
	// a batch of one: each involved group records the same durability and
	// install latencies under its own profile.
	syncNs := syncDone.Sub(applyStart).Nanoseconds()
	installNs := applyStart.Sub(tenureStart).Nanoseconds() + time.Since(syncDone).Nanoseconds()
	retained := false
	for _, g := range groups {
		g.lastCTS.Store(cts)
		g.commitTxns.Add(1)
		g.commitBatches.Add(1)
		g.syncHist.Record(syncNs)
		g.installHist.Record(installNs)
		g.batchEWMA.Observe(1)
	}
	nowNs := syncDone.UnixNano()
	for _, g := range groups {
		var writes map[StateID][]string
		for _, e := range entries {
			if e.table.group != g || len(e.order) == 0 {
				continue
			}
			e.table.commitsSinceGC.Add(1)
			e.table.lastCommitNanos.Store(nowNs)
			if writes == nil {
				writes = make(map[StateID][]string)
			}
			writes[e.table.id] = e.order
		}
		if writes != nil && g.notify(cts, writes) {
			retained = true
		}
	}
	p.finish(tx)
	recycleTxn(tx, retained)
	return nil
}

// abortLocked marks the transaction aborted without needing group locks
// released first (write sets are private, so dropping them is safe).
func (p *protocolBase) abortLocked(tx *Txn) {
	tx.mu.Lock()
	if tx.finished.Swap(true) {
		tx.mu.Unlock()
		return
	}
	for _, e := range tx.states {
		e.recycle(false)
	}
	tx.states = nil
	tx.mu.Unlock()
	close(tx.done)
	p.ctx.unregister(tx)
}
