package stream

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sistream/internal/txn"
)

// Parallel keyed regions: the multiplier after vectorization. A single
// continuous query's dataflow spine — one fused operator chain, one
// TO_TABLE goroutine — is inherently single-writer; Parallelize splits it
// into P independent lanes by hashing each tuple's key, so the per-element
// work (operator stages, write-set building, value copies) runs on P
// cores, while the transaction model of the paper is preserved exactly:
//
//   - Routing is KEYED: a key is always processed by the same lane, so
//     per-key order is preserved and the lanes' write sets are disjoint.
//   - Punctuations are BROADCAST: every lane sees every BOT/COMMIT/
//     ROLLBACK, in the same order, at the same position relative to its
//     share of the data.
//   - The merge BARRIER re-serializes punctuations: a lane reaching a
//     punctuation first flushes its pending per-lane write segment into
//     the shared transaction (txn.Segment — one latch acquisition per
//     lane per boundary), then parks; the last lane to arrive becomes the
//     commit coordinator and fires the single CommitState/Abort only
//     after every lane has acknowledged the boundary. The transaction
//     therefore commits all lanes' writes atomically — the same
//     per-transaction atomicity the sequential TO_TABLE provides — and
//     the merged output stream carries each punctuation exactly once, at
//     a position consistent with every data element of its transaction.
//
// Merge commits synchronously at the barrier; MergeBatched adds the fused
// commit spine — the coordinator defers the commit work to a spine worker
// that batches consecutive lane-complete transactions into ONE
// group-commit submission (see commitSpine) — and Reparallelize wires a
// region's lanes directly into a downstream region when the partitioning
// matches, skipping the merge/re-route hop entirely.
//
// What is NOT preserved is the interleaving of data elements of one
// transaction across different keys: lanes run concurrently, so the
// merged stream orders them arbitrarily between two punctuations (the
// property test in parallel_test.go pins down exactly this contract:
// identical per-transaction element multisets, identical table contents
// and stats for every lane count, against the sequential reference).

// laneKey is the default routing hash: txn.DefaultKeyHash of the tuple
// key — the SAME function the partitioned change feed defaults to, so
// default-keyed ingest lanes and feed partitions agree on placement
// (an empty key routes to lane 0).
func laneKey(t Tuple) uint64 {
	return txn.DefaultKeyHash(t.Key)
}

// KeyFn is a routing-function TOKEN shared by the keyed parallel
// constructs (Parallelize, Reparallelize, FromTablePartitioned). Two Go
// function values can never be proven equal, so the planner treats the
// token's POINTER as the identity of the partitioning: build one *KeyFn
// per routing function and pass the same token everywhere that function
// partitions — then Reparallelize can fuse two regions lane-for-lane on
// token equality exactly as it does for the shared default (nil, which
// selects txn.DefaultKeyHash on both the tuple and the key side).
//
// Tuple routes ingest-side tuples; Key partitions feed-side row keys.
// Setting only Key derives Tuple from it over Tuple.Key (NewKeyFn), which
// also guarantees the two sides agree on placement. Setting only Tuple
// leaves the token unusable for FromTablePartitioned.
type KeyFn struct {
	// Tuple maps a tuple to its routing hash (ingest-lane routing); nil
	// derives it from Key applied to Tuple.Key.
	Tuple func(Tuple) uint64
	// Key maps a row key to its hash (feed partitioning); required when
	// the token is used with FromTablePartitioned.
	Key func(string) uint64
}

// NewKeyFn builds a routing token from one key-string hash, usable on
// both the ingest side (tuples route by Tuple.Key) and the feed side —
// the construction that makes same-token fusion across the table seam
// sound by definition.
func NewKeyFn(key func(string) uint64) *KeyFn {
	return &KeyFn{
		Key:   key,
		Tuple: func(t Tuple) uint64 { return key(t.Key) },
	}
}

// tupleFn resolves the ingest-side routing function (nil token or fields
// selects the default lane hash).
func (k *KeyFn) tupleFn() func(Tuple) uint64 {
	switch {
	case k == nil:
		return laneKey
	case k.Tuple != nil:
		return k.Tuple
	case k.Key != nil:
		kf := k.Key
		return func(t Tuple) uint64 { return kf(t.Key) }
	default:
		return laneKey
	}
}

// keyHash resolves the feed-side partitioning function (nil token selects
// txn.DefaultKeyHash downstream).
func (k *KeyFn) keyHash() func(string) uint64 {
	if k == nil {
		return nil
	}
	if k.Key == nil {
		panic("stream: KeyFn used for feed partitioning must set Key")
	}
	return k.Key
}

// ParallelRegion is a parallel section of a topology: P keyed lanes
// between a Parallelize router and a Merge barrier. Build the per-lane
// pipeline with Apply and ToTable, then close the region with Merge or
// MergeBatched — or hand the lanes to a downstream region with
// Reparallelize. A region whose lanes are never merged does not run.
type ParallelRegion struct {
	t     *Topology
	lanes []*Stream
	// actions run on the commit coordinator (the last lane to reach a
	// punctuation barrier), in registration order, with every lane parked
	// and every lane's segment flushed — see ToTable. MergeBatched defers
	// them to the commit spine, which requires every action to be a
	// ToTable registration (regs mirrors them one to one).
	actions []func(Element)
	regs    []laneCommitReg
	// key is the routing token the region was partitioned with (nil = the
	// default key hash). Token identity is what makes direct
	// partition→lane fusion verifiable — see Reparallelize.
	key    *KeyFn
	merged bool
}

// Parallelize hash-routes the stream's data elements into p keyed lanes
// and broadcasts punctuations to all of them. keyFn is the routing token
// (nil selects FNV-1a of Tuple.Key); tuples with equal hash share a lane,
// so state updates of one key stay ordered. Pass the SAME token to every
// construct partitioning by the same function — token identity is what
// lets Reparallelize fuse regions (see KeyFn). p == 1 is the identity:
// the stream itself becomes the single lane and no router goroutine is
// spawned.
func (s *Stream) Parallelize(p int, keyFn *KeyFn) *ParallelRegion {
	if p < 1 {
		panic("stream: Parallelize needs p >= 1")
	}
	r := &ParallelRegion{t: s.t, key: keyFn}
	keyDesc := "default"
	if keyFn != nil {
		keyDesc = "custom"
	}
	if p == 1 {
		r.lanes = []*Stream{s}
		s.t.note("region", "parallelize", "lanes=1 (identity, no router)", nil)
		return r
	}
	route := keyFn.tupleFn()
	r.lanes = make([]*Stream, p)
	for i := range r.lanes {
		r.lanes[i] = s.t.newStream()
	}
	s.t.note("region", "parallelize", fmt.Sprintf("lanes=%d key=%s (hash-routed, punctuations broadcast)", p, keyDesc), occOf(r.lanes...))
	pend := make([][]Element, p)
	// ship sends lane i's pending batch (blocking) and clears it. A
	// non-nil pending batch always holds at least one element (it is
	// created on first append and nilled on every send).
	ship := func(i int) {
		if len(pend[i]) > 0 {
			r.lanes[i].ch <- pend[i]
			pend[i] = nil
		}
	}
	s.consume("parallelize", func(b []Element) {
		for _, e := range b {
			if e.Kind == KindData {
				i := int(route(e.Tuple) % uint64(p))
				if pend[i] == nil {
					pend[i] = getBatch()
				}
				pend[i] = append(pend[i], e)
				if len(pend[i]) >= batchCap {
					ship(i)
				}
				continue
			}
			// Punctuation: every lane must see it after all data routed
			// before it — flush the pending data batches, then broadcast.
			for i := range pend {
				ship(i)
			}
			for i := range r.lanes {
				pb := getBatch()
				pb = append(pb, e)
				r.lanes[i].ch <- pb
			}
		}
		putBatch(b)
		// Between punctuations, ship partial batches only while the lane
		// edge has room (the emitter discipline): when lanes keep up,
		// delivery is prompt; once backpressure builds, batches grow
		// toward batchCap, which is when amortization pays.
		for i := range pend {
			if len(pend[i]) > 0 {
				select {
				case r.lanes[i].ch <- pend[i]:
					pend[i] = nil
				default:
				}
			}
		}
	}, func() {
		for i := range pend {
			ship(i)
		}
		for _, l := range r.lanes {
			close(l.ch)
		}
	})
	return r
}

// Apply derives each lane through fn (lane index, lane stream) — the hook
// for per-lane fused operator chains (Map/Filter/FlatMap run inside the
// lane's consumer, so a chain still costs zero goroutines per lane). fn
// must return a stream of the same topology.
func (r *ParallelRegion) Apply(fn func(lane int, s *Stream) *Stream) *ParallelRegion {
	r.checkOpen("Apply")
	for i, l := range r.lanes {
		nl := fn(i, l)
		if nl == nil || nl.t != r.t {
			panic("stream: ParallelRegion.Apply must return a stream of the same topology")
		}
		r.lanes[i] = nl
	}
	return r
}

// Reparallelize is the region planner's seam between two parallel
// sections: it re-partitions the region into p keyed lanes for a
// downstream consumer chain. When the partitioning provably matches —
// p equals the region's lane count and the requested routing token IS the
// region's token (both nil selects the shared default,
// txn.DefaultKeyHash; a custom *KeyFn proves equality by pointer
// identity, see KeyFn) — partition i is wired directly into lane i: no
// Merge goroutine, no re-hash, no channel hop; the two regions become
// one, with a single barrier (the downstream Merge/MergeBatched)
// re-serializing punctuations exactly once for the combined span. A
// single-lane region fuses with a single-lane request regardless of token
// (there is nothing to route).
//
// When the counts differ or the tokens do (two DIFFERENT tokens may wrap
// the same function — equality of Go functions is unprovable, which is
// why the token exists), the region is closed with a Merge barrier and
// re-routed through a fresh Parallelize — correct, just not fused. Either
// way the caller continues on the returned region and must close it with
// Merge or MergeBatched.
func (r *ParallelRegion) Reparallelize(name string, p int, keyFn *KeyFn) *ParallelRegion {
	r.checkOpen("Reparallelize")
	if p < 1 {
		panic("stream: Reparallelize needs p >= 1")
	}
	if p == len(r.lanes) && (p == 1 || keyFn == r.key) {
		r.merged = true
		r.t.note("region", name, fmt.Sprintf("fused lane-for-lane (lanes=%d, matching partitioning — no merge, no re-route)", p), nil)
		return &ParallelRegion{
			t:       r.t,
			lanes:   r.lanes,
			actions: r.actions,
			regs:    r.regs,
			key:     r.key,
		}
	}
	r.t.note("region", name, "reroute (partitioning mismatch: merge + re-hash)", nil)
	return r.Merge(name).Parallelize(p, keyFn)
}

func (r *ParallelRegion) checkOpen(op string) {
	if r.merged {
		panic("stream: ParallelRegion." + op + " after Merge")
	}
}

// laneTableCtl coordinates one region ToTable's poisoning state across
// lanes: the first lane flush failure of a transaction poisons it (and
// accounts for it exactly once); the commit coordinator turns a poisoned
// transaction into a global abort. Poisoning is keyed to the transaction
// handle — NOT a flag reset at BOT — because with a single lane the
// region's stream can deliver a whole [BOT .. COMMIT BOT ..] run in one
// batch, whose fused-stage flushes all execute before the collector's
// barrier syncs; a BOT-time reset would then wipe a poison the same
// batch's COMMIT still has to observe. Several transactions may be
// poisoned at once (a commit spine defers their handling past the
// barrier), so the state is a set, cleared as each transaction's final
// punctuation is handled.
type laneTableCtl struct {
	mu       sync.Mutex
	poisoned map[*txn.Txn]bool
}

// fail records a lane flush failure of tx. Only the FIRST failure of the
// transaction counts: one abort for the abort family (a First-Committer-
// Wins loss, or ErrFinished because another lane's failure already
// aborted the transaction), a topology failure otherwise — mirroring the
// sequential TO_TABLE, which poisons on the first failing write and
// counts a single abort for the transaction.
func (c *laneTableCtl) fail(t *Topology, op string, stats *ToTableStats, tx *txn.Txn, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.poisoned[tx] {
		return
	}
	if c.poisoned == nil {
		c.poisoned = make(map[*txn.Txn]bool)
	}
	c.poisoned[tx] = true
	if txn.IsAbort(err) || err == txn.ErrFinished {
		stats.Aborts.Add(1)
	} else {
		t.fail(op, err)
	}
}

func (c *laneTableCtl) isPoisoned(tx *txn.Txn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.poisoned[tx]
}

// clear drops tx's poison record once its final punctuation has been
// handled (the transaction is finished; the handle is never seen again).
func (c *laneTableCtl) clear(tx *txn.Txn) {
	c.mu.Lock()
	delete(c.poisoned, tx)
	c.mu.Unlock()
}

// laneCommitReg is one ToTable's registration with the region's commit
// machinery: the protocol and table it maintains, its live stats, and its
// poisoning state. The barrier actions and the commit spine both work off
// these.
type laneCommitReg struct {
	p     txn.Protocol
	tbl   *txn.Table
	stats *ToTableStats
	ctl   *laneTableCtl
}

// ToTable adds a per-lane TO_TABLE write path to every lane of the
// region, maintaining tbl inside the transaction attached to the
// elements — the parallel analogue of Stream.ToTable:
//
//   - Each lane buffers its data tuples into a private txn.Segment (value
//     copies happen lane-locally, in parallel, with no shared latch).
//   - At every punctuation the lane flushes its segment into the shared
//     transaction — through the protocol's SegmentWriter fast path when
//     available (SI, BOCC and S2PL all implement it: ownership transfer,
//     one latch acquisition, with S2PL additionally acquiring its
//     exclusive locks lane-side), through Protocol.WriteBatch otherwise —
//     BEFORE acknowledging the barrier, so the coordinator never commits
//     a transaction with lane writes still buffered.
//   - The commit itself (CommitState on COMMIT, Abort on ROLLBACK, global
//     abort of poisoned transactions) runs once per transaction, at the
//     region's closing barrier: synchronously on the coordinator under
//     Merge, deferred to the batching commit spine under MergeBatched.
//
// Poisoning is flush-granular: a lane discovers a write failure when its
// segment flushes at a boundary, not per element as the sequential
// operator does, so under injected mid-transaction faults the Writes
// count may include same-transaction writes a sequential run would have
// skipped. Commits, Aborts and committed table contents are identical for
// every lane count (the sequential engine discards a poisoned
// transaction's buffered writes just the same).
//
// The returned stats object is live. As with chained sequential ToTable
// operators, maintaining several tables requires declaring them all on
// the transaction (stream.Transactions' tables parameter) so the LAST
// CommitState fires the global commit.
func (r *ParallelRegion) ToTable(p txn.Protocol, tbl *txn.Table) *ToTableStats {
	r.checkOpen("ToTable")
	stats := &ToTableStats{}
	name := "to_table/" + string(tbl.ID())
	r.t.note("table", name, fmt.Sprintf("protocol=%s lanes=%d (per-lane segments)", p.Name(), len(r.lanes)), func() string {
		return fmt.Sprintf("writes=%d commits=%d aborts=%d", stats.Writes.Load(), stats.Commits.Load(), stats.Aborts.Load())
	})
	sw, _ := p.(txn.SegmentWriter)
	ctl := &laneTableCtl{}
	for i := range r.lanes {
		seg := txn.NewSegment(batchCap)
		var cur *txn.Txn
		// flush merges the lane's segment into tx; eos marks the
		// end-of-stream flush, where ErrFinished is expected (the
		// Transactions operator aborts a dangling transaction when its
		// own input ends) and must not count as a new abort.
		flush := func(tx *txn.Txn, eos bool) {
			if seg.Len() == 0 {
				return
			}
			if tx == nil {
				seg.Reset()
				return
			}
			var (
				n   int
				err error
			)
			if sw != nil {
				n, err = sw.WriteSegment(tx, tbl, seg)
			} else {
				n, err = p.WriteBatch(tx, tbl, seg.Ops())
			}
			seg.Reset()
			stats.Writes.Add(int64(n))
			if err != nil && !(eos && err == txn.ErrFinished) {
				ctl.fail(r.t, name, stats, tx, err)
			}
		}
		r.lanes[i] = r.lanes[i].fuse(func(e Element, emit func(Element)) {
			switch e.Kind {
			case KindBOT:
				// A well-formed stream never has a pending segment here;
				// flush defensively so a malformed one cannot leak writes
				// across transactions.
				flush(cur, false)
				cur = e.Tx
			case KindData:
				if e.Tx != nil {
					cur = e.Tx
					if e.Tuple.Key != "" {
						if e.Tuple.Delete {
							seg.Delete(e.Tuple.Key)
						} else {
							seg.Put(e.Tuple.Key, e.Tuple.Value)
						}
					}
				}
			case KindCommit, KindRollback:
				if e.Tx != nil {
					cur = e.Tx
				}
				flush(cur, false)
				cur = nil
			}
			emit(e)
		}, func(emit func(Element)) {
			// Input ended mid-transaction: apply the dangling segment (the
			// sequential engine applies pending runs at batch boundaries
			// too); the transaction itself is rolled back upstream.
			flush(cur, true)
		})
	}
	reg := laneCommitReg{p: p, tbl: tbl, stats: stats, ctl: ctl}
	r.regs = append(r.regs, reg)
	r.actions = append(r.actions, func(e Element) {
		switch e.Kind {
		case KindCommit:
			if e.Tx == nil {
				return
			}
			if ctl.isPoisoned(e.Tx) {
				// Some lane already gave up on the transaction; make the
				// abort global (the abort itself was already counted).
				if err := p.Abort(e.Tx); err != nil && err != txn.ErrFinished {
					r.t.fail(name, err)
				}
				ctl.clear(e.Tx)
				return
			}
			if err := p.CommitState(e.Tx, tbl); err != nil {
				if txn.IsAbort(err) || err == txn.ErrFinished {
					stats.Aborts.Add(1)
				} else {
					r.t.fail(name, err)
				}
				return
			}
			stats.Commits.Add(1)
		case KindRollback:
			if e.Tx == nil {
				return
			}
			// Lane segments were flushed before the barrier (Writes counts
			// them, as in the sequential engine); Abort discards them.
			if err := p.Abort(e.Tx); err != nil && err != txn.ErrFinished {
				r.t.fail(name, err)
			}
			ctl.clear(e.Tx)
			stats.Aborts.Add(1)
		}
	})
	return stats
}

// laneBarrier is the punctuation barrier of a parallel region: a cyclic
// barrier over the region's lane collectors. Lanes forward data batches
// to the merged output as they arrive; at a punctuation each lane parks,
// and the LAST lane to arrive becomes the coordinator for that boundary —
// it runs the region's commit work (onPunct: the registered actions under
// Merge, a spine enqueue under MergeBatched), emits the punctuation into
// the merged stream exactly once, and releases the parked lanes.
type laneBarrier struct {
	n   int
	out *Stream

	mu      sync.Mutex
	arrived int
	resume  chan struct{}
	onPunct func(Element)
}

// sync is called by a lane collector holding a punctuation element. It
// returns when the boundary is fully acknowledged and its commit work is
// either done (Merge) or handed to the spine in boundary order
// (MergeBatched).
func (b *laneBarrier) sync(e Element) {
	b.mu.Lock()
	b.arrived++
	if b.arrived < b.n {
		ch := b.resume
		b.mu.Unlock()
		<-ch
		return
	}
	// Coordinator: every lane has acknowledged the boundary (and, per
	// ToTable's contract, flushed its segment before arriving here).
	b.arrived = 0
	if b.onPunct != nil {
		b.onPunct(e)
	}
	pb := getBatch()
	pb = append(pb, e)
	b.out.ch <- pb
	close(b.resume)
	b.resume = make(chan struct{})
	b.mu.Unlock()
}

// Merge closes the region: it re-serializes the lanes into one output
// stream whose punctuations appear exactly once, every data element of a
// transaction between that transaction's BOT and COMMIT/ROLLBACK, and
// per-key element order preserved (cross-key order within a transaction
// is arbitrary — lanes run concurrently). Merge must be called exactly
// once per region; the region's commit actions (ToTable) run at its
// barrier, synchronously — the transaction is globally committed before
// its COMMIT punctuation is emitted downstream.
func (r *ParallelRegion) Merge(name string) *Stream {
	actions := r.actions
	return r.close(name, func(e Element) {
		for _, act := range actions {
			act(e)
		}
	}, nil)
}

// MergeBatched closes the region like Merge but defers the commit work to
// the region's commit spine: the barrier coordinator hands each decided
// transaction to a spine worker and releases the lanes immediately, so
// the next transaction's data flows while the previous commits. The
// worker batches up to maxBatch consecutive lane-complete transactions
// into ONE group-commit submission (txn.ChainCommitter) — one leader
// tenure, one coalesced store batch and fsync, one LastCTS publish for
// the whole run; aborts (rollbacks, poisoned transactions) split the
// batch and never poison their neighbors. Pair it with a
// TransactionsWindow upstream (window ≈ maxBatch), or the serialized
// Transactions operator will never let a second transaction queue behind
// the first.
//
// The merged stream's framing is identical to Merge's — each punctuation
// exactly once, in order — but a COMMIT punctuation may be emitted
// downstream BEFORE its transaction is globally committed (durable and
// visible); the transaction's Done channel still closes only at the real
// commit. Every commit action of the region must come from ToTable, and
// all ToTable calls must share one protocol.
func (r *ParallelRegion) MergeBatched(name string, maxBatch int) *Stream {
	if maxBatch < 1 {
		panic("stream: MergeBatched needs maxBatch >= 1")
	}
	out, _ := r.mergeSpine(name, "MergeBatched", maxBatch, nil)
	return out
}

// MergeTuned closes the region like MergeBatched but makes the spine
// work-conserving: the worker never holds a decided transaction back for
// company — each batch is whatever boundaries queued while the previous
// batch was committing, at most the tuner's in-flight bound. Fan-in stays
// near 1 while the store keeps up and rises by itself as commits lag.
// Every clean commit run is timed and fed to the tuner's latency guard.
// Pair it with a TransactionsTuned upstream sharing the SAME tuner, which
// applies the same bound to the transactions in flight. All other
// MergeBatched contracts (framing, early COMMIT emission, ToTable/
// one-protocol requirements) apply unchanged.
func (r *ParallelRegion) MergeTuned(name string, tun *AutoTuner) *Stream {
	if tun == nil {
		panic("stream: MergeTuned needs a tuner")
	}
	out, _ := r.mergeSpine(name, "MergeTuned", tun.cfg.MaxWindow, tun)
	return out
}

// mergeSpine closes the region over a commit spine (tests inspect the
// returned spine once the topology has run).
func (r *ParallelRegion) mergeSpine(name, op string, maxBatch int, tun *AutoTuner) (*Stream, *commitSpine) {
	sp := newCommitSpine(r.t, name, r.spineRegs(op), maxBatch)
	sp.tun = tun
	return r.close(name, sp.enqueue, sp), sp
}

// spineRegs validates the region's commit actions for a batched close
// and returns the ToTable registrations the spine works off.
func (r *ParallelRegion) spineRegs(op string) []laneCommitReg {
	if len(r.regs) != len(r.actions) {
		panic("stream: " + op + " requires all region commit actions to come from ToTable")
	}
	for _, reg := range r.regs[1:] {
		if reg.p != r.regs[0].p {
			panic("stream: " + op + " requires all region ToTable calls to share one protocol")
		}
	}
	return r.regs
}

// close implements Merge/MergeBatched: lane collectors, the punctuation
// barrier with the given coordinator hook, and (for the batched variant)
// the spine worker whose queue is closed once every lane is done.
func (r *ParallelRegion) close(name string, onPunct func(Element), sp *commitSpine) *Stream {
	r.checkOpen("Merge")
	r.merged = true
	out := r.t.newStream()
	switch {
	case sp == nil:
		r.t.note("spine", name, fmt.Sprintf("merge barrier, lanes=%d (synchronous commit at barrier)", len(r.lanes)), occOf(out))
	case sp.tun != nil:
		occ := occOf(out)
		r.t.note("spine", name, fmt.Sprintf("commit spine, lanes=%d batch<=queued (work-conserving)", len(r.lanes)), func() string {
			return fmt.Sprintf("%s, inflight<=%d, queue %d/%d, mean fan-in %.2f",
				occ(), sp.tun.Window(), len(sp.q), cap(sp.q), sp.tun.meanFanIn())
		})
	default:
		occ := occOf(out)
		r.t.note("spine", name, fmt.Sprintf("commit spine, lanes=%d batch<=%d", len(r.lanes), sp.maxBatch), func() string {
			return fmt.Sprintf("%s, queue %d/%d", occ(), len(sp.q), cap(sp.q))
		})
	}
	b := &laneBarrier{n: len(r.lanes), out: out, resume: make(chan struct{}), onPunct: onPunct}
	var wg sync.WaitGroup
	wg.Add(len(r.lanes))
	for i, lane := range r.lanes {
		lane.consume(fmt.Sprintf("%s/lane%d", name, i), func(batch []Element) {
			start := 0
			for j := range batch {
				if batch[j].Kind == KindData {
					continue
				}
				if j > start {
					nb := getBatch()
					nb = append(nb, batch[start:j]...)
					out.ch <- nb
				}
				b.sync(batch[j])
				start = j + 1
			}
			if start == 0 {
				// Pure data batch (the common case): forward whole, no copy.
				out.ch <- batch
				return
			}
			if start < len(batch) {
				nb := getBatch()
				nb = append(nb, batch[start:]...)
				out.ch <- nb
			}
			putBatch(batch)
		}, wg.Done)
	}
	r.t.spawn(name+"/closer", func() {
		wg.Wait()
		close(out.ch)
		if sp != nil {
			close(sp.q)
		}
	})
	if sp != nil {
		r.t.spawn(name+"/spine", sp.run)
	}
	return out
}

// commitSpine is the deferred commit worker of a batched region barrier:
// the coordinator enqueues each decided transaction (with its punctuation
// kind) in boundary order and releases the lanes; the worker drains the
// queue, groups maximal runs of consecutive clean COMMIT entries up to
// maxBatch, and submits each run to the group-commit pipeline as ONE
// cross-transaction batch through txn.ChainCommitter. Rollbacks and
// poisoned transactions are handled singly, splitting the run exactly
// where they sit — an abort never delays or poisons its neighbors beyond
// that split. Protocols without ChainCommitter (e.g. test wrappers) fall
// back to per-transaction CommitState in the same order.
type commitSpine struct {
	t        *Topology
	name     string
	regs     []laneCommitReg
	tbls     []*txn.Table
	cc       txn.ChainCommitter
	maxBatch int
	// tun, when set (MergeTuned), makes the worker work-conserving: no
	// collection target and no linger, batches capped at the tuner's
	// in-flight bound, every clean commit run timed for its latency guard.
	tun *AutoTuner
	q   chan spineEntry
	// Worker-owned scratch, reused across batches: commitRun's chain
	// submission and the static path's linger timer (never armed under tun).
	txs    []*txn.Txn
	linger *time.Timer
	// groupFailed latches the first txn.ErrGroupFailed verdict (worker-
	// goroutine owned): a poisoned commit group is surfaced as exactly ONE
	// topology failure, and every later fail-fast verdict is accounted as
	// an abort — the spine drains the remaining boundaries deterministically
	// instead of wedging or flooding the error list (see account).
	groupFailed bool
}

// spineEntry is one decided transaction awaiting its commit work.
type spineEntry struct {
	kind Kind
	tx   *txn.Txn
}

func newCommitSpine(t *Topology, name string, regs []laneCommitReg, maxBatch int) *commitSpine {
	sp := &commitSpine{t: t, name: name, regs: regs, maxBatch: maxBatch}
	for _, reg := range regs {
		sp.tbls = append(sp.tbls, reg.tbl)
	}
	if len(regs) > 0 {
		sp.cc, _ = regs[0].p.(txn.ChainCommitter)
	}
	qcap := 2 * maxBatch
	if qcap < chanBuf {
		qcap = chanBuf
	}
	sp.q = make(chan spineEntry, qcap)
	return sp
}

// enqueue hands one boundary's commit work to the worker, in boundary
// order (called by the barrier coordinator; a full queue backpressures
// the barrier, which is safe — the worker never waits on the barrier).
func (sp *commitSpine) enqueue(e Element) {
	if e.Kind != KindCommit && e.Kind != KindRollback {
		return
	}
	if e.Tx == nil {
		return
	}
	sp.q <- spineEntry{kind: e.Kind, tx: e.Tx}
}

// spineLinger bounds how long the static spine collects further boundaries
// for one batch once cross-transaction pressure is established — the same
// fallback bound the group-commit leader uses for its own collection.
const spineLinger = 200 * time.Microsecond

// run drains the queue until it closes. Every batch ends by taking
// whatever is already queued, up to the ceiling; the two closes differ in
// whether the worker first holds out for more.
//
// MergeTuned never does: the boundaries that queued during the previous
// commit ARE the batch, so an idle store decides a lone transaction at
// once and a saturated one sees its fan-in grow by itself.
//
// MergeBatched mirrors the group-commit leader's adaptive policy: the
// previous batch's size estimates how many boundaries the pipeline
// produces per commit latency, and the worker collects up to that many
// (never beyond maxBatch), parking on the queue with a linger-bounded
// timer. A steady one-at-a-time stream (previous batch of one) never
// lingers; only once commits demonstrably lag boundary production does
// the spine start holding out for larger batches. Under a small fixed
// window that hold-out is what keeps the fsync amortized.
func (sp *commitSpine) run() {
	pend := make([]spineEntry, 0, sp.maxBatch)
	target := 1
	for {
		e, ok := <-sp.q
		if !ok {
			return
		}
		pend = append(pend[:0], e)
		ceil := sp.maxBatch
		closed := false
		if sp.tun != nil {
			ceil = sp.tun.Window()
		} else if target > 1 {
			if sp.linger == nil {
				sp.linger = time.NewTimer(spineLinger)
			} else {
				sp.linger.Reset(spineLinger)
			}
		collect:
			for len(pend) < target {
				select {
				case e2, ok := <-sp.q:
					if !ok {
						closed = true
						break collect
					}
					pend = append(pend, e2)
				case <-sp.linger.C:
					break collect
				}
			}
			// Stop and drain, so the next Reset starts from an empty channel.
			if !sp.linger.Stop() {
				select {
				case <-sp.linger.C:
				default:
				}
			}
		}
		// Take whatever else is already queued.
	drain:
		for !closed && len(pend) < ceil {
			select {
			case e2, ok := <-sp.q:
				if !ok {
					break drain
				}
				pend = append(pend, e2)
			default:
				break drain
			}
		}
		target = len(pend) // <= maxBatch: collect stops at the old target, drain at ceil
		sp.process(pend)
		if closed {
			// A closed receive means the queue is closed AND empty: every
			// boundary is in pend and has been processed.
			return
		}
	}
}

// process handles one drained slice of boundary entries in order.
func (sp *commitSpine) process(entries []spineEntry) {
	i := 0
	for i < len(entries) {
		e := entries[i]
		if e.kind == KindCommit && !sp.anyPoisoned(e.tx) {
			j := i
			for j < len(entries) && entries[j].kind == KindCommit && !sp.anyPoisoned(entries[j].tx) {
				j++
			}
			sp.commitRun(entries[i:j])
			i = j
			continue
		}
		sp.single(e)
		i++
	}
}

// anyPoisoned reports whether any lane write path gave up on tx. The
// poisoning state is final once the transaction's boundary passed the
// barrier (every lane flushed before acknowledging), so reading it at
// spine time is race-free.
func (sp *commitSpine) anyPoisoned(tx *txn.Txn) bool {
	for _, reg := range sp.regs {
		if reg.ctl.isPoisoned(tx) {
			return true
		}
	}
	return false
}

// commitRun commits a run of consecutive clean transactions — as one
// chain batch when the protocol supports it, per-transaction otherwise.
// Stats mirror the synchronous barrier actions exactly: per table, nil is
// a commit, an abort-family error an abort, anything else a topology
// failure.
func (sp *commitSpine) commitRun(run []spineEntry) {
	var start time.Time
	if sp.tun != nil {
		start = time.Now()
	}
	if sp.cc != nil && len(run) > 0 {
		sp.txs = sp.txs[:0]
		for i := range run {
			sp.txs = append(sp.txs, run[i].tx)
		}
		errsPerTx := sp.cc.CommitChain(sp.txs, sp.tbls)
		for i := range errsPerTx {
			for j, reg := range sp.regs {
				sp.account(reg, errsPerTx[i][j])
			}
		}
	} else {
		for _, e := range run {
			for _, reg := range sp.regs {
				sp.account(reg, reg.p.CommitState(e.tx, reg.tbl))
			}
		}
	}
	if sp.tun != nil {
		// Only clean runs are observations: rollbacks and poisoned commits
		// (handled by single) measure fault handling, not batching.
		sp.tun.observeBatch(len(run), time.Since(start))
	}
}

// account books one table's commit verdict into its stats. A broken
// commit group (fail-stop, txn.ErrGroupFailed) is deterministic pipeline
// poisoning: the first verdict fails the topology with the sticky cause,
// every subsequent one counts as an abort so the worker drains the
// remaining in-flight boundaries cleanly — no post-failure commit is
// ever acknowledged, and the barrier never wedges behind a spine that
// stopped consuming.
func (sp *commitSpine) account(reg laneCommitReg, err error) {
	switch {
	case err == nil:
		reg.stats.Commits.Add(1)
	case errors.Is(err, txn.ErrGroupFailed):
		reg.stats.Aborts.Add(1)
		if !sp.groupFailed {
			sp.groupFailed = true
			sp.t.fail(sp.name, err)
		}
	case txn.IsAbort(err) || err == txn.ErrFinished:
		reg.stats.Aborts.Add(1)
	default:
		sp.t.fail(sp.name, err)
	}
}

// single handles a rollback or a poisoned commit — the batch splitters —
// with exactly the synchronous actions' semantics.
func (sp *commitSpine) single(e spineEntry) {
	switch e.kind {
	case KindCommit:
		for _, reg := range sp.regs {
			if reg.ctl.isPoisoned(e.tx) {
				// The abort was already counted at poisoning time.
				if err := reg.p.Abort(e.tx); err != nil && err != txn.ErrFinished {
					sp.t.fail(sp.name, err)
				}
				reg.ctl.clear(e.tx)
				continue
			}
			sp.account(reg, reg.p.CommitState(e.tx, reg.tbl))
		}
	case KindRollback:
		for _, reg := range sp.regs {
			if err := reg.p.Abort(e.tx); err != nil && err != txn.ErrFinished {
				sp.t.fail(sp.name, err)
			}
			reg.ctl.clear(e.tx)
			reg.stats.Aborts.Add(1)
		}
	}
}
