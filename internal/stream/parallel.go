package stream

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sistream/internal/txn"
)

// Parallel keyed regions: the multiplier after vectorization. A single
// continuous query's dataflow spine — one fused operator chain, TO_TABLE
// included, run by one goroutine — is inherently single-writer;
// Parallelize splits it into P independent lanes by hashing each tuple's
// key, so the per-element work (operator stages, write-set building,
// value copies) runs on P cores, while the transaction model of the paper
// is preserved exactly:
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
//     commit coordinator and has the region's table sinks decide the
//     transaction (tableSink.decide — the single CommitChain/Abort) only
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
// The token holds one key-string hash: ingest-side tuples route by it over
// Tuple.Key, feed-side row keys partition by it directly, so the two sides
// agree on placement by construction. Build it with NewKeyFn.
type KeyFn struct {
	key func(string) uint64
}

// NewKeyFn builds a routing token from one key-string hash, usable on
// both the ingest side (tuples route by Tuple.Key) and the feed side —
// the construction that makes same-token fusion across the table seam
// sound by definition.
func NewKeyFn(key func(string) uint64) *KeyFn { return &KeyFn{key: key} }

// tupleFn resolves the ingest-side routing function (a nil token selects
// the default lane hash).
func (k *KeyFn) tupleFn() func(Tuple) uint64 {
	if k == nil {
		return laneKey
	}
	kf := k.key
	return func(t Tuple) uint64 { return kf(t.Key) }
}

// keyHash resolves the feed-side partitioning function (nil token selects
// txn.DefaultKeyHash downstream).
func (k *KeyFn) keyHash() func(string) uint64 {
	if k == nil {
		return nil
	}
	return k.key
}

// ParallelRegion is a parallel section of a topology: P keyed lanes
// between a Parallelize router and a Merge barrier. Build the per-lane
// pipeline with Apply and ToTable, then close the region with Merge or
// MergeBatched — or hand the lanes to a downstream region with
// Reparallelize. A region whose lanes are never merged does not run.
type ParallelRegion struct {
	t     *Topology
	lanes []*Stream
	// sinks are the region's ToTable operators, in registration order. The
	// closing barrier has them decide every transaction once all lanes
	// have flushed their writes and parked: on the coordinator (the last
	// lane to reach the punctuation) under Merge, on the commit spine's
	// worker under MergeBatched and MergeTuned.
	sinks []*tableSink
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
// spawned. p < 1 is a construction error that Run returns; the region
// then has one lane.
func (s *Stream) Parallelize(p int, keyFn *KeyFn) *ParallelRegion {
	if p < 1 {
		s.t.fail("parallelize", fmt.Errorf("Parallelize needs p >= 1, got %d", p))
		p = 1
	}
	r := &ParallelRegion{t: s.t, key: keyFn}
	keyDesc := "default"
	if keyFn != nil {
		keyDesc = "custom"
	}
	if p == 1 {
		r.lanes = []*Stream{s}
		s.t.note("region", "parallelize", "lanes=1 (identity, no router)")
		return r
	}
	route := keyFn.tupleFn()
	r.lanes = make([]*Stream, p)
	for i := range r.lanes {
		r.lanes[i] = s.t.newStream()
	}
	s.t.note("region", "parallelize", fmt.Sprintf("lanes=%d key=%s (hash-routed, punctuations broadcast)", p, keyDesc))
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
// must return a stream of the same topology; any other result is a
// construction error that Run returns, and the lane is left as it was.
func (r *ParallelRegion) Apply(fn func(lane int, s *Stream) *Stream) *ParallelRegion {
	if !r.checkOpen("Apply") {
		return r
	}
	for i, l := range r.lanes {
		nl := fn(i, l)
		if nl == nil || nl.t != r.t {
			r.t.fail("apply", fmt.Errorf("ParallelRegion.Apply must return a stream of the same topology (lane %d)", i))
			nl = l
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
// Merge or MergeBatched. p < 1 is a construction error that Run returns;
// the region then re-partitions into one lane.
func (r *ParallelRegion) Reparallelize(name string, p int, keyFn *KeyFn) *ParallelRegion {
	if !r.checkOpen("Reparallelize") {
		return &ParallelRegion{t: r.t, lanes: []*Stream{r.t.empty(name)}, key: keyFn}
	}
	if p < 1 {
		r.t.fail(name, fmt.Errorf("Reparallelize needs p >= 1, got %d", p))
		p = 1
	}
	if p == len(r.lanes) && (p == 1 || keyFn == r.key) {
		r.merged = true
		r.t.note("region", name, fmt.Sprintf("fused lane-for-lane (lanes=%d, matching partitioning — no merge, no re-route)", p))
		return &ParallelRegion{
			t:     r.t,
			lanes: r.lanes,
			sinks: r.sinks,
			key:   r.key,
		}
	}
	r.t.note("region", name, "reroute (partitioning mismatch: merge + re-hash)")
	return r.Merge(name).Parallelize(p, keyFn)
}

// checkOpen reports whether the region is still open; an operator added
// to a merged region is a construction error that Run returns.
func (r *ParallelRegion) checkOpen(op string) bool {
	if r.merged {
		r.t.fail(op, fmt.Errorf("ParallelRegion.%s after Merge", op))
	}
	return !r.merged
}

// ToTable adds a TO_TABLE to the region, maintaining tbl inside the
// transaction attached to the elements — Stream.ToTable's table sink with
// one writer per lane and the verdict moved to the closing barrier:
//
//   - Each lane buffers its data tuples into a private txn.Segment (value
//     copies happen lane-locally, in parallel, with no shared latch).
//   - At every punctuation the lane flushes its segment into the shared
//     transaction (Protocol.WriteSegment: ownership transfer, one latch
//     acquisition, with S2PL acquiring its exclusive locks lane-side)
//     BEFORE acknowledging the barrier, so a transaction is never decided
//     with lane writes still buffered.
//   - The decision itself (CommitChain on COMMIT, Abort on ROLLBACK,
//     global abort of poisoned transactions — tableSink.decide) runs once
//     per transaction, at the region's closing barrier: synchronously on
//     the coordinator under Merge, deferred to the batching commit spine
//     under MergeBatched and MergeTuned.
//
// Poisoning is flush-granular: a lane discovers a write failure when its
// segment flushes at a boundary, not at the end of each input batch as
// the sequential operator does, so under injected mid-transaction faults
// the Writes count may include same-transaction writes a sequential run
// would have skipped. Commits, Aborts and committed table contents are
// identical for every lane count (the sequential engine discards a
// poisoned transaction's buffered writes just the same).
//
// The returned stats object is live. As with chained sequential ToTable
// operators, maintaining several tables requires declaring them all on
// the transaction (stream.Transactions' tables parameter) so the LAST
// state's commit flag fires the global commit.
func (r *ParallelRegion) ToTable(p txn.Protocol, tbl *txn.Table) *ToTableStats {
	if !r.checkOpen("ToTable") {
		return &ToTableStats{}
	}
	sink := newTableSink(r.t, p, tbl, fmt.Sprintf("%d (per-lane segments)", len(r.lanes)))
	for i := range r.lanes {
		r.lanes[i] = sink.stage(r.lanes[i], false)
	}
	r.sinks = append(r.sinks, sink)
	return sink.stats
}

// laneBarrier is the punctuation barrier of a parallel region: a cyclic
// barrier over the region's lane collectors. Lanes forward data batches
// to the merged output as they arrive; at a punctuation each lane parks,
// and the LAST lane to arrive becomes the coordinator for that boundary —
// it runs the region's commit work (onPunct: the sinks' verdict under
// Merge, a spine enqueue under MergeBatched), emits the punctuation into
// the merged stream exactly once, and releases the parked lanes. Parked
// lanes wait on released for gen — the number of boundaries released so
// far — to move past the value it had when they arrived.
type laneBarrier struct {
	n   int
	out *Stream

	mu       sync.Mutex
	released sync.Cond // over mu
	arrived  int
	gen      uint64
	onPunct  func(Element)
}

func newLaneBarrier(n int, out *Stream, onPunct func(Element)) *laneBarrier {
	b := &laneBarrier{n: n, out: out, onPunct: onPunct}
	b.released.L = &b.mu
	return b
}

// sync is called by a lane collector holding a punctuation element. It
// returns when the boundary is fully acknowledged and its commit work is
// either done (Merge) or handed to the spine in boundary order
// (MergeBatched).
func (b *laneBarrier) sync(e Element) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.arrived++
	if b.arrived < b.n {
		for gen := b.gen; b.gen == gen; {
			b.released.Wait()
		}
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
	b.gen++
	b.released.Broadcast()
}

// Merge closes the region: it re-serializes the lanes into one output
// stream whose punctuations appear exactly once, every data element of a
// transaction between that transaction's BOT and COMMIT/ROLLBACK, and
// per-key element order preserved (cross-key order within a transaction
// is arbitrary — lanes run concurrently). Merge must be called exactly
// once per region; the region's table sinks (ToTable) decide at its
// barrier, synchronously, on the coordinator — the transaction is
// globally committed before its COMMIT punctuation is emitted downstream.
func (r *ParallelRegion) Merge(name string) *Stream {
	sinks := r.sinks
	one := make([]*txn.Txn, 1) // coordinator-owned, under the barrier's mutex
	return r.close(name, func(e Element) {
		if !endsTxn(&e) {
			return
		}
		one[0] = e.Tx
		for _, sink := range sinks {
			sink.decide(e.Kind, one)
		}
	}, nil)
}

// MergeBatched closes the region like Merge but defers the commit work to
// the region's commit spine: the barrier coordinator hands each decided
// transaction to a spine worker and releases the lanes immediately, so
// the next transaction's data flows while the previous commits. The
// worker batches up to maxBatch consecutive lane-complete transactions
// into ONE group-commit submission (Protocol.CommitChain) — one leader
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
// commit. All ToTable calls of the region must share one protocol.
// maxBatch < 1 is a construction error that Run returns.
func (r *ParallelRegion) MergeBatched(name string, maxBatch int) *Stream {
	if maxBatch < 1 {
		r.t.fail(name, fmt.Errorf("MergeBatched needs maxBatch >= 1, got %d", maxBatch))
		maxBatch = 1
	}
	out, _ := r.mergeSpine(name, "MergeBatched", maxBatch, true)
	return out
}

// MergeTuned closes the region like MergeBatched but makes the spine
// work-conserving: the worker never holds a decided transaction back for
// company — each batch is whatever boundaries queued while the previous
// batch was committing, at most the tuner's in-flight bound. Fan-in stays
// near 1 while the store keeps up and rises by itself as commits lag.
// Pair it with a TransactionsTuned upstream sharing the SAME tuner, which
// applies the same bound to the transactions in flight. All other
// MergeBatched contracts (framing, early COMMIT emission, ToTable/
// one-protocol requirements) apply unchanged. A nil tuner is a
// construction error that Run returns.
func (r *ParallelRegion) MergeTuned(name string, tun *AutoTuner) *Stream {
	window := 1
	if tun == nil {
		r.t.fail(name, errors.New("MergeTuned needs a tuner"))
	} else {
		window = tun.window
	}
	out, _ := r.mergeSpine(name, "MergeTuned", window, false)
	return out
}

// mergeSpine closes the region over a commit spine whose batches carry at
// most maxBatch transactions; holdOut selects MergeBatched's collection
// policy over MergeTuned's work-conserving one (tests inspect the returned
// spine once the topology has run).
func (r *ParallelRegion) mergeSpine(name, op string, maxBatch int, holdOut bool) (*Stream, *commitSpine) {
	sp := newCommitSpine(r.spineSinks(name, op), maxBatch)
	sp.holdOut = holdOut
	return r.close(name, sp.enqueue, sp), sp
}

// spineSinks validates the region's table sinks for a batched close: one
// chain of transactions is committed through one protocol. Sinks of two
// protocols are a construction error that Run returns.
func (r *ParallelRegion) spineSinks(name, op string) []*tableSink {
	for _, sink := range r.sinks {
		if sink.p != r.sinks[0].p {
			r.t.fail(name, fmt.Errorf("%s requires all region ToTable calls to share one protocol", op))
			break
		}
	}
	return r.sinks
}

// close implements Merge/MergeBatched: lane collectors, the punctuation
// barrier with the given coordinator hook, and (for the batched variant)
// the spine worker whose queue is closed once every lane is done.
func (r *ParallelRegion) close(name string, onPunct func(Element), sp *commitSpine) *Stream {
	if !r.checkOpen("Merge") {
		return r.t.empty(name)
	}
	r.merged = true
	out := r.t.newStream()
	if sp == nil {
		r.t.note("spine", name, fmt.Sprintf("merge barrier, lanes=%d (synchronous commit at barrier)", len(r.lanes)))
	} else {
		desc := fmt.Sprintf("commit spine, lanes=%d batch<=%d", len(r.lanes), sp.maxBatch)
		if !sp.holdOut {
			desc = fmt.Sprintf("commit spine, lanes=%d batch<=queued, inflight<=%d (work-conserving)", len(r.lanes), sp.maxBatch)
		}
		r.t.note("spine", name, desc)
	}
	b := newLaneBarrier(len(r.lanes), out, onPunct)
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
// queue and hands each run of consecutive COMMIT (or ROLLBACK) boundaries
// to the region's table sinks in one decide call, so a run of clean
// COMMITs reaches the group-commit pipeline as ONE cross-transaction
// batch (Protocol.CommitChain). Rollbacks and poisoned transactions split
// the run exactly where they sit (tableSink.decide) — an abort never
// delays or poisons its neighbors beyond that split.
type commitSpine struct {
	sinks    []*tableSink
	maxBatch int
	// holdOut (MergeBatched) makes the worker collect toward the previous
	// batch's size under a linger timer; without it (MergeTuned) the
	// worker is work-conserving: no collection target and no linger.
	holdOut bool
	q       chan spineEntry
	// Worker-owned scratch, reused across batches: process's run of
	// transactions and the hold-out path's linger timer.
	txs    []*txn.Txn
	linger *time.Timer
}

// spineEntry is one decided transaction awaiting its commit work.
type spineEntry struct {
	kind Kind
	tx   *txn.Txn
}

func newCommitSpine(sinks []*tableSink, maxBatch int) *commitSpine {
	sp := &commitSpine{sinks: sinks, maxBatch: maxBatch}
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
	if endsTxn(&e) {
		sp.q <- spineEntry{kind: e.Kind, tx: e.Tx}
	}
}

// spineLinger bounds how long the static spine collects further boundaries
// for one batch once cross-transaction pressure is established — the same
// fallback bound the group-commit leader uses for its own collection.
const spineLinger = 200 * time.Microsecond

// run drains the queue until it closes. Every batch ends by taking
// whatever is already queued, up to maxBatch; the two closes differ in
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
		closed := false
		if sp.holdOut && target > 1 {
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
		for !closed && len(pend) < sp.maxBatch {
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
		target = len(pend) // <= maxBatch: collect stops at the old target, drain at maxBatch
		sp.process(pend)
		if closed {
			// A closed receive means the queue is closed AND empty: every
			// boundary is in pend and has been processed.
			return
		}
	}
}

// process handles one drained slice of boundary entries in order: each
// maximal run of one punctuation kind is decided by every sink in turn.
// A sink's chain flags its table on the whole run; the sink whose flag
// completes the transactions' flag sets (the last one, when every table
// is declared) submits them to the pipeline as one batch.
func (sp *commitSpine) process(entries []spineEntry) {
	for len(entries) > 0 {
		kind := entries[0].kind
		sp.txs = sp.txs[:0]
		for len(entries) > 0 && entries[0].kind == kind {
			sp.txs = append(sp.txs, entries[0].tx)
			entries = entries[1:]
		}
		for _, sink := range sp.sinks {
			sink.decide(kind, sp.txs)
		}
	}
}
