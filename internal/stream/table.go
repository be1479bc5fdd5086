package stream

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sistream/internal/txn"
)

// ToTableStats counts the outcomes of a ToTable operator.
type ToTableStats struct {
	// Writes is the number of applied tuple writes (including deletes).
	Writes atomic.Int64
	// Commits counts the transactions whose commit succeeded.
	Commits atomic.Int64
	// Aborts counts transactions lost to conflicts or explicit rollback.
	Aborts atomic.Int64
}

// endsTxn reports whether e is the final punctuation of an attached
// transaction — the boundaries a table sink decides.
func endsTxn(e *Element) bool {
	return (e.Kind == KindCommit || e.Kind == KindRollback) && e.Tx != nil
}

// tableSink is one TO_TABLE linking operator — what a ToTable call
// creates, on a stream or on every lane of a parallel region. It owns the
// two things the operator does, each in exactly one place: the write path
// (sinkWriter, one per lane — the sequential operator is the one-writer
// case) and the verdict that turns a COMMIT/ROLLBACK punctuation into
// CommitChain/Abort (decide). Where decide runs is all that differs
// between the closes: inline on the sequential operator, on the barrier
// coordinator under Merge, on the spine worker under MergeBatched and
// MergeTuned.
type tableSink struct {
	t     *Topology
	name  string
	p     txn.Protocol
	tbl   *txn.Table
	tbls  []*txn.Table // {tbl}, CommitChain's table list
	stats *ToTableStats

	// poisoned holds the transactions some writer gave up on and whose
	// final punctuation has not been decided yet. Poisoning is keyed to
	// the transaction handle — NOT a flag reset at BOT — because a lane's
	// stream can deliver a whole [BOT .. COMMIT BOT ..] run in one batch,
	// whose fused-stage flushes all execute before the barrier decides the
	// first COMMIT; and a commit spine defers the decisions further, so
	// several transactions may be poisoned at once.
	mu       sync.Mutex
	poisoned map[*txn.Txn]bool

	// groupFailed latches the first txn.ErrGroupFailed verdict. Only
	// decide touches it, and decide runs on one goroutine at a time.
	groupFailed bool
}

func newTableSink(t *Topology, p txn.Protocol, tbl *txn.Table, lanes string) *tableSink {
	s := &tableSink{
		t: t, name: "to_table/" + string(tbl.ID()),
		p: p, tbl: tbl, tbls: []*txn.Table{tbl}, stats: &ToTableStats{},
	}
	t.note("table", s.name, "protocol="+p.Name()+" lanes="+lanes, func() string {
		return fmt.Sprintf("writes=%d commits=%d aborts=%d", s.stats.Writes.Load(), s.stats.Commits.Load(), s.stats.Aborts.Load())
	})
	return s
}

// poison records that a writer's flush of tx failed. Only the FIRST
// failure of a transaction counts: one abort for the abort family (a
// First-Committer-Wins loss, or ErrFinished because another lane's
// failure already aborted the transaction), a topology failure otherwise.
// decide turns the poisoned transaction's COMMIT into a global abort.
func (s *tableSink) poison(tx *txn.Txn, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.poisoned[tx] {
		return
	}
	if s.poisoned == nil {
		s.poisoned = make(map[*txn.Txn]bool)
	}
	s.poisoned[tx] = true
	if txn.IsAbort(err) || err == txn.ErrFinished {
		s.stats.Aborts.Add(1)
	} else {
		s.t.fail(s.name, err)
	}
}

// takePoison reports whether tx is poisoned and forgets it: the caller is
// deciding the transaction's final punctuation, after which the handle is
// never seen again.
func (s *tableSink) takePoison(tx *txn.Txn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.poisoned[tx] {
		return false
	}
	delete(s.poisoned, tx)
	return true
}

// decide is the TO_TABLE verdict, the one place a transaction's final
// punctuation becomes CommitChain or Abort. txs are the
// transactions of consecutive boundaries of one kind, in boundary order —
// one for the sequential operator and the Merge coordinator, a batch for
// the spine worker. Every writer has flushed a transaction's writes before
// its boundary reaches decide.
//
// Clean COMMITs go to the protocol as one chain per maximal run, so an
// abort splits a batch exactly where it sits and never delays or poisons
// its neighbors. A poisoned COMMIT — some writer already gave up on the
// transaction, and counted it — is made a global abort. ROLLBACK aborts
// and counts one abort unless a writer's poisoning abort already counted
// the transaction, so each transaction counts at most one abort per
// ToTable wherever the batches are cut.
func (s *tableSink) decide(kind Kind, txs []*txn.Txn) {
	for len(txs) > 0 {
		n := 0
		for kind == KindCommit && n < len(txs) && !s.takePoison(txs[n]) {
			n++
		}
		if n > 0 {
			for _, verdict := range s.p.CommitChain(txs[:n], s.tbls) {
				s.count(verdict[0])
			}
		}
		if txs = txs[n:]; len(txs) == 0 {
			return
		}
		if err := s.p.Abort(txs[0]); err != nil && err != txn.ErrFinished {
			s.t.fail(s.name, err)
		}
		if kind == KindRollback && !s.takePoison(txs[0]) {
			s.stats.Aborts.Add(1)
		}
		txs = txs[1:]
	}
}

// count books one commit verdict: nil is a commit; the abort family (and
// ErrFinished — another state's operator already decided the transaction)
// is an abort; txn.ErrGroupFailed — the commit group is poisoned,
// fail-stop — fails the topology ONCE with the sticky cause and is an
// abort from then on, so the remaining boundaries drain deterministically
// and no post-failure commit is ever acknowledged; anything else fails
// the topology.
func (s *tableSink) count(err error) {
	switch {
	case err == nil:
		s.stats.Commits.Add(1)
	case errors.Is(err, txn.ErrGroupFailed):
		s.stats.Aborts.Add(1)
		if !s.groupFailed {
			s.groupFailed = true
			s.t.fail(s.name, err)
		}
	case txn.IsAbort(err) || err == txn.ErrFinished:
		s.stats.Aborts.Add(1)
	default:
		s.t.fail(s.name, err)
	}
}

// sinkWriter is one lane's write path into a tableSink: consecutive data
// tuples of one transaction form a run, buffered into a private
// txn.Segment (the value copy happens here, lane-locally, with no shared
// latch) and merged into the shared transaction by ONE
// Protocol.WriteSegment call — one state-entry resolution, one snapshot
// pin and one transaction-latch acquisition per run instead of per tuple.
type sinkWriter struct {
	sink *tableSink
	seg  *txn.Segment
	// tx is the transaction of the buffered run; dead the one whose flush
	// this writer saw fail — its remaining tuples are skipped (and not
	// counted into Writes), up to the next transaction.
	tx, dead *txn.Txn
}

func (s *tableSink) writer() *sinkWriter {
	return &sinkWriter{sink: s, seg: txn.NewSegment(batchCap)}
}

// step advances the writer by one element of its lane: data tuples with a
// transaction attached and a key join the run (inserted/updated when
// Tuple.Delete is false, deleted otherwise), every punctuation cuts it —
// a transaction's writes are in its write set before its COMMIT or
// ROLLBACK is decided. A well-formed stream never has a pending run at
// BOT; flushing there keeps a malformed one from crossing transactions.
func (w *sinkWriter) step(e *Element) {
	if e.Kind != KindData {
		w.flush(false)
		return
	}
	if e.Tx == nil || e.Tx == w.dead || e.Tuple.Key == "" {
		return
	}
	w.tx = e.Tx
	if e.Tuple.Delete {
		w.seg.Delete(e.Tuple.Key)
	} else {
		w.seg.Put(e.Tuple.Key, e.Tuple.Value)
	}
}

// flush applies the pending run — the only place a TO_TABLE touches a
// write set. Every applied write counts into Writes; the first failing
// flush of a transaction poisons it. eos marks the end-of-stream flush,
// where ErrFinished is expected (the Transactions operator aborts a
// dangling transaction when its own input ends) and is no new abort.
func (w *sinkWriter) flush(eos bool) {
	if w.seg.Len() == 0 {
		return
	}
	n, err := w.sink.p.WriteSegment(w.tx, w.sink.tbl, w.seg)
	w.seg.Reset()
	w.sink.stats.Writes.Add(int64(n))
	if err != nil && !(eos && err == txn.ErrFinished) {
		w.dead = w.tx
		w.sink.poison(w.tx, err)
	}
}

// stage derives s through one writer of the sink, a fused stage: every
// element of a batch steps the writer and stays where it is, and the
// end-of-stream flush applies a dangling run (the transaction itself is
// rolled back upstream). The sequential operator (inline) also decides
// each transaction's final punctuation as it passes and applies the
// pending run at the end of every batch it runs over; a region lane cuts
// runs only at punctuations and leaves the verdict to its closing barrier.
func (sink *tableSink) stage(s *Stream, inline bool) *Stream {
	w := sink.writer()
	one := make([]*txn.Txn, 1)
	return s.fuse(fusedStage{run: func(b []Element) []Element {
		for i := range b {
			e := &b[i]
			w.step(e)
			if inline && endsTxn(e) {
				one[0] = e.Tx
				sink.decide(e.Kind, one)
			}
		}
		if inline {
			w.flush(false)
		}
		return b
	}, flush: func(out []Element) []Element {
		w.flush(true)
		return out
	}})
}

// ToTable is the paper's TO_TABLE linking operator: it applies data
// tuples to tbl inside the transaction attached to the elements
// (inserted/updated when Tuple.Delete is false, deleted otherwise) and
// drives the consistency protocol on punctuations — tbl's commit flag
// (a CommitChain of one) on COMMIT, Abort on ROLLBACK. Elements pass
// through so further ToTable operators can maintain additional states
// within the same transaction.
//
// It is the one-writer case of the table sink ParallelRegion.ToTable
// runs per lane (see tableSink), and like Transactions a fused stage: it
// runs in whichever operator consumes the returned stream, with the
// verdict decided inline as the punctuation passes. Runs are additionally
// cut at the end of every batch the stage runs over (a whole input batch,
// or the prefix a hosted cut hands on), so writes are always applied
// before their elements leave the chain — a TableJoin or second ToTable
// under the same transaction reads them. The operator writes whether or
// not the returned stream is used: Start discards it when nothing
// consumes it.
//
// A conflict abort from the protocol (e.g. First-Committer-Wins) poisons
// the transaction: its remaining writes are skipped, its COMMIT becomes a
// global abort, and it counts once into stats.Aborts. The returned stats
// object is live.
func (s *Stream) ToTable(p txn.Protocol, tbl *txn.Table) (*Stream, *ToTableStats) {
	sink := newTableSink(s.t, p, tbl, "1 (sequential, fused)")
	out := sink.stage(s, true)
	s.t.mustDrain(out)
	return out, sink.stats
}

// ToStream is the paper's TO_STREAM linking operator with the per-commit
// trigger policy: the one-partition case of FromTablePartitioned, merged.
// Every commit that wrote tbl appears as a BOT punctuation, one data
// element per changed row, and a COMMIT punctuation, in commit order;
// all three carry the commit timestamp in Tuple.Ts (see
// FromTablePartitioned for the row shape and the backpressure rule).
// stop ends the feed: a commit whose Commit returned before stop is still
// delivered, then the stream closes.
func ToStream(t *Topology, tbl *txn.Table, p txn.Protocol) (*Stream, func()) {
	r, stop := FromTablePartitioned(t, tbl, 1, nil)
	return r.Merge("to_stream/" + string(tbl.ID())), stop
}

// changeTuple shapes one committed row change as a feed tuple: Key is the
// row key, Ts the commit timestamp, Delete set when the change removed
// the row, Value otherwise the committed value itself, shared read-only
// (Num set when the whole value is a decimal literal, see
// FromTablePartitioned).
func changeTuple(op txn.WriteOp, cts txn.Timestamp) Tuple {
	if op.Delete {
		return Tuple{Key: op.Key, Ts: int64(cts), Delete: true}
	}
	return Tuple{Key: op.Key, Value: op.Value, Num: feedNum(op.Value), Ts: int64(cts)}
}

// feedNum is a feed tuple's Num: v read by strconv.ParseFloat when the
// whole value is a literal it accepts, 0 otherwise. Only a value whose
// first byte can start such a literal, and whose every byte can appear
// in one, is parsed — a failed parse allocates its error, and most feed
// values are binary.
func feedNum(v []byte) float64 {
	if len(v) == 0 || strings.IndexByte("0123456789+-.iInN", v[0]) < 0 {
		return 0
	}
	for _, c := range v {
		if !floatByte[c] {
			return 0
		}
	}
	n, err := strconv.ParseFloat(string(v), 64)
	if err != nil {
		return 0
	}
	return n
}

// floatByte marks the bytes a literal strconv.ParseFloat accepts can
// hold: decimal and hex digits, signs, the point, underscores, the base
// and exponent letters, and the letters of "inf", "infinity" and "nan".
var floatByte = func() (set [256]bool) {
	for _, c := range []byte("0123456789abcdefABCDEF+-._xXpPiInNtTyY") {
		set[c] = true
	}
	return set
}()

// FromSnapshot is the analytical FROM(table) source: it scans tbl at the
// given pinned snapshot with `lanes` concurrent stripe scanners (see
// txn.Snapshot.ScanStripe) and emits one data element per visible row —
// Key the row key, Value the row's committed value at the snapshot, Ts
// the snapshot's commit timestamp. With lanes > 1 the per-lane streams
// are merged, so cross-key emission order is arbitrary; every visible
// row is emitted exactly once. The caller owns the snapshot: Release it
// after the topology ran (the scan holds its GC pin for the duration).
func FromSnapshot(t *Topology, snap *txn.Snapshot, tbl *txn.Table, lanes int) *Stream {
	if lanes < 1 {
		lanes = 1
	}
	name := "scan/" + string(tbl.ID())
	mk := func(lane int) *Stream {
		return t.Source(fmt.Sprintf("%s/stripe%d", name, lane), func(emit func(Element)) error {
			return snap.ScanStripe(tbl, lane, lanes, func(key string, value []byte) bool {
				emit(Element{Kind: KindData, Tuple: Tuple{Key: key, Value: value, Ts: int64(snap.CTS())}})
				return true
			})
		})
	}
	t.note("source", name, fmt.Sprintf("snapshot scan, cts=%d lanes=%d", snap.CTS(), lanes), nil)
	if lanes == 1 {
		return mk(0)
	}
	parts := make([]*Stream, lanes)
	for i := range parts {
		parts[i] = mk(i)
	}
	return Merge(name+"/merge", parts[0], parts[1:]...)
}

// KV is one row of a snapshot query result.
type KV struct {
	Key   string
	Value []byte
}

// TableSnapshot is the paper's ad-hoc FROM(table) operator: it
// materializes every visible row of tbl under one consistent snapshot
// (txn.Snapshot over p's context). The read is wait-free under all three
// protocols — a lock-free version-store scan at the pinned commit
// timestamp that records no read set and never aborts.
func TableSnapshot(p txn.Protocol, tbl *txn.Table) ([]KV, error) {
	snap, err := p.Context().Snapshot(tbl)
	if err != nil {
		return nil, err
	}
	defer snap.Release()
	var rows []KV
	err = snap.Scan(tbl, func(key string, value []byte) bool {
		rows = append(rows, KV{Key: key, Value: append([]byte(nil), value...)})
		return true
	})
	return rows, err
}

// QueryKeys reads the given keys of one or more tables under a single
// consistent snapshot (txn.Snapshot over p's context, pinned across every
// table addressed) — the ad-hoc query shape of the paper's benchmark (N
// point reads per query). Results align with reads; a nil value means the
// key was not visible. Like TableSnapshot the reads are wait-free under
// all three protocols and never abort.
func QueryKeys(p txn.Protocol, reads []TableKey) ([][]byte, error) {
	out := make([][]byte, len(reads))
	if len(reads) == 0 {
		return out, nil
	}
	tables := make([]*txn.Table, len(reads))
	for i, r := range reads {
		tables[i] = r.Table
	}
	snap, err := p.Context().Snapshot(tables...)
	if err != nil {
		return nil, err
	}
	defer snap.Release()
	for i, r := range reads {
		v, ok, err := snap.Get(r.Table, r.Key)
		if err != nil {
			return nil, err
		}
		if ok {
			out[i] = v
		}
	}
	return out, nil
}

// TableKey addresses one read of QueryKeys.
type TableKey struct {
	Table *txn.Table
	Key   string
}
