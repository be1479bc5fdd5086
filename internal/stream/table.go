package stream

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"sistream/internal/txn"
)

// ToTableStats counts the outcomes of a ToTable operator.
type ToTableStats struct {
	// Writes is the number of applied tuple writes (including deletes).
	Writes atomic.Int64
	// Commits counts CommitState calls that succeeded.
	Commits atomic.Int64
	// Aborts counts transactions lost to conflicts or explicit rollback.
	Aborts atomic.Int64
}

// ToTable is the paper's TO_TABLE linking operator: it applies data
// tuples to tbl inside the transaction attached to the elements
// (inserted/updated when Tuple.Delete is false, deleted otherwise) and
// drives the consistency protocol on punctuations — CommitState on
// COMMIT, Abort on ROLLBACK. Elements pass through so further ToTable
// operators can maintain additional states within the same transaction.
//
// The operator is vectorized: consecutive data tuples of one transaction
// form a run that is applied with a single Protocol.WriteBatch call —
// one state-entry resolution, one snapshot pin and one transaction-latch
// acquisition per run instead of per tuple. Runs are cut at punctuations
// and at batch boundaries (so writes are always applied before their
// elements are forwarded downstream, exactly as in the per-element
// engine).
//
// A conflict abort from the protocol (e.g. First-Committer-Wins) poisons
// the rest of the batch: remaining writes up to the next BOT are skipped
// and counted into stats.Aborts. The returned stats object is live.
func (s *Stream) ToTable(p txn.Protocol, tbl *txn.Table) (*Stream, *ToTableStats) {
	out := s.t.newStream()
	stats := &ToTableStats{}
	name := "to_table/" + string(tbl.ID())
	s.t.note("table", name, "protocol="+p.Name()+" lanes=1 (sequential, vectorized runs)", func() string {
		return fmt.Sprintf("writes=%d commits=%d aborts=%d", stats.Writes.Load(), stats.Commits.Load(), stats.Aborts.Load())
	})

	var (
		poisoned bool
		runTx    *txn.Txn
		ops      = make([]txn.WriteOp, 0, batchCap)
		// groupFailed latches the first fail-stop verdict: a poisoned
		// commit group (txn.ErrGroupFailed) fails the topology exactly
		// once; every later fail-fast commit is counted as an abort so the
		// operator keeps draining deterministically (mirrors the batched
		// spine's accounting).
		groupFailed bool
	)
	// flushRun applies the pending run through the batched write API.
	// Counting matches the per-element engine: every applied write
	// increments Writes; the first failing write poisons the transaction
	// and counts one abort.
	flushRun := func() {
		if len(ops) == 0 {
			return
		}
		n, err := p.WriteBatch(runTx, tbl, ops)
		ops = ops[:0]
		stats.Writes.Add(int64(n))
		if err != nil {
			poisoned = true
			if txn.IsAbort(err) || err == txn.ErrFinished {
				stats.Aborts.Add(1)
			} else {
				s.t.fail(name, err)
			}
		}
	}

	s.consume(name, func(b []Element) {
		for _, e := range b {
			switch e.Kind {
			case KindBOT:
				// A well-formed stream never has a pending run here; flush
				// defensively so a malformed one can't cross transactions.
				flushRun()
				poisoned = false
				runTx = nil
			case KindData:
				if e.Tx == nil || poisoned || e.Tuple.Key == "" {
					continue
				}
				runTx = e.Tx
				ops = append(ops, txn.WriteOp{
					Key:    e.Tuple.Key,
					Value:  e.Tuple.Value,
					Delete: e.Tuple.Delete,
				})
			case KindCommit:
				if e.Tx == nil {
					continue
				}
				flushRun()
				if poisoned {
					// Someone (possibly this operator) already gave up on
					// the transaction; make the abort global.
					if err := p.Abort(e.Tx); err != nil && err != txn.ErrFinished {
						s.t.fail(name, err)
					}
					continue
				}
				if err := p.CommitState(e.Tx, tbl); err != nil {
					switch {
					case errors.Is(err, txn.ErrGroupFailed):
						stats.Aborts.Add(1)
						if !groupFailed {
							groupFailed = true
							s.t.fail(name, err)
						}
					case txn.IsAbort(err) || err == txn.ErrFinished:
						stats.Aborts.Add(1)
					default:
						s.t.fail(name, err)
					}
					continue
				}
				stats.Commits.Add(1)
			case KindRollback:
				if e.Tx == nil {
					continue
				}
				// Apply pending writes first so Writes counts them, as
				// the per-element engine did; Abort discards them anyway.
				flushRun()
				if err := p.Abort(e.Tx); err != nil && err != txn.ErrFinished {
					s.t.fail(name, err)
				}
				stats.Aborts.Add(1)
			}
		}
		// Writes must be applied before downstream operators (a second
		// ToTable, a TableJoin under the same transaction) see the batch.
		flushRun()
		out.ch <- b
	}, func() { close(out.ch) })
	return out, stats
}

// TableChange is one committed row change delivered by ToStream.
type TableChange struct {
	// CTS is the commit timestamp of the transaction.
	CTS txn.Timestamp
	// State is the table the change belongs to.
	State txn.StateID
	// Key is the written (or deleted) row key.
	Key string
	// Value is the row value as of CTS; nil when the row was deleted.
	Value []byte
	// Deleted reports whether the change removed the row.
	Deleted bool
}

// ToStream is the paper's TO_STREAM linking operator with the per-commit
// trigger policy: it subscribes to group commits and emits one data
// element per changed row of tbl, in commit order. The element's Key is
// the row key, Value the committed value, Ts the commit timestamp; Num is
// set only when the ENTIRE value is a decimal literal ("42", "-1.5",
// "1e3" — as strconv.ParseFloat reads it) and stays 0 for anything else,
// a literal followed by other bytes included. The stream closes when
// stop is called. Each commit's changes ship as one batch (split at
// batchCap), so delivery stays prompt — a batch never waits for a later
// commit.
//
// The feed buffers up to feedBuf commits; if a slow consumer falls that
// far behind, the committing thread blocks (backpressure) — a deliberate
// choice over silently dropping committed changes.
func ToStream(t *Topology, tbl *txn.Table, p txn.Protocol) (*Stream, func()) {
	const feedBuf = txn.DefaultFeedBuf
	type commitEvent struct {
		cts  txn.Timestamp
		keys []string
	}
	feed := make(chan commitEvent, feedBuf)
	stopCh := make(chan struct{})
	g := tbl.Group()
	if g == nil {
		panic(fmt.Sprintf("stream: table %q is not in a group", tbl.ID()))
	}
	g.Watch(func(cts txn.Timestamp, writes map[txn.StateID][]string) {
		keys, ok := writes[tbl.ID()]
		if !ok {
			return
		}
		select {
		case <-stopCh:
		case feed <- commitEvent{cts: cts, keys: keys}:
		}
	})

	out := t.newStream()
	emit := func(ev commitEvent) {
		b := getBatch()
		for _, key := range ev.keys {
			b = append(b, Element{Kind: KindData, Tuple: changeTuple(tbl, key, ev.cts)})
			if len(b) >= batchCap {
				out.ch <- b
				b = getBatch()
			}
		}
		if len(b) > 0 {
			out.ch <- b
		} else {
			putBatch(b)
		}
	}
	t.spawn("to_stream/"+string(tbl.ID()), func() {
		defer close(out.ch)
		<-t.start
		for {
			select {
			case <-stopCh:
				// Drain commits already queued so a consumer that stops
				// the feed after its writers finished still sees every
				// committed change.
				for {
					select {
					case ev := <-feed:
						emit(ev)
					default:
						return
					}
				}
			case ev := <-feed:
				emit(ev)
			}
		}
	})
	return out, func() { close(stopCh) }
}

// changeTuple shapes one committed row change as a feed tuple — the
// single definition both TO_STREAM paths (ToStream, FromTablePartitioned)
// emit: Key is the row key, Ts the commit timestamp, Delete set when the
// row is gone at that snapshot, Value a private copy of the committed
// value (Num set when the whole value is a decimal literal, see
// ToStream). The row is read at the commit's own
// snapshot so the value is exactly what that transaction installed, even
// if later commits already overwrote it.
func changeTuple(tbl *txn.Table, key string, cts txn.Timestamp) Tuple {
	v, ok := tbl.ReadAt(key, cts)
	tuple := Tuple{Key: key, Ts: int64(cts), Delete: !ok}
	if ok {
		tuple.Value = append([]byte(nil), v...)
		if n, err := strconv.ParseFloat(string(v), 64); err == nil {
			tuple.Num = n
		}
	}
	return tuple
}

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
	return Merge(name+"/merge", parts...)
}

// KV is one row of a snapshot query result.
type KV struct {
	Key   string
	Value []byte
}

// TableSnapshot is the paper's ad-hoc FROM(table) operator: it runs a
// read-only transaction and materializes every visible row of tbl under
// one consistent snapshot. Under BOCC the query may abort (validation);
// callers retry.
func TableSnapshot(p txn.Protocol, tbl *txn.Table) ([]KV, error) {
	tx, err := p.BeginReadOnly()
	if err != nil {
		return nil, err
	}
	var rows []KV
	var scanErr error
	// Route through the protocol's Read for every key so protocol
	// semantics (locks, read sets) hold; keys are discovered via the
	// version store.
	seen := map[string]bool{}
	tbl.SnapshotScan(^txn.Timestamp(0), func(key string, _ []byte) bool {
		seen[key] = true
		return true
	})
	for key := range seen {
		v, ok, err := p.Read(tx, tbl, key)
		if err != nil {
			scanErr = err
			break
		}
		if ok {
			rows = append(rows, KV{Key: key, Value: append([]byte(nil), v...)})
		}
	}
	if scanErr != nil {
		_ = p.Abort(tx)
		return nil, scanErr
	}
	if err := p.Commit(tx); err != nil {
		return nil, err
	}
	return rows, nil
}

// QueryKeys reads the given keys of one or more tables under a single
// read-only transaction — the ad-hoc query shape of the paper's
// benchmark (N point reads per query). Results align with keys; a nil
// value means the key was not visible. The error may be an abort
// (ErrAborted family) under S2PL/BOCC; callers count and retry.
func QueryKeys(p txn.Protocol, reads []TableKey) ([][]byte, error) {
	tx, err := p.BeginReadOnly()
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(reads))
	for i, r := range reads {
		v, ok, err := p.Read(tx, r.Table, r.Key)
		if err != nil {
			if !txn.IsAbort(err) {
				_ = p.Abort(tx)
			}
			return nil, err
		}
		if ok {
			out[i] = v
		}
	}
	if err := p.Commit(tx); err != nil {
		return nil, err
	}
	return out, nil
}

// TableKey addresses one read of QueryKeys.
type TableKey struct {
	Table *txn.Table
	Key   string
}
