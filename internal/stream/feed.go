package stream

// The change feed: TO_STREAM, the only place a topology watches a table's
// commits. The feed is split into P per-partition source nodes (each
// draining only its key range's committed write-set entries from a
// txn.Table.WatchPartitioned feed), exposed as a ParallelRegion whose
// Merge barrier re-serializes the commit punctuations with exactly the
// same cyclic-barrier discipline the ingest lanes use — so a downstream
// Merge observes exactly one BOT/COMMIT pair per transaction, and per-key
// order is preserved end to end: ingest lanes → table → feed partitions →
// downstream lanes is shared-nothing per key from source to sink. The
// sequential ToStream is the one-partition case, merged.

import (
	"fmt"

	"sistream/internal/txn"
)

// FromTablePartitioned is the partitioned TO_STREAM linking operator with
// the per-commit trigger policy: it subscribes to the committed changes
// of tbl split into parts key-hash partitions (keyFn is the routing
// token, nil selecting FNV-1a of the key — the same default the ingest
// lanes use, so matching partition and lane counts agree on key
// placement; a custom token is built by NewKeyFn) and returns the
// partitions as the lanes of a ParallelRegion. The region records the
// token, so a downstream Reparallelize with the SAME token (and count)
// fuses partition-to-lane — see KeyFn.
//
// Each committed transaction that wrote tbl appears on every lane as a
// BOT punctuation, the lane's share of the changed rows as data elements,
// and a COMMIT punctuation; both punctuations carry the commit timestamp
// in Tuple.Ts. Data elements are shaped by changeTuple: Key is the row
// key, Value the committed value as of that commit's own snapshot (Num
// set only when the ENTIRE value is a decimal literal — "42", "-1.5",
// "1e3", as strconv.ParseFloat reads it — and 0 for anything else, a
// literal followed by other bytes included), Ts the commit timestamp,
// Delete set when the change removed the row. Reading at the commit's
// snapshot means the emitted value is exactly what that transaction
// installed, even if later commits already overwrote it.
//
// The region must be closed with Merge (directly, or after deriving
// per-partition operator chains with Apply — the lane-to-lane hookup that
// lets a downstream pipeline consume the feed without any serialization
// point until its own barrier). The Merge barrier re-serializes the
// punctuations: the merged stream carries each transaction's BOT and
// COMMIT exactly once, every data element of the transaction in between,
// and per-key element order preserved — the same contract the ingest-side
// ParallelRegion provides, because it is the same barrier.
//
// The feed buffers up to txn.DefaultFeedBuf commits; if consumers fall
// that far behind, the committing thread blocks (backpressure) rather
// than dropping committed changes. stop ends the feed: queued commits are
// still delivered, then the lanes close. Punctuation-only transactions
// (commits not writing tbl) do not appear on the feed.
//
// The feed participates in garbage collection: every undelivered commit
// is pinned into the context's GC horizon (txn.PartitionedFeed), and each
// partition acknowledges a commit only after emitting its rows — read at
// the commit's snapshot — so an aggressively collected table (Table.GC
// after every commit, a hot key's version array turning over) can never
// reclaim a version a lagging partition still needs. A stalled
// consumer therefore pins the horizon until it resumes or the feed is
// stopped and drained.
func FromTablePartitioned(t *Topology, tbl *txn.Table, parts int, keyFn *KeyFn) (*ParallelRegion, func()) {
	feed, err := tbl.WatchPartitioned(parts, 0, keyFn.keyHash())
	if err != nil {
		panic(fmt.Sprintf("stream: FromTablePartitioned: %v", err))
	}
	r := &ParallelRegion{t: t, key: keyFn}
	r.lanes = make([]*Stream, parts)
	for i := range r.lanes {
		lane := t.newStream()
		r.lanes[i] = lane
		part := i
		events := feed.Partitions()[i]
		t.spawn(fmt.Sprintf("from_table/%s/p%d", tbl.ID(), i), func() {
			defer close(lane.ch)
			if !t.released() {
				// Acknowledge without emitting, so committers never
				// wait on a feed nothing will read.
				for range events {
					feed.Ack(part)
				}
				return
			}
			for ev := range events {
				emitFeedCommit(lane, tbl, ev)
				// The rows are read (and copied) — release the GC pin for
				// this partition's share of the commit.
				feed.Ack(part)
			}
		})
	}
	return r, feed.Stop
}

// emitFeedCommit ships one commit's changes on a feed lane as an in-band
// [BOT, rows..., COMMIT] run, split at batchCap so a large commit never
// delays delivery of its first rows.
func emitFeedCommit(lane *Stream, tbl *txn.Table, ev txn.FeedEvent) {
	punct := func(k Kind) Element {
		return Element{Kind: k, Tuple: Tuple{Ts: int64(ev.CTS)}}
	}
	b := getBatch()
	b = append(b, punct(KindBOT))
	for _, key := range ev.Keys {
		b = append(b, Element{Kind: KindData, Tuple: changeTuple(tbl, key, ev.CTS)})
		if len(b) >= batchCap {
			lane.ch <- b
			b = getBatch()
		}
	}
	b = append(b, punct(KindCommit))
	lane.ch <- b
}
