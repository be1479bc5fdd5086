package txn

// This file implements per-lane write-set segments: the transaction-layer
// half of the parallel keyed ingest lanes in internal/stream. A stream
// query partitioned into P lanes runs P concurrent TO_TABLE write paths
// that all contribute to ONE open transaction. Routing is keyed (hash of
// the tuple key), so the lanes' key sets are disjoint — but the write set
// lives on the shared Txn, and naive per-tuple writes from P goroutines
// would serialize on the transaction latch for every element.
//
// A Segment moves that work off the shared latch: each writer appends its
// tuples (value copies included — the allocation-heavy part) into its own
// private segment with no synchronization at all, and merges the whole
// segment into the transaction's write set in a single latch acquisition
// (Protocol.WriteSegment), which adopts the buffered values instead of
// copying them again. The concurrent calls of the P lanes are serialized
// by the transaction latch (tx.mu) — per-lane latching, paid once per
// lane per transaction instead of once per tuple. The sequential TO_TABLE
// is the one-writer case of the same path.

// Segment is one lane's private write-set buffer for the currently open
// transaction: a sequence of operations against a single table, in lane
// arrival order. Append methods copy values, so the producer may reuse
// its buffers immediately; the segment itself is single-goroutine (one
// lane) until it is handed to WriteSegment.
type Segment struct {
	ops []WriteOp
}

// NewSegment creates an empty segment with room for n operations.
func NewSegment(n int) *Segment {
	if n < 1 {
		n = 16
	}
	return &Segment{ops: make([]WriteOp, 0, n)}
}

// Put buffers an update of key to value. The value is copied.
func (s *Segment) Put(key string, value []byte) {
	s.ops = append(s.ops, WriteOp{Key: key, Value: append([]byte(nil), value...)})
}

// Delete buffers a deletion of key.
func (s *Segment) Delete(key string) {
	s.ops = append(s.ops, WriteOp{Key: key, Delete: true})
}

// Len returns the number of buffered operations.
func (s *Segment) Len() int { return len(s.ops) }

// Reset empties the segment, keeping its backing array. Values previously
// handed over through WriteSegment are not touched (every Put allocates a
// private copy), so resetting after a merge is always safe.
func (s *Segment) Reset() { s.ops = s.ops[:0] }

// Ops exposes the buffered operations (fault-injecting protocol wrappers
// replay a prefix through WriteBatch). The caller must not retain the
// slice across a Reset.
func (s *Segment) Ops() []WriteOp { return s.ops }
