// Package stream is the dataflow substrate of the reproduction: a
// channel-based stream-processing framework playing the role PipeFabric
// plays in the paper. A query is a Topology — a graph of operators
// connected by subscribed streams — and transaction boundaries travel
// in-band as punctuations (BOT / COMMIT / ROLLBACK control elements),
// implementing the paper's data-centric transaction model (Section 3).
//
// # Linking operators
//
// The four linking operators of the paper connect streams and
// transactional tables:
//
//	TO_TABLE     Stream.ToTable — applies stream tuples to a table inside
//	             the transaction delimited by the punctuations;
//	             ParallelRegion.ToTable runs the same table sink with
//	             one writer per lane (table.go, tableSink).
//	TO_STREAM    FromTablePartitioned — emits the committed changes of
//	             a table as per-partition lanes (per-commit trigger
//	             policy); ToStream is its one-partition case, merged.
//	FROM(table)  TableSnapshot / QueryKeys — one-time queries on a
//	             pinned txn.Snapshot.
//	FROM(stream) Hub.Attach — subscribe to a stream at the point of
//	             attachment.
//
// # Execution model
//
// Execution is vectorized: edges carry batches of elements and chains of
// stateless operators fuse into a single goroutine (see batch.go), each
// stage a transform over a whole batch. Transactions and ToTable are
// fused the same way: they run inside the operator that consumes their
// stream. Before waiting for a transaction's decision, Transactions runs
// the rest of the chain over the batch's prefix it has tagged and hands
// that to the operator — which holds because every consumer forwards or
// decides each punctuation of a batch before it returns. ToTable decides a
// transaction as its final punctuation passes, and applies its pending
// writes at the end of every batch it runs over, so they are in the write
// set before its elements leave. On the sequential spine tagging, Begin,
// writes and the verdict of every state share the goroutine of the
// spine's sink. The programming model is unchanged — sources emit and
// sinks observe one element at a time, and punctuations keep their exact
// in-band position.
//
// Queries parallelize on both sides of a table while preserving the
// paper's transaction model. Stream.Parallelize splits the ingest spine
// into keyed lanes whose private write segments merge into one shared
// transaction at a cyclic punctuation barrier (parallel.go), and
// FromTablePartitioned splits a table's change feed into per-partition
// commit sources re-serialized by the same barrier (feed.go) — so
// per-key order and per-transaction atomicity hold end to end with no
// sequential stage between a source and a downstream sink.
//
// The commit spine fuses too: TransactionsWindow runs a bounded window
// of a query's transactions concurrently, ParallelRegion.MergeBatched
// submits consecutive lane-complete transactions to the group-commit
// pipeline as one cross-transaction batch (one fsync for N small
// transactions), and ParallelRegion.Reparallelize wires a feed region's
// partitions directly into a downstream region's lanes when the
// partitioning matches — no merge hop, one spanning barrier.
//
// See DESIGN.md for the architecture narrative and the ordering /
// atomicity contracts each construct pins down.
package stream
