// Package txn implements the paper's transactional state management
// (Section 4): the global state context, the transactional table wrapper
// over a key-value base table, three concurrency-control protocols —
// snapshot isolation via MVCC (the paper's contribution), strict
// two-phase locking (S2PL) and backward-oriented optimistic concurrency
// control (BOCC) as evaluation baselines — and the consistency protocol
// that makes commits spanning multiple states of one topology group
// atomically visible (Section 4.3).
//
// # Layout
//
// The package splits along the paper's Figure 3:
//
//	context.go      Context (registry, active table of transaction and
//	                snapshot cuts, logical clock), Group and the
//	                commit-watcher hooks
//	txn.go          Txn handles and append-only write sets
//	cut.go          the read cut a Txn and a Snapshot each embed: the
//	                per-group cuts, the GC pin and the one read-cut rule
//	                (pinGroups)
//	table.go        Table: the MVCC dictionary over a kv.Store base table
//	row.go          rows (key, versions, store handle, commit marks) and
//	                the open-addressed row index
//	consistency.go  the one protocol surface: every Protocol entry point
//	                (Begin, Read, the write path, CommitState, Commit,
//	                CommitChain, Abort), per-state flags, and the commit
//	                pipeline (one, for any set of group latches)
//	si.go           snapshot isolation's rules: the snapshot pin and
//	                First-Committer-Wins admission
//	s2pl.go         strict two-phase locking's rules: locks before reads
//	                and writes (wait-die), released once decided
//	bocc.go         backward-oriented optimistic validation's rules: the
//	                read set, validation as admission, registration
//	segment.go      per-lane write-set segments for parallel ingest
//	feed.go         partitioned change-feed fan-out (WatchPartitioned)
//	                of each commit's written keys and values
//	chain.go        cross-transaction commit chains (the fused spine)
//	lockmgr.go      the S2PL lock table (chain-aware wait-die)
//
// # Scaling machinery
//
// Four mechanisms lift the paper's single-latch design to multi-core
// scale without changing its semantics: each table's row index is
// striped over 64 latch shards, and a commit probes each
// written key once; commits of one group flow through an adaptive
// leader/follower group-commit pipeline (one coalesced durability batch
// and one LastCTS publish per batch);
// parallel stream queries move per-tuple work off the shared transaction
// latch with Segments on the write side and WatchPartitioned fan-out on
// the change-feed side; and a windowed query's consecutive small
// transactions commit through one pipeline batch via commit chains
// (Protocol.CommitChain), raising fan-in without giving up serial-order
// semantics. DESIGN.md walks through each with its correctness
// invariants.
//
// # Who writes a row's versions
//
// A row holds its key's versions itself (an mvcc.Object by value), and
// only the holder of the table's group commit latch writes them: the
// commit pipeline's install, recovery, Table.GC's sweep (it takes the
// latch) and the index backfill and sweep. So a version slot is reused in place with no lock
// of its own, and an index sweep's look at a row's versions cannot
// interleave with an install and its index add. Readers — snapshots,
// transactions, lookups, feeds — never take the latch: they read the
// slots lock-free while they are rewritten, and a pinned reader's
// versions are never the ones rewritten (internal/mvcc's package comment
// has the argument).
package txn
