// Package sistream is a Go reproduction of "Snapshot Isolation for
// Transactional Stream Processing" (Götze & Sattler, EDBT 2019): a
// transactional stream processing library combining continuous queries,
// shared queryable states (tables) with MVCC snapshot isolation, a
// consistency protocol for multi-state transactions, and ad-hoc snapshot
// queries — plus the S2PL and BOCC baselines the paper evaluates against
// and a persistent LSM key-value store as the base table.
//
// # Concurrency architecture
//
// The transactional core is built to keep readers and writers off each
// other's locks at every layer (see DESIGN.md for the full picture):
//
//   - The state registry (Context) is striped over 64 independently
//     latched shards keyed by FNV-1a of the state/group ID, so
//     Begin/lookup/Register scale with cores; the active-transaction
//     table is latch-free (CAS bit vectors).
//   - Commits of one topology group flow through a group-commit
//     pipeline: concurrent committers enqueue validated write sets, a
//     batch leader assigns a contiguous timestamp range, admits each
//     transaction under First-Committer-Wins (against installed versions
//     plus earlier same-batch admissions), persists one coalesced batch
//     to the context's one base store — a single fsync amortized over
//     the whole batch — installs all versions and publishes the group's
//     LastCTS once.
//     Transactions spanning groups fall back to taking every involved
//     group's commit latch in canonical order, so cross-group commits
//     stay deadlock-free and atomic.
//   - A key's versions live in its table row: two inline slots, reused in
//     place once a version is dead below the GC horizon, spilling to a
//     heap array only while a snapshot pins older versions. Readers check
//     the slots lock-free, re-validating each slot's commit timestamp
//     against a concurrent rewrite — a snapshot read never contends with
//     the commit apply path, however hot the key, and an install
//     allocates nothing but the value.
//   - The dataflow engine is vectorized: edges carry element batches,
//     chains of stateless operators fuse into their consumer's goroutine,
//     and so do Transactions and TO_TABLE — a sequential spine of a
//     source, Transactions, any number of ToTables and a sink runs in two
//     goroutines. TO_TABLE — one table sink per ToTable call, sequential or
//     per lane — applies each transaction's tuples as segments
//     (Protocol.WriteSegment): one value copy per tuple, one snapshot pin
//     and one latch acquisition per run. See DESIGN.md "Vectorized
//     dataflow".
//   - Queries scale past one core on both sides of a table.
//     Stream.Parallelize splits the ingest spine into keyed lanes with
//     per-lane write segments re-serialized at a transaction-preserving
//     merge barrier; FromTablePartitioned splits the change feed
//     (TO_STREAM; ToStream is its one-partition case) into per-partition
//     sources merged through the same barrier discipline, every
//     undelivered commit pinned against GC, so an end-to-end pipeline —
//     ingest lanes → table → feed partitions → downstream lanes — is
//     shared-nothing per key from source to sink. See DESIGN.md
//     "Parallel keyed ingest lanes" and "Partitioned change feed".
//   - The commit spine batches ACROSS transactions: TransactionsWindow
//     keeps a bounded window of one query's small transactions in
//     flight on a commit chain (serial-order semantics preserved:
//     chain-internal conflicts are exempt, foreign conflicts still
//     abort), and the lane barrier's commit spine (MergeBatched) submits
//     consecutive decided transactions to the group-commit pipeline as
//     ONE batch — one leader tenure, one fsync, one LastCTS publish for
//     the run. Reparallelize fuses a feed region directly into a
//     downstream parallel region (partition i → lane i) when the
//     partitioning matches. See DESIGN.md "Fused commit spine".
//
// Group.CommitProfile reports the pipeline's achieved batching;
// cmd/sibench -scaling sweeps it against writer concurrency.
//
// The façade re-exports the user-facing API of the internal packages:
//
//	sistream.NewContext / CreateTable / CreateGroup  state management
//	sistream.NewSI / NewS2PL / NewBOCC               protocols
//	sistream.NewTopology + Stream operators          dataflow queries
//	sistream.ToStream / FromTablePartitioned         change feeds
//	sistream.OpenLSM / NewMemStore                   base tables
//
// A minimal write-then-query program:
//
//	store := sistream.NewMemStore()
//	ctx := sistream.NewContext()
//	tbl, _ := ctx.CreateTable("events", store, sistream.TableOptions{})
//	ctx.CreateGroup("g", tbl)
//	p := sistream.NewSI(ctx)
//	tx, _ := p.Begin()
//	p.Write(tx, tbl, "k", []byte("v"))
//	p.Commit(tx)
//	rows, _ := sistream.TableSnapshot(p, tbl)
//
// # Where to read more
//
//   - README.md — architecture overview, quickstart, benchmark numbers.
//   - DESIGN.md — the full design: state context, group commit,
//     vectorized dataflow, parallel lanes, partitioned feed, MVCC store.
//   - examples/ — complete runnable programs (quickstart, ad-hoc
//     queries, crash recovery, the smart-meter scenario).
//   - PAPER.md — the source paper's abstract and claims.
package sistream
