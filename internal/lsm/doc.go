// Package lsm implements a persistent log-structured merge-tree key-value
// store: a write-ahead log, an unordered hash-indexed memtable (put in
// key order by whoever flushes or scans it), block-based sorted string
// tables with bloom filters, leveled compaction, a shared
// data-block LRU cache, and a manifest-based recovery protocol.
//
// It is this repository's substitute for RocksDB, which the paper's
// evaluation (Section 5) uses as the persistent base table with the sync
// option enabled. The property that matters for reproducing the paper's
// results is preserved: committed writes are made durable by a
// synchronous, batched log append (so the continuous writer is
// I/O-bound), while point reads are served from memory-resident
// structures (memtable, table indexes, bloom filters, block cache and
// the OS page cache), so ad-hoc readers are CPU-bound.
//
// # Files and recovery
//
// A database directory holds numbered WAL files (one per memtable
// generation), SSTables, a manifest of version edits, and CURRENT
// pointing at the live manifest. Open rebuilds the level structure from
// the manifest and replays every WAL at or after its recorded log number
// in order — two after a crash that caught a flush under way: the
// immutable memtable's log, then the active one's. A flushed
// generation's log file is recycled: renamed to the next log number and
// overwritten in place, so a sync of it needs no file-system journal
// commit. Every record therefore carries its log number under the CRC,
// and replay is strict about corruption: the log ends cleanly at an
// intact record of another log (the previous life's tail), a record that
// fails validation with no later record of this log is a torn FINAL
// record — a crash mid-append, never acknowledged durable — and is
// discarded (counted in Stats.WALTornTails), but a broken record with an
// intact one after it fails the Open, because the records after it were
// acknowledged and silently dropping them would be data loss (wal.go has
// the exact rules). DumpWAL / `lsmtool wal-dump --skip-corrupt` is the
// salvage path for that situation: it decodes a log read-only and can
// resynchronize past corrupt records.
//
// # Concurrency
//
// Writers are serialized by writeMu: an Apply writes one WAL record,
// makes it durable with one data-only sync when asked to, and then
// inserts the batch into the memtable, a hash probe and a copy per
// operation. Nothing else runs inside Apply, and it starts no goroutine:
// the flush worker is the only one a DB owns. When the memtable is full
// the writer switches to a new memtable and log and hands the full one,
// now immutable, to that worker, which sorts its keys, writes the L0
// table, installs version edits, retires logs and runs compactions; a
// writer waits for it only when the previous immutable memtable has
// still not been flushed (Stats.WriteStalls). Flush, Compact and Close
// drain the worker first.
// Readers never block on any of this beyond a memtable insert: Get/Scan
// briefly take a read latch to snapshot (memtable, immutable memtable,
// version) and then work on immutable state. Any error on the write
// path — in a writer or in the worker — latches the sticky ErrDBFailed:
// writes are refused from then on, reads keep serving. The batch whose
// WAL write or sync failed never reaches the memtable, so those reads
// see acknowledged writes only, and so does a reopen. See DESIGN.md
// ("LSM write path") for the cost breakdown and how the transactional
// layers above use the store.
package lsm
