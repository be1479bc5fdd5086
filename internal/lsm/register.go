package lsm

import "sistream/internal/kv"

// Capabilities: the LSM store is the repository's durable backend — a
// WAL + leveled SSTables rooted in a data directory, with Apply(sync)
// and Sync as real fsync points.
func (db *DB) Capabilities() kv.Capabilities { return kv.Capabilities{Durable: true} }
