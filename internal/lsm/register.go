package lsm

import (
	"fmt"

	"sistream/internal/kv"
)

// Capabilities: the LSM store is the repository's durable backend — a
// WAL + leveled SSTables rooted in a data directory, with Apply(sync)
// and Sync as real fsync points.
func (db *DB) Capabilities() kv.Capabilities { return kv.Capabilities{Durable: true} }

// The LSM store self-registers as the "lsm" backend driver: specs are
// "lsm:<dir>", or a bare "lsm" rooted at OpenOptions.Dir. Importing
// this package (directly or transitively) is what makes lsm specs
// resolvable through kv.Open.
func init() {
	kv.Register("lsm", kv.Driver{
		Open: func(arg string, opt kv.OpenOptions, _ kv.Store) (kv.Store, error) {
			dir := arg
			if dir == "" {
				dir = opt.Dir
			}
			if dir == "" {
				return nil, fmt.Errorf("lsm driver needs a data directory (spec \"lsm:<dir>\" or OpenOptions.Dir)")
			}
			return Open(dir, Options{})
		},
	})
}
