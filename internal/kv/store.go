// Package kv defines the key-value base-table abstraction underneath
// transactional states, mirroring the paper's Section 4.1 design decision
// that "any existing backend structure with a key-value mapping can be
// used" as the base table. The transactional table wrapper in
// internal/txn persists committed versions through this interface; the two
// implementations shipped with the repository are the in-memory Store in
// this package and the persistent LSM store in internal/lsm (the
// stand-in for RocksDB, which the paper's evaluation used).
//
// The contract a backend meets is Store — Get, Apply (the only write),
// Scan, Sync and Close — plus, optionally, the one capability flag it
// declares through Capable. The conformance suite in internal/kv/kvtest
// is its executable form.
//
// A store is built by its constructor: NewMem, lsm.Open, or NewFault
// around either of them for tests that script failures.
package kv

import "errors"

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kv: store is closed")

// Store is an ordered key-value map whose one write is a batch, applied
// atomically and optionally synchronously (durably). Implementations must
// be safe for concurrent use.
//
// Batch keys are never aliased after Apply returns; batch values follow
// the ownership rule of the Batch method that appended them. A value
// handed out by Get must not be modified by callers and stays valid
// after later writes of its key; a key and value handed to a Scan
// callback are valid only until the callback returns.
type Store interface {
	// Get returns the value stored under key, with found reporting
	// whether the key exists.
	Get(key []byte) (value []byte, found bool, err error)

	// Apply atomically applies all operations in the batch, in order (a
	// later op on the same key wins). If sync is true, the batch is
	// durable when Apply returns (for persistent stores this means an
	// fsync'd log record — the paper's evaluation runs its base table
	// with the sync option enabled to "guarantee failure atomicity").
	Apply(b *Batch, sync bool) error

	// Scan calls fn for every key-value pair with start <= key < end in
	// ascending key order, each key once. A nil start means the
	// beginning; a nil end means the end. Scanning stops early when fn
	// returns false. The key and value slices are valid only until fn
	// returns — a store may reuse them for the next pair — so a caller
	// that keeps either copies it.
	Scan(start, end []byte, fn func(key, value []byte) bool) error

	// Sync flushes all previously written data to stable storage.
	Sync() error

	// Close releases resources. Operations after Close return ErrClosed.
	Close() error
}

// Capabilities are what a store declares about itself (Capable). A
// wrapper declares its own, whatever the store it wraps declares.
type Capabilities struct {
	// Durable: Apply(sync=true) and Sync are real durability points —
	// data they cover survives a process crash (for the fault wrapper, a
	// simulated one). The group-commit leader consults this flag: a
	// backend without it (the memory store) never gets a sync point
	// requested — the commit path skips the fsync honestly instead of
	// asking for one the backend would silently ignore.
	Durable bool
}

// Capable is implemented by stores that declare their capability flags.
type Capable interface {
	Capabilities() Capabilities
}

// CapabilitiesOf returns the store's declared capability flags. Stores
// that do not implement Capable get the conservative default — durable —
// so an unknown third-party store has its sync requests passed through.
func CapabilitiesOf(s Store) Capabilities {
	if c, ok := s.(Capable); ok {
		return c.Capabilities()
	}
	return Capabilities{Durable: true}
}

// Len returns the number of live keys in a store by scanning it; it is a
// testing/diagnostic helper, not a hot-path operation.
func Len(s Store) (int, error) {
	n := 0
	err := s.Scan(nil, nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}

// NewCache returns inner unchanged. The key-level cache tier it once built
// is gone (DESIGN.md "Why there is no cache tier"); the function remains
// only because benchmark/probes.go calls it, like PartitionedFeed.Ack and
// Table.StopIdleGC.
func NewCache(inner Store, _ int) Store { return inner }
