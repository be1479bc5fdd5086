package txn

// This file implements the transaction-layer half of the partitioned
// change feed (lane-aware TO_STREAM). The plain Group.Watch hook delivers
// every commit to every listener on the committing goroutine, so all
// downstream consumers of a table's change feed funnel through whatever
// single goroutine drains that one listener — the last sequential stage
// of an otherwise shared-nothing pipeline. WatchPartitioned removes it:
// the committed write set of a table — each written key with its value
// and delete flag — is fanned out by key hash into P per-partition event
// channels, each drained by an independent consumer, with commit
// boundaries preserved on every partition so the stream layer can
// re-serialize them through its lane barrier.
//
// An event carries the values its commit installed, so a consumer never
// reads the table back and the feed takes no part in garbage collection:
// a version is immutable once installed, and the event shares it. A
// stalled consumer holds at most its buffered commits' values.

import (
	"fmt"
	"slices"
	"sync"
)

// DefaultFeedBuf is the default per-feed commit buffer: how many commits
// the partitioned feed queues before the committing thread blocks
// (backpressure — a deliberate choice over silently dropping committed
// changes).
const DefaultFeedBuf = 4096

// FeedEvent is one committed transaction's changes to a table, restricted
// to the keys of one partition.
//
// Changes holds the partition's committed ops — key, value and delete
// flag — in write-set order (first-write order within the transaction,
// each key once with its last write), so per-key update order is
// preserved end to end. Changes may be empty: every partition receives an
// event for every commit that touched the table, including commits whose
// writes all hashed elsewhere, because the consumers' merge barrier needs
// an aligned commit sequence on every partition. The slice is the feed's
// own copy and may be retained; the partitions of one commit share its
// array, each slice capped at its own end, so an append to one
// reallocates rather than overwrite another partition's ops. A Value is
// the committed version's own bytes, shared with the table: read-only.
type FeedEvent struct {
	// CTS is the commit timestamp of the transaction.
	CTS Timestamp
	// Changes is this partition's share of the committed ops, in
	// write-set order; empty when the commit wrote only other partitions'
	// keys.
	Changes []WriteOp
}

// DefaultKeyHash is the default routing hash shared by the keyed
// parallel constructs — stream.Parallelize's lane router and
// WatchPartitioned's feed fan-out both default to it — so a feed
// partitioned with the default function against an ingest region
// parallelized with its default function agrees lane-for-lane on key
// placement when the counts match. FNV-1a of the key; the empty key
// hashes to 0 (lane/partition 0), matching the lane router's routing of
// keyless tuples.
func DefaultKeyHash(key string) uint64 {
	if len(key) == 0 {
		return 0
	}
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// PartitionedFeed is the handle of a partitioned change feed registered
// with Table.WatchPartitioned: the per-partition event channels and the
// stop control.
type PartitionedFeed struct {
	feeds []<-chan FeedEvent
	stop  func()
}

// Partitions returns the per-partition event channels (do not modify the
// slice). Channel i carries the committed changes whose keys hash to
// partition i, in commit order, aligned across partitions.
func (f *PartitionedFeed) Partitions() []<-chan FeedEvent { return f.feeds }

// Ack does nothing. Events carry their values, so there is no delivery
// to acknowledge; it remains only because the gated benchmark's feed
// probe calls it.
func (f *PartitionedFeed) Ack(part int) {}

// Stop shuts the feed down: a commit whose Commit returned before Stop is
// still delivered (drain), commits after Stop are dropped, the feed's
// commit hook leaves the group, and all partition channels are closed
// once the queue is empty. Stop is idempotent.
func (f *PartitionedFeed) Stop() { f.stop() }

// WatchPartitioned registers a partitioned change feed on the table: it
// returns a handle carrying parts event channels, one per partition, each
// delivering the table's committed changes whose keys hash to that
// partition (keyFn, nil selecting FNV-1a of the key), in commit order.
//
// Contract:
//
//   - Every commit that wrote at least one key of this table produces
//     exactly one FeedEvent on EVERY partition channel, in the same
//     order; partitions the commit did not touch receive the event with
//     empty Changes. Consumers can therefore treat the event sequence as
//     an aligned commit log and re-serialize boundaries across partitions
//     (stream.FromTablePartitioned runs them through its lane barrier).
//   - A key always hashes to the same partition, so per-key update order
//     is preserved within its partition channel.
//   - The fan-out runs on a dedicated router goroutine, off the group's
//     commit latch: the committing thread only copies the table's
//     committed ops into one array and enqueues it into a buffer of buf
//     commits (DefaultFeedBuf when buf <= 0), and blocks only when the
//     feed falls that far behind (backpressure).
//
// Stop removes the registration from the group: later commits no longer
// call the feed's hook, and nothing of the feed stays reachable from the
// group. A commit batch already running may call it once more, which
// returns at once.
func (t *Table) WatchPartitioned(parts, buf int, keyFn func(string) uint64) (*PartitionedFeed, error) {
	if parts < 1 {
		return nil, fmt.Errorf("txn: WatchPartitioned needs parts >= 1, got %d", parts)
	}
	g := t.Group()
	if g == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownState, t.id)
	}
	if keyFn == nil {
		keyFn = DefaultKeyHash
	}
	if buf <= 0 {
		buf = DefaultFeedBuf
	}

	// in carries each commit's ops, in the feed's own array, to the
	// router, which groups them by partition in place.
	in := make(chan FeedEvent, buf)
	stopCh := make(chan struct{})

	// The commit-latch side: one hook (serialized by the group's commit
	// latch) that copies the table's ops — the write set's own arrays are
	// recycled once the hooks return; the values are the installed
	// versions' and are shared — enqueues and returns. A commit after Stop
	// is dropped before it is copied; a send blocked on backpressure stays
	// interruptible by Stop, which also removes the hook.
	unhook := g.hook(func(cts Timestamp, states []*stateEntry) {
		i := slices.IndexFunc(states, func(e *stateEntry) bool { return e.table == t })
		if i < 0 || len(states[i].ops) == 0 {
			return
		}
		select {
		case <-stopCh:
			return
		default:
		}
		e := states[i]
		ops := make([]WriteOp, len(e.ops))
		for j, op := range e.ops {
			ops[j] = WriteOp{Key: e.order[j], Value: op.value, Delete: op.delete}
		}
		select {
		case <-stopCh:
		case in <- FeedEvent{CTS: cts, Changes: ops}:
		}
	})
	stop := sync.OnceFunc(func() {
		close(stopCh)
		unhook()
	})

	chans := make([]chan FeedEvent, parts)
	feeds := make([]<-chan FeedEvent, parts)
	for i := range chans {
		chans[i] = make(chan FeedEvent, buf)
		feeds[i] = chans[i]
	}

	// The router: groups each commit's ops by partition, in place, and
	// delivers every partition its run of the array. Delivery is blocking
	// — a slow partition backpressures the router and, once the in buffer
	// fills, the committing thread — and strictly in commit order, so all
	// partitions observe the same aligned event sequence. The grouping is
	// a counting sort through router-owned scratch: each op's partition,
	// the partitions' ends, and the ops in partition order, stable within
	// a partition (write-set order).
	var (
		opPart  []int
		ends    = make([]int, parts)
		grouped []WriteOp
	)
	deliver := func(ev FeedEvent) {
		ops := ev.Changes
		if parts == 1 {
			chans[0] <- ev
			return
		}
		clear(ends)
		opPart = opPart[:0]
		for _, op := range ops {
			p := int(keyFn(op.Key) % uint64(parts))
			opPart = append(opPart, p)
			ends[p]++
		}
		for i := 1; i < parts; i++ {
			ends[i] += ends[i-1]
		}
		grouped = slices.Grow(grouped[:0], len(ops))[:len(ops)]
		for i := len(ops) - 1; i >= 0; i-- {
			p := opPart[i]
			ends[p]--
			grouped[ends[p]] = ops[i]
		}
		copy(ops, grouped)
		clear(grouped)
		// ends[i] is now partition i's start.
		for i := range chans {
			lo, hi := ends[i], len(ops)
			if i+1 < parts {
				hi = ends[i+1]
			}
			chans[i] <- FeedEvent{CTS: ev.CTS, Changes: ops[lo:hi:hi]}
		}
	}
	// On Stop the router drains what is queued — every commit whose hook
	// enqueued before Stop, so every commit whose Commit returned before
	// it — and closes the partitions. A send racing Stop may land after
	// the drain; that commit is simply not delivered.
	go func() {
		defer func() {
			for _, c := range chans {
				close(c)
			}
		}()
		for {
			select {
			case <-stopCh:
				for {
					select {
					case ev := <-in:
						deliver(ev)
					default:
						return
					}
				}
			case ev := <-in:
				deliver(ev)
			}
		}
	}()
	return &PartitionedFeed{feeds: feeds, stop: stop}, nil
}
