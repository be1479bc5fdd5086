package txn

// This file implements the transaction-layer half of the partitioned
// change feed (lane-aware TO_STREAM). The plain Group.Watch hook delivers
// every commit to every listener on the committing goroutine, so all
// downstream consumers of a table's change feed funnel through whatever
// single goroutine drains that one listener — the last sequential stage
// of an otherwise shared-nothing pipeline. WatchPartitioned removes it:
// the committed write set of a table is fanned out by key hash into P
// per-partition event channels, each drained by an independent consumer,
// with commit boundaries preserved on every partition so the stream layer
// can re-serialize them through its lane barrier.
//
// The feed also participates in garbage collection: it reads rows at
// HISTORICAL commit snapshots, so a version a lagging partition still
// needs must not be reclaimed. Each feed therefore pins its oldest
// undelivered commit timestamp into the context's GC horizon
// (Context.OldestActiveVersion): the pin is taken on the committing
// thread — under the group's commit latch, before any sweep for that
// commit can run — and released as consumers acknowledge delivery
// (PartitionedFeed.Ack).

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultFeedBuf is the default per-feed commit buffer: how many commits
// the partitioned feed queues before the committing thread blocks
// (backpressure — a deliberate choice over silently dropping committed
// changes).
const DefaultFeedBuf = 4096

// FeedEvent is one committed transaction's changes to a table, restricted
// to the keys of one partition.
//
// Keys holds the partition's written keys (deletes included) in write-set
// order — first-write order within the transaction — so per-key update
// order is preserved end to end. Keys may be empty: every partition
// receives an event for every commit that touched the table, including
// commits whose writes all hashed elsewhere, because the consumers'
// merge barrier needs an aligned commit sequence on every partition. The
// slice is the feed's own copy and may be retained; the partitions of one
// commit share its array, each slice capped at its own end, so an append
// to one reallocates rather than overwrite another partition's keys.
type FeedEvent struct {
	// CTS is the commit timestamp of the transaction.
	CTS Timestamp
	// Keys is this partition's share of the written keys, in write-set
	// order; empty when the commit wrote only other partitions' keys.
	Keys []string
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

// feedPin tracks a partitioned feed's contribution to the GC horizon:
// the oldest commit timestamp some partition has not finished consuming.
// Commits enter in commit order (on the committing thread) and each must
// be acknowledged once per partition; the pin advances as the slowest
// partition acknowledges.
type feedPin struct {
	mu sync.Mutex
	// pending[head:] holds the enqueued, not-yet-fully-acknowledged commit
	// timestamps in ascending order; pending[head] is the pinned horizon.
	// Acknowledged commits advance head, and add moves the live tail to
	// the front before it would grow the array.
	pending []Timestamp
	head    int
	// acked[i] counts partition i's acknowledged events; popped counts
	// commits fully acknowledged by every partition and removed from
	// pending. min(acked) - popped is the head's remaining partitions.
	acked  []uint64
	popped uint64
	// oldest mirrors pending[0] (0 = nothing pinned) for the lock-free
	// horizon scan.
	oldest atomic.Uint64
}

// add pins cts (called on the committing thread, in commit order).
func (p *feedPin) add(cts Timestamp) {
	p.mu.Lock()
	if p.head > 0 && len(p.pending) == cap(p.pending) {
		p.pending = p.pending[:copy(p.pending, p.pending[p.head:])]
		p.head = 0
	}
	p.pending = append(p.pending, cts)
	if len(p.pending)-p.head == 1 {
		p.oldest.Store(cts)
	}
	p.mu.Unlock()
}

// dropLast unpins the most recently added commit — the committing
// thread lost the race with stop and the commit will never be
// delivered. The watcher is single-flight (serialized by the group's
// commit latch) and an undelivered commit can never be acknowledged, so
// the tail entry is always the caller's.
func (p *feedPin) dropLast() {
	p.mu.Lock()
	p.pending = p.pending[:len(p.pending)-1]
	if len(p.pending) == p.head {
		p.oldest.Store(0)
	}
	p.mu.Unlock()
}

// ack acknowledges partition part's oldest unacknowledged commit and
// advances the pin past commits every partition has acknowledged.
func (p *feedPin) ack(part int) {
	p.mu.Lock()
	p.acked[part]++
	min := p.acked[0]
	for _, a := range p.acked[1:] {
		if a < min {
			min = a
		}
	}
	for p.popped < min && p.head < len(p.pending) {
		p.head++
		p.popped++
	}
	if p.head == len(p.pending) {
		p.pending, p.head = p.pending[:0], 0
		p.oldest.Store(0)
	} else {
		p.oldest.Store(p.pending[p.head])
	}
	p.mu.Unlock()
}

// rawEvent is the commit-latch side's enqueue unit: the commit timestamp
// and the feed's own copy of the table's written keys, which the router
// groups by partition in place.
type rawEvent struct {
	cts  Timestamp
	keys []string
}

// PartitionedFeed is the handle of a partitioned change feed registered
// with Table.WatchPartitioned: the per-partition event channels, the stop
// control, and the delivery acknowledgements that advance the feed's GC
// pin.
type PartitionedFeed struct {
	feeds []<-chan FeedEvent
	stop  func()
	pin   *feedPin
}

// Partitions returns the per-partition event channels (do not modify the
// slice). Channel i carries the committed changes whose keys hash to
// partition i, in commit order, aligned across partitions.
func (f *PartitionedFeed) Partitions() []<-chan FeedEvent { return f.feeds }

// Ack acknowledges that partition part's consumer has fully processed its
// OLDEST unacknowledged event — including any Table.ReadAt calls against
// that commit's snapshot. Call it once per received event, after use; the
// feed's GC pin advances past a commit once every partition has
// acknowledged it. A consumer that stops acknowledging pins the horizon
// (deliberately: that is the lagging feed the pin protects).
func (f *PartitionedFeed) Ack(part int) { f.pin.ack(part) }

// PinnedCTS reports the oldest commit timestamp the feed currently pins
// into the GC horizon (0 when nothing is pinned).
func (f *PartitionedFeed) PinnedCTS() Timestamp { return f.pin.oldest.Load() }

// Stop shuts the feed down: commits after Stop are dropped, commits
// already queued are still delivered (drain), and all partition channels
// are closed once the queue is empty. Stop is idempotent. Queued commits
// stay pinned until acknowledged, so the drain still reads correct
// historical snapshots.
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
//     empty Keys. Consumers can therefore treat the event sequence as an
//     aligned commit log and re-serialize boundaries across partitions
//     (stream.FromTablePartitioned runs them through its lane barrier).
//   - A key always hashes to the same partition, so per-key update order
//     is preserved within its partition channel.
//   - The fan-out runs on a dedicated router goroutine, off the group's
//     commit latch: the committing thread only copies the written keys
//     and enqueues (commit timestamp, keys) into a buffer of buf commits
//     (DefaultFeedBuf when buf <= 0) and blocks only when the feed falls
//     that far behind — the same backpressure discipline as Group.Watch
//     based feeds.
//   - Every undelivered commit is pinned into the context's GC horizon
//     (the pin is taken under the commit latch, before any sweep for that
//     commit can run), so historical snapshots the feed still needs are
//     never reclaimed. Consumers MUST call Ack once per received event;
//     the pin advances with the slowest partition's acknowledgements.
//
// The feed registration itself cannot be removed from the group (watcher
// registrations are permanent, as with Watch); a stopped feed's watcher
// reduces to a channel-closed check, and a stopped, drained and fully
// acknowledged feed pins nothing.
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

	pin := &feedPin{acked: make([]uint64, parts)}
	t.ctx.addFeedPin(pin)

	in := make(chan rawEvent, buf)
	stopCh := make(chan struct{})
	var (
		stopOnce sync.Once
		stopMu   sync.Mutex
		stopped  bool
		// sending tracks watchers between registration and enqueue (or
		// stop-abandon). Registration happens under stopMu with stopped
		// still false, so every Add strictly precedes stop's flip and
		// thus the router's Wait — the WaitGroup is race-free, and the
		// router's final drain runs only once no send can still be in
		// flight.
		sending sync.WaitGroup
	)
	stop := func() {
		stopOnce.Do(func() {
			stopMu.Lock()
			stopped = true
			stopMu.Unlock()
			close(stopCh)
		})
	}

	// The commit-latch side: one plain watcher (serialized by the group's
	// commit latch) that pins, copies the keys — the write set's own
	// slice is recycled once the watchers return — enqueues and returns.
	// Pinning precedes the enqueue so no sweep can run between the commit
	// becoming visible and its snapshot being protected. The pin and the
	// in-flight registration are atomic with respect to stop (stopMu, held
	// only for the non-blocking part); the send itself blocks on
	// backpressure but stays interruptible by stop — an interrupted send
	// unpins, so every pinned commit is either delivered (the router waits
	// out in-flight senders before its final drain) or unpinned, never
	// stranded.
	g.Watch(func(cts Timestamp, writes map[StateID][]string) {
		keys, ok := writes[t.id]
		if !ok {
			return
		}
		stopMu.Lock()
		if stopped {
			stopMu.Unlock()
			return
		}
		sending.Add(1)
		pin.add(cts)
		stopMu.Unlock()
		defer sending.Done()
		select {
		case <-stopCh:
			// Stop raced in while we were blocked (or about to enqueue
			// with both cases ready): if the event went undelivered it
			// must not stay pinned.
			pin.dropLast()
		case in <- rawEvent{cts: cts, keys: slices.Clone(keys)}:
		}
	})

	chans := make([]chan FeedEvent, parts)
	feeds := make([]<-chan FeedEvent, parts)
	for i := range chans {
		chans[i] = make(chan FeedEvent, buf)
		feeds[i] = chans[i]
	}

	// The router: groups each commit's keys by partition, in place, and
	// delivers every partition its run of the array. Delivery is blocking
	// — a slow partition backpressures the router and, once the in buffer
	// fills, the committing thread — and strictly in commit order, so all
	// partitions observe the same aligned event sequence. The grouping is
	// a counting sort through router-owned scratch: each key's partition,
	// the partitions' ends, and the keys in partition order, stable within
	// a partition (write-set order).
	var (
		keyPart []int
		ends    = make([]int, parts)
		grouped []string
	)
	deliver := func(ev rawEvent) {
		keys := ev.keys
		if parts == 1 {
			chans[0] <- FeedEvent{CTS: ev.cts, Keys: keys}
			return
		}
		clear(ends)
		keyPart = keyPart[:0]
		for _, k := range keys {
			p := int(keyFn(k) % uint64(parts))
			keyPart = append(keyPart, p)
			ends[p]++
		}
		for i := 1; i < parts; i++ {
			ends[i] += ends[i-1]
		}
		grouped = slices.Grow(grouped[:0], len(keys))[:len(keys)]
		for i := len(keys) - 1; i >= 0; i-- {
			p := keyPart[i]
			ends[p]--
			grouped[ends[p]] = keys[i]
		}
		copy(keys, grouped)
		clear(grouped)
		// ends[i] is now partition i's start.
		for i := range chans {
			lo, hi := ends[i], len(keys)
			if i+1 < parts {
				hi = ends[i+1]
			}
			chans[i] <- FeedEvent{CTS: ev.cts, Keys: keys[lo:hi:hi]}
		}
	}
	go func() {
		defer func() {
			for _, c := range chans {
				close(c)
			}
		}()
		for {
			select {
			case <-stopCh:
				// Drain commits already queued so a consumer that stops
				// the feed after its writers finished still sees every
				// committed change on every partition. First wait out any
				// watcher still between registration and enqueue (its send
				// is interruptible — it sees stopCh too and unpins on
				// abandon), THEN conclude on an empty buffer; otherwise an
				// enqueue racing the stop could land just after the final
				// emptiness check and sit pinned but undeliverable
				// forever.
				settled := make(chan struct{})
				go func() {
					sending.Wait()
					close(settled)
				}()
				for {
					select {
					case ev := <-in:
						deliver(ev)
					case <-settled:
						for {
							select {
							case ev := <-in:
								deliver(ev)
							default:
								return
							}
						}
					}
				}
			case ev := <-in:
				deliver(ev)
			}
		}
	}()
	return &PartitionedFeed{feeds: feeds, stop: stop, pin: pin}, nil
}
