package txn

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sistream/internal/kv"
	"sistream/internal/metrics"
)

// maxActiveTxns bounds the active-transaction table. The paper manages
// transaction slots with 64-bit CAS bit vectors; we keep that design and
// use several words.
const maxActiveTxns = 1024

// Context is the global state context of the paper's Figure 3: the
// registry of states and topology groups, the table of active
// transactions, and the global atomic timestamp counter. Slot management
// is latch-free (CAS on bit-vector words). The transaction path never
// consults the registry: it holds the *Table and *Group it works on.
//
// A context keeps all its tables on one base store, so every commit
// batch — plain, chained or spanning groups — is one atomic store Apply:
// the store's own failure atomicity is the transaction's. States on
// separate stores need separate contexts.
type Context struct {
	counter atomic.Uint64 // global logical clock: txn IDs and commit timestamps

	// store is the base store of every table, recorded by the first
	// CreateTable (under mu, before any table exists), and caps its
	// capability flags.
	store kv.Store
	caps  kv.Capabilities

	// spanning is odd while a commit spanning groups publishes its LastCTS
	// to them one group after another; pinGroups reads groups only while
	// it is even (see commitBatch phase 5).
	spanning atomic.Uint64

	// mu guards the registry's two maps, and is held for map access only.
	mu     sync.RWMutex
	states map[StateID]*Table
	groups map[GroupID]*Group

	// setupMu serializes group creation: CreateGroup validates and claims
	// the member tables' group pointers and recovers their rows. Lookups
	// never take it.
	setupMu sync.Mutex

	// Active transaction table: a fixed slot array managed by CAS bit
	// vectors, scanned to derive OldestActiveVersion for GC.
	slotWords [maxActiveTxns / 64]atomic.Uint64
	slots     [maxActiveTxns]atomic.Pointer[Txn]

	// recent is the BOCC history of committed write sets (see bocc.go).
	recent recentCommits
}

// NewContext creates an empty state context.
func NewContext() *Context {
	return &Context{states: make(map[StateID]*Table), groups: make(map[GroupID]*Group)}
}

// next returns the next logical timestamp.
func (c *Context) next() Timestamp { return c.counter.Add(1) }

// Now returns the current value of the logical clock without advancing it.
func (c *Context) Now() Timestamp { return c.counter.Load() }

// advanceTo raises the logical clock to at least ts (used by recovery so
// new transactions sort after recovered commits).
func (c *Context) advanceTo(ts Timestamp) {
	for {
		cur := c.counter.Load()
		if cur >= ts || c.counter.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// register allocates a slot for t in the active-transaction table.
func (c *Context) register(t *Txn) error {
	for w := range c.slotWords {
		for {
			word := c.slotWords[w].Load()
			free := ^word
			if free == 0 {
				break // word full, try next
			}
			bit := bits.TrailingZeros64(free)
			if c.slotWords[w].CompareAndSwap(word, word|1<<uint(bit)) {
				slot := w*64 + bit
				t.slot = slot
				c.slots[slot].Store(t)
				return nil
			}
		}
	}
	return ErrTooManyTxns
}

// unregister frees t's slot.
func (c *Context) unregister(t *Txn) {
	slot := t.slot
	c.slots[slot].Store(nil)
	w, bit := slot/64, uint(slot%64)
	for {
		word := c.slotWords[w].Load()
		if c.slotWords[w].CompareAndSwap(word, word&^(1<<bit)) {
			return
		}
	}
}

// OldestActiveVersion returns the garbage-collection horizon: the minimum
// snapshot any active transaction may still read. Versions whose
// deletion timestamp is at or below it are invisible to everyone and
// reclaimable. With no active readers the horizon is the current clock.
func (c *Context) OldestActiveVersion() Timestamp {
	oldest := c.counter.Load()
	for w := range c.slotWords {
		word := c.slotWords[w].Load()
		for ; word != 0; word &= word - 1 {
			slot := w*64 + bits.TrailingZeros64(word)
			t := c.slots[slot].Load()
			if t == nil {
				continue // slot being released concurrently
			}
			if p := t.pinnedOldest.Load(); p != 0 && p < oldest {
				oldest = p
			}
		}
	}
	return oldest
}

// ActiveCount returns the number of registered transactions (diagnostic).
func (c *Context) ActiveCount() int {
	n := 0
	for w := range c.slotWords {
		n += bits.OnesCount64(c.slotWords[w].Load())
	}
	return n
}

// Table returns the registered table named id.
func (c *Context) Table(id StateID) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.states[id]
	return t, ok
}

// Group is a topology group: the states written together by one
// continuous query. LastCTS is the commit timestamp of the group's most
// recent globally committed transaction — the single atomically published
// word that makes a whole multi-state commit visible.
type Group struct {
	id     GroupID
	ctx    *Context
	tables []*Table
	// solo is []*Group{g}: the latch set of a commit confined to this
	// group, built once so the commit hot path never allocates it.
	solo []*Group

	lastCTS atomic.Uint64

	// failure, when non-nil, is the group's sticky fail-stop record: a
	// durability or install error poisoned the group and every further
	// commit fails fast with the wrapped error (see failstop.go). Reads
	// keep serving. Set once via CAS; never cleared.
	failure atomic.Pointer[groupFailure]

	// Group-commit pipeline. The paper's short commit-time critical
	// section serialized whole commits; here concurrent committers instead
	// enqueue their validated transactions on pending. The first committer
	// to find no leader active claims leadership and commits one drained
	// batch: it admits each transaction in arrival order against a batch
	// overlay, assigns a contiguous commit-timestamp range, persists ONE
	// coalesced store batch (one fsync amortized over the whole batch),
	// installs all versions, and publishes LastCTS once. Followers
	// park on their request's ready channel and are woken with the
	// recorded verdict — or with the leadership baton, when the retiring
	// leader leaves pending requests behind (one-batch tenures keep any
	// single committer from serving the queue indefinitely). commitMu is
	// the exclusivity latch: a leader holds it for its tenure, and a
	// transaction spanning groups takes the commitMu of every involved
	// group in canonical order instead of queueing (see installCommit). qmu
	// guards pending, pendingSubs, leaderActive and the queue handoff only
	// and is never held across I/O.
	commitMu     sync.Mutex
	qmu          sync.Mutex
	pending      []*commitReq
	pendingSubs  int // submissions (groupCommitMany calls) in pending
	leaderActive bool
	wake         chan struct{} // nudges a leader collecting its next batch
	batchTarget  int           // previous batch's submitter count; leader-owned under commitMu
	linger       *time.Timer   // the collecting leader's timer; leader-owned under commitMu
	// spare is the emptied array of the last drained batch, which the
	// next drain hands to pending; leader-owned under commitMu.
	spare []*commitReq

	// scratch is the leader's durability-batch scratch, reused across
	// tenures; leader-owned under commitMu (see storeScratch).
	scratch *storeBatch

	// Pipeline counters (diagnostics and bench reporting): transactions
	// globally committed through this group and the number of leader
	// batches that carried them. txns/batches is the achieved group-commit
	// fan-in.
	commitTxns    atomic.Uint64
	commitBatches atomic.Uint64

	// Commit-profile instrumentation (CommitProfile): per-batch latency of
	// the durability phase (the store Apply — the fsync when SyncCommits is
	// set) and of the in-memory admission+install work around it.
	// Recording is a handful of atomic adds per BATCH (not per
	// transaction), cheap enough to leave always on. It is a diagnostic for
	// benchmarks and tests; nothing in the engine reads it.
	syncHist    metrics.Histogram
	installHist metrics.Histogram

	// hooks are the commit listeners (TO_STREAM trigger policy "per
	// transaction commit"); they run synchronously right after LastCTS is
	// published, still under the commit latch, so they must be fast and
	// must not call back into the protocol. Copy-on-write under hookMu;
	// nil until the first is added. Each is held by its own pointer, which
	// its remover looks for.
	hookMu sync.Mutex
	hooks  atomic.Pointer[[]*commitHook]
	// writes is the map Watch hands its watchers, refilled per commit;
	// owned under commitMu.
	writes map[StateID][]string
}

// CommitProfile is a point-in-time digest of the group-commit pipeline's
// observed behavior (Group.CommitProfile), a diagnostic for benchmarks
// and tests. All latencies are per BATCH, in nanoseconds.
type CommitProfile struct {
	// Txns is the number of transactions globally committed through the
	// group, Batches the number of group-commit batches that carried them;
	// Txns/Batches is the achieved commit fan-in (1.0 = no batching).
	Txns, Batches uint64
	// Sync summarizes the durability phase per batch: the coalesced store
	// Apply, which is the fsync when the table opts into SyncCommits.
	Sync metrics.Summary
	// Install summarizes the non-durability commit work per batch:
	// admission, version install and visibility publish.
	Install metrics.Summary
}

// CommitProfile snapshots the group's commit-pipeline instrumentation:
// lifetime fan-in counters and per-batch durability (fsync) and install
// latency summaries.
func (g *Group) CommitProfile() CommitProfile {
	return CommitProfile{
		Txns:    g.commitTxns.Load(),
		Batches: g.commitBatches.Load(),
		Sync:    g.syncHist.Snapshot(),
		Install: g.installHist.Snapshot(),
	}
}

// CommitWatcher observes global commits of a group: the commit timestamp
// and, per state, the keys written (deletes included). The map and its
// slices are valid only during the call: the map is reused for the
// group's next commit, and the slices are the write set's own, recycled
// with the transaction. Watchers must not modify either and copy the
// keys they keep. A watcher that needs the written values too is a
// partitioned feed (Table.WatchPartitioned), whose events carry them.
type CommitWatcher func(cts Timestamp, writes map[StateID][]string)

// commitHook observes one transaction's global commit on a group: its
// commit timestamp and its state entries — every state it touched, of
// any group, deduplicated write sets included; a hook picks its own.
// The entries are valid only during the call.
type commitHook func(cts Timestamp, states []*stateEntry)

// Watch registers a commit listener. Listeners run on the committing
// goroutine under the group's commit latch — the hook for TO_STREAM's
// per-commit trigger policy (Section 3, "trigger policy ... to rely on
// transaction commits"). A commit that wrote none of the group's states
// is not reported.
func (g *Group) Watch(w CommitWatcher) {
	g.hook(func(cts Timestamp, states []*stateEntry) {
		writes := g.writes
		clear(writes)
		for _, e := range states {
			if e.table.Group() != g || len(e.order) == 0 {
				continue
			}
			if writes == nil {
				writes = make(map[StateID][]string)
				g.writes = writes
			}
			writes[e.table.id] = e.order
		}
		if len(writes) > 0 {
			w(cts, writes)
		}
	})
}

// hook registers a commit hook and returns its remover, which may be
// called any number of times. A commit batch that loaded the hook list
// before the removal may still call the hook once.
func (g *Group) hook(h commitHook) (remove func()) {
	p := &h
	g.hookMu.Lock()
	defer g.hookMu.Unlock()
	next := append(slices.Clone(g.hooked()), p)
	g.hooks.Store(&next)
	return func() {
		g.hookMu.Lock()
		defer g.hookMu.Unlock()
		next := slices.DeleteFunc(slices.Clone(g.hooked()), func(q *commitHook) bool { return q == p })
		g.hooks.Store(&next)
	}
}

// hooked returns the registered commit hooks.
func (g *Group) hooked() []*commitHook {
	if hs := g.hooks.Load(); hs != nil {
		return *hs
	}
	return nil
}

// ID returns the group identifier.
func (g *Group) ID() GroupID { return g.id }

// LastCTS returns the group's last globally committed timestamp.
func (g *Group) LastCTS() Timestamp { return g.lastCTS.Load() }

// Tables returns the member tables (do not modify).
func (g *Group) Tables() []*Table { return g.tables }

// CreateGroup registers a topology group over the given tables, wiring
// each table to the group and recovering persistent state: committed
// rows are loaded back into the in-memory version store at the recovered
// LastCTS, exactly reproducing the visibility they had before shutdown.
// The member tables load in parallel, one loader per table and at most
// GOMAXPROCS at once (see loadTables); if one fails, CreateGroup returns
// its error, naming the table, and no table gets a row or the group.
// A table may belong to only one group (its writing query); additional
// readers access it through the group of the query that owns it. All
// members live on the context's one base store (see CreateTable), so a
// commit over any set of groups is one atomic store batch; states on
// separate stores need separate contexts.
func (c *Context) CreateGroup(id GroupID, tables ...*Table) (*Group, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("txn: group %q needs at least one table", id)
	}
	// setupMu serializes creators; the registry's mu is taken for the map
	// accesses only, so lookups never wait behind a recovery.
	c.setupMu.Lock()
	defer c.setupMu.Unlock()
	c.mu.RLock()
	_, dup := c.groups[id]
	c.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("txn: group %q already exists", id)
	}
	for _, t := range tables {
		if tg := t.Group(); tg != nil {
			return nil, fmt.Errorf("txn: table %q already in group %q", t.id, tg.id)
		}
	}
	g := &Group{id: id, ctx: c, tables: slices.Clone(tables), wake: make(chan struct{}, 1),
		scratch: &storeBatch{batch: kv.NewBatch(0)}}
	g.solo = []*Group{g}

	// Recovery: every commit batch writes the watermark of each table it
	// touched, so a member the last batches did not touch carries an older
	// one; the group's recovered timestamp is the maximum across members.
	var recovered Timestamp
	for _, t := range tables {
		ts, err := t.readMetaCTS()
		if err != nil {
			return nil, fmt.Errorf("txn: recover group %q: %w", id, err)
		}
		if ts > recovered {
			recovered = ts
		}
	}
	if recovered > 0 {
		// The tables load in parallel, each into shards of its own, and
		// every loader finishes before anything is published: the rows
		// then enter their tables under the group's commit latch — its
		// holder is the only goroutine that inserts rows — and before the
		// group is published, since a snapshot pinning the recovered
		// LastCTS over a half-loaded table would see rows missing.
		built, err := loadTables(tables, recovered)
		if err != nil {
			return nil, err
		}
		g.commitMu.Lock()
		for i, t := range tables {
			for j := range t.shards {
				sh := &t.shards[j]
				sh.mu.Lock()
				sh.slots, sh.n = built[i][j].slots, built[i][j].n
				sh.mu.Unlock()
			}
		}
		g.commitMu.Unlock()
		c.advanceTo(recovered)
		g.lastCTS.Store(recovered)
	}
	// Publish: from here a table is usable transactionally and a snapshot
	// can pin the group's LastCTS.
	for _, t := range tables {
		t.group.Store(g)
	}
	c.mu.Lock()
	c.groups[id] = g
	c.mu.Unlock()
	return g, nil
}

// lockGroups acquires the commit mutexes of all groups in the order
// given, which must be the canonical one (by ID, see txGroups) to keep
// cross-group commits deadlock-free.
func lockGroups(groups []*Group) {
	for _, g := range groups {
		g.commitMu.Lock()
	}
}

func unlockGroups(groups []*Group) {
	for i := len(groups) - 1; i >= 0; i-- {
		groups[i].commitMu.Unlock()
	}
}
