package sistream

import (
	"sistream/internal/kv"
	"sistream/internal/lsm"
	"sistream/internal/stream"
	"sistream/internal/txn"
)

// Transactional state management (the paper's Section 4).
type (
	// Context is the global state context: registry of states, topology
	// groups and active transactions, plus the logical clock. All its
	// tables live on one base store, so every commit is one atomic store
	// batch; states on separate stores need separate contexts.
	Context = txn.Context
	// Table is a transactional, multi-versioned, queryable state.
	Table = txn.Table
	// TableOptions configures a table's commit durability.
	TableOptions = txn.TableOptions
	// Group is a topology group whose states commit atomically together.
	Group = txn.Group
	// Txn is a transaction handle.
	Txn = txn.Txn
	// Protocol is the common interface of the concurrency-control
	// protocols (SI, S2PL, BOCC).
	Protocol = txn.Protocol
	// StateID names a state; GroupID names a topology group.
	StateID = txn.StateID
	// GroupID names a topology group.
	GroupID = txn.GroupID
	// Timestamp is the logical commit timestamp.
	Timestamp = txn.Timestamp
	// FeedEvent is one committed transaction's changes to a table —
	// each written key with its committed value (shared, read-only) and
	// delete flag — restricted to one partition of a partitioned change
	// feed (Table.WatchPartitioned).
	FeedEvent = txn.FeedEvent
	// PartitionedFeed is the handle of a partitioned change feed:
	// per-partition event channels and stop control.
	PartitionedFeed = txn.PartitionedFeed
	// Chain is the serial-commit token of one windowed stream query:
	// transactions attached to a chain may overlap inside the window
	// while committing strictly in order, with conflicts between chain
	// members exempted as serial history (see TransactionsWindow).
	Chain = txn.Chain
	// CommitProfile is a topology group's observed commit-path profile:
	// committed transactions and batches (their ratio is the achieved
	// fan-in) and per-batch sync and install latency summaries
	// (Group.CommitProfile).
	CommitProfile = txn.CommitProfile
	// Snapshot is a consistent analytical read view: each table's group
	// pinned at its own LastCTS across one or more tables, all at once
	// (Context.Snapshot), serving point
	// reads, full/range/lane-parallel scans and index lookups, all
	// wait-free against writers and protected from GC until Release.
	Snapshot = txn.Snapshot
	// Index is a transactional secondary index over one table
	// (Table.CreateIndex): per index key a set of candidate rows, added
	// on the commit path and re-checked against the row's own version at
	// the reader's timestamp, so a lookup always equals the filtered scan
	// — never ahead of or behind its table under any protocol.
	Index = txn.Index
	// IndexKeyFunc derives a row's index key; ok=false excludes the row
	// (a partial index). It must be pure and cheap: it runs on the commit
	// path and again, per candidate, on every lookup.
	IndexKeyFunc = txn.IndexKeyFunc
	// IndexStats are an index's lifetime counters (Index.Stats): Puts
	// counts candidate entries added (backfill included), Deletes the
	// entries dropped — by commits that moved a row out of a set, and by
	// Table.GC, whose share is Swept — Lookups and Hits the reads.
	IndexStats = txn.IndexStats
)

// DefaultFeedBuf is the default commit buffer of change feeds (ToStream,
// FromTablePartitioned): how many commits queue before the committing
// thread blocks.
const DefaultFeedBuf = txn.DefaultFeedBuf

// Dataflow (the paper's Section 3 transaction model for streams).
type (
	// Topology is a dataflow query graph.
	Topology = stream.Topology
	// Stream is one dataflow edge.
	Stream = stream.Stream
	// Element is a data tuple or transaction punctuation.
	Element = stream.Element
	// Tuple is a stream data record.
	Tuple = stream.Tuple
	// Kind discriminates data from punctuations.
	Kind = stream.Kind
	// ParallelRegion is a keyed parallel section of a topology: P lanes
	// between a Parallelize router and a transaction-preserving Merge
	// barrier.
	ParallelRegion = stream.ParallelRegion
	// AggFunc folds a window of samples.
	AggFunc = stream.AggFunc
	// TableKey addresses one point read of QueryKeys.
	TableKey = stream.TableKey
	// KV is one row of a snapshot query result.
	KV = stream.KV
	// KeyFn is a shareable partitioning token: passing the SAME *KeyFn to
	// Parallelize / Reparallelize / FromTablePartitioned proves the stages
	// agree on key placement, which lets Reparallelize fuse lane-for-lane
	// instead of inserting a merge barrier and a fresh router.
	KeyFn = stream.KeyFn
	// AutoTune configures the self-tuning commit spine (NewAutoTuner):
	// its one field, MaxWindow, is the in-flight transaction bound (0
	// selects 64).
	AutoTune = stream.AutoTune
	// AutoTuner is the fixed in-flight bound of one self-tuning pipeline:
	// pass it to both Stream.TransactionsTuned and ParallelRegion.MergeTuned.
	// The spine then commits whatever transactions queued while the
	// previous batch was committing, up to that bound, and never holds a
	// decided transaction back to fill a batch.
	AutoTuner = stream.AutoTuner
	// AutoTunerStats is a point-in-time snapshot of a tuner
	// (AutoTuner.Stats): the in-flight bound; Grows and Shrinks are
	// always 0.
	AutoTunerStats = stream.AutoTunerStats
	// PlanStep is one step of a topology's recorded query plan
	// (Topology.Plan): its kind, name and construction decision.
	PlanStep = stream.PlanStep
)

// Base tables.
type (
	// Store is the key-value base-table interface.
	Store = kv.Store
	// LSMOptions configures the persistent store.
	LSMOptions = lsm.Options
	// StoreCapabilities are the capability flags a store declares about
	// itself — one, Durable; the group-commit leader consults it to skip
	// sync points over backends that have none.
	StoreCapabilities = kv.Capabilities
)

// Element kinds (transaction boundary punctuations).
const (
	KindData     = stream.KindData
	KindBOT      = stream.KindBOT
	KindCommit   = stream.KindCommit
	KindRollback = stream.KindRollback
)

// Re-exported constructors and helpers.
var (
	// NewContext creates an empty state context.
	NewContext = txn.NewContext
	// NewSI creates the paper's MVCC snapshot-isolation protocol.
	NewSI = txn.NewSI
	// NewS2PL creates the strict two-phase locking baseline.
	NewS2PL = txn.NewS2PL
	// NewBOCC creates the optimistic (backward validation) baseline.
	NewBOCC = txn.NewBOCC
	// IsAbort reports whether an error is a retryable transaction abort.
	IsAbort = txn.IsAbort
	// NewChain creates an empty commit chain for a windowed stream query
	// (Stream.TransactionsWindow attaches one automatically).
	NewChain = txn.NewChain
	// DefaultKeyHash is the routing hash Parallelize and the partitioned
	// change feed default to; pass it (or share a custom function)
	// wherever ingest lanes and feed partitions must agree on placement.
	DefaultKeyHash = txn.DefaultKeyHash

	// NewTopology creates an empty dataflow query.
	NewTopology = stream.New
	// MergeStreams fans several streams into one.
	MergeStreams = stream.Merge
	// ToStream is the TO_STREAM linking operator (per-commit trigger):
	// the one-partition case of FromTablePartitioned, merged — each
	// commit's rows framed by BOT/COMMIT carrying the commit timestamp.
	ToStream = stream.ToStream
	// FromTablePartitioned is the partitioned TO_STREAM linking operator:
	// per-partition commit sources exposed as the lanes of a
	// ParallelRegion, re-serialized by its Merge barrier; each row
	// carries the value its commit installed, shared read-only.
	FromTablePartitioned = stream.FromTablePartitioned
	// TableSnapshot is the ad-hoc FROM(table) snapshot query: a scan of a
	// pinned Snapshot, wait-free under all three protocols.
	TableSnapshot = stream.TableSnapshot
	// FromSnapshot streams a pinned Snapshot's rows of one table as a
	// lane-parallel scan source (the analytical FROM(table) source).
	FromSnapshot = stream.FromSnapshot
	// QueryKeys runs point reads under one pinned Snapshot across the
	// addressed tables, wait-free under all three protocols.
	QueryKeys = stream.QueryKeys
	// DataElement wraps a tuple into a stream element.
	DataElement = stream.DataElement
	// Punctuation constructs a control element.
	Punctuation = stream.Punctuation
	// NewKeyFn builds a shareable partitioning token from one key-string
	// hash, usable on both the ingest side and the feed side.
	NewKeyFn = stream.NewKeyFn
	// NewAutoTuner creates the fixed in-flight bound of a self-tuning commit
	// spine, AutoTune.MaxWindow.
	NewAutoTuner = stream.NewAutoTuner

	// NewMemStore creates a volatile in-memory base table.
	NewMemStore = func() Store { return kv.NewMem() }
	// OpenLSM opens (creating if needed) a persistent LSM base table.
	OpenLSM = func(dir string, opts LSMOptions) (Store, error) { return lsm.Open(dir, opts) }
	// StoreCapabilitiesOf returns a store's declared capability flags
	// (the conservative durable default for stores that declare none).
	StoreCapabilitiesOf = kv.CapabilitiesOf

	// Window aggregate functions.
	Sum   = stream.Sum
	Avg   = stream.Avg
	Min   = stream.Min
	Max   = stream.Max
	Count = stream.Count
)

// Errors re-exported for callers handling abort/retry loops.
var (
	ErrAborted    = txn.ErrAborted
	ErrConflict   = txn.ErrConflict
	ErrValidation = txn.ErrValidation
	ErrDeadlock   = txn.ErrDeadlock
	ErrFinished   = txn.ErrFinished
)
