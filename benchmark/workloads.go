package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sistream/internal/kv"
	"sistream/internal/lsm"
	"sistream/internal/stream"
	"sistream/internal/txn"
)

// spec describes one workload. Lane, partition and scan-stripe counts are
// part of the description, never derived from the host, so a number means
// the same topology on every machine.
type spec struct {
	name string
	why  string

	lsm    bool    // lsm store with SyncCommits; otherwise the mem store
	states int     // tables of the topology group, all written by every transaction
	txn    int     // tuples per transaction
	lanes  int     // 0: sequential spine. n: n keyed lanes, an n-partition feed, n downstream lanes
	window int     // static commit window; 0 selects the self-tuning window
	rate   int     // open loop: elements per second on a fixed schedule; 0: closed loop
	open   int     // closed loop: transactions the client keeps outstanding
	theta  float64 // Zipf skew of the written keys; 0: keys visited in a cycle
	reader bool    // secondary index on state 0 and one closed-loop query client

	traceElems uint64 // fixed work of the traced run
}

const (
	lanes       = 2
	scanStripes = 16
	// lateLimit is the open-loop latency limit: a later event counts as
	// failed.
	lateLimit = 100 * time.Millisecond
)

var workloads = []spec{
	{
		name:   "ingest-mem",
		why:    "closed loop, sequential spine over mem: stream hops, txn admit/install and mvcc do the work, kv/lsm none",
		states: 1, txn: 100, window: 1, open: 8, traceElems: 2_000_000,
	},
	{
		name: "pipeline-lsm",
		why:  "closed loop, 2-lane spine over lsm with fsync, feed and downstream lanes: bound by WAL fsync and commit fan-in",
		lsm:  true, states: 1, txn: 8, lanes: lanes, window: 8, open: 64, traceElems: 400_000,
	},
	{
		name: "pipeline-paced",
		why:  "open loop at 30000 elems/s through the same pipeline under the self-tuning window: event latency, not rate",
		lsm:  true, states: 1, txn: 8, lanes: lanes, rate: 30_000, traceElems: 300_000,
	},
	{
		name:   "mixed-index-mem",
		why:    "the paper's case: Zipf writes to two states with an index beside a closed-loop reader of point, index and scan queries",
		states: 2, txn: 10, window: 1, open: 80, theta: 0.9, reader: true, traceElems: 300_000,
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizes are the knobs -short shrinks; everything else is in the spec.
type sizes struct {
	keys       int
	warm       time.Duration
	slice      time.Duration
	setups     int
	traceScale uint64 // traced fixed work is divided by this
	probeScale int    // probe op counts are divided by this
}

var (
	fullSizes  = sizes{keys: 100_000, warm: 5 * time.Second, slice: time.Second, setups: 3, traceScale: 1, probeScale: 1}
	shortSizes = sizes{keys: 2_000, warm: 50 * time.Millisecond, slice: 25 * time.Millisecond, setups: 2, traceScale: 100, probeScale: 400}
)

// rig is one set-up instance of a workload: store, group, topologies and
// the benchmark-side source, sink and reader around them.
type rig struct {
	spec *spec
	in   *inputs
	tr   *tracer // nil when tracing is off

	dir    string // data directory of the lsm store
	store  kv.Store
	db     *lsm.DB // nil over mem
	ctx    *txn.Context
	tables []*txn.Table
	group  *txn.Group
	p      *txn.SI
	ix     *txn.Index
	tun    *stream.AutoTuner
	stats  []*stream.ToTableStats

	ingest   *stream.Topology
	feed     *stream.Topology // nil for the sequential spine
	stopFeed func()

	epoch time.Time
	// slots bounds a closed loop: the source takes one per transaction,
	// the sink frees it at the transaction's COMMIT. nil in an open loop.
	slots chan struct{}
	src   *source
	sink  *sink
	rd    *reader
	bad   violations
}

// setUp opens the store, preloads every key of every state, recovers the
// group from the store (CreateGroup), backfills the index and builds the
// topologies. Its duration is the setup_s metric.
func setUp(sp *spec, in *inputs, dir string, tr *tracer) (*rig, error) {
	g := &rig{spec: sp, in: in, tr: tr, dir: dir}
	if err := g.open(); err != nil {
		g.close()
		return nil, err
	}
	g.build()
	return g, nil
}

func (g *rig) open() error {
	if err := g.openStore(); err != nil {
		return err
	}
	if err := g.preload(); err != nil {
		return err
	}
	if g.tr != nil {
		g.store = &timedStore{Store: g.store, tr: g.tr}
	}
	g.ctx = txn.NewContext()
	for i := 0; i < g.spec.states; i++ {
		t, err := g.ctx.CreateTable(txn.StateID(fmt.Sprintf("state%d", i)), g.store, txn.TableOptions{SyncCommits: g.spec.lsm})
		if err != nil {
			return err
		}
		g.tables = append(g.tables, t)
	}
	var err error
	if g.group, err = g.ctx.CreateGroup("bench", g.tables...); err != nil {
		return err
	}
	g.p = txn.NewSI(g.ctx)
	if g.spec.reader {
		g.ix, err = g.tables[0].CreateIndex("bucket", bucketOf)
	}
	return err
}

func (g *rig) openStore() error {
	if !g.spec.lsm {
		g.store = kv.NewMem()
		return nil
	}
	db, err := lsm.Open(g.dir, lsm.Options{})
	if err != nil {
		return err
	}
	g.db, g.store = db, db
	return nil
}

// preload writes every key of every state through a throw-away context
// and makes it durable; over lsm the store is then reopened, so the rig's
// own CreateGroup sees exactly what a restart would: a WAL to replay and
// rows to load.
func (g *rig) preload() error {
	ctx := txn.NewContext()
	var tables []*txn.Table
	for i := 0; i < g.spec.states; i++ {
		t, err := ctx.CreateTable(txn.StateID(fmt.Sprintf("state%d", i)), g.store, txn.TableOptions{})
		if err != nil {
			return err
		}
		tables = append(tables, t)
	}
	if _, err := ctx.CreateGroup("bench", tables...); err != nil {
		return err
	}
	p := txn.NewSI(ctx)
	const batch = 1000
	ops := make([]txn.WriteOp, 0, batch)
	for lo := 0; lo < len(g.in.keys); lo += batch {
		ops = ops[:0]
		for k := lo; k < min(lo+batch, len(g.in.keys)); k++ {
			ops = append(ops, txn.WriteOp{Key: g.in.keys[k], Value: preloadValue(k)})
		}
		tx, err := p.Begin()
		if err != nil {
			return err
		}
		for _, t := range tables {
			if _, err := p.WriteBatch(tx, t, ops); err != nil {
				return err
			}
		}
		if err := p.Commit(tx); err != nil {
			return err
		}
	}
	if err := g.store.Sync(); err != nil {
		return err
	}
	if g.spec.lsm {
		if err := g.store.Close(); err != nil {
			return err
		}
		return g.openStore()
	}
	return nil
}

// build wires the topologies the spec describes.
func (g *rig) build() {
	sp := g.spec
	if sp.open > 0 {
		g.slots = make(chan struct{}, sp.open)
	}
	g.src = newSource(g)
	g.sink = newSink(g)
	g.ingest = stream.New(sp.name)
	s := g.ingest.Source("gen", g.src.run).Punctuate(sp.txn)

	if sp.lanes == 0 {
		s = s.Transactions(g.p, g.tables...)
		for _, t := range g.tables {
			var st *stream.ToTableStats
			s, st = s.ToTable(g.p, t)
			g.stats = append(g.stats, st)
		}
		s.Sink("sink", g.sink.on)
	} else {
		if sp.window > 0 {
			s = s.TransactionsWindow(g.p, sp.window)
		} else {
			g.tun = stream.NewAutoTuner(stream.AutoTune{})
			s = s.TransactionsTuned(g.p, g.tun)
		}
		region := s.Parallelize(sp.lanes, nil)
		g.stats = append(g.stats, region.ToTable(g.p, g.tables[0]))
		if sp.window > 0 {
			region.MergeBatched("merge", sp.window).Discard()
		} else {
			region.MergeTuned("merge", g.tun).Discard()
		}

		g.feed = stream.New(sp.name + "-down")
		var down *stream.ParallelRegion
		down, g.stopFeed = stream.FromTablePartitioned(g.feed, g.tables[0], sp.lanes, nil)
		down.Reparallelize("repart", sp.lanes, nil).
			Apply(g.sink.fold).
			Merge("downmerge").
			Sink("sink", g.sink.on)
	}
	if sp.reader {
		g.rd = newReader(g)
	}
	if g.tr != nil {
		g.group.Watch(g.tr.published)
	}
}

// close releases the store and removes the data directory.
func (g *rig) close() {
	for _, t := range g.tables {
		t.StopIdleGC()
	}
	if g.store != nil {
		_ = g.store.Close() // nothing written after the run is needed
	}
	if g.spec.lsm {
		_ = os.RemoveAll(g.dir)
	}
}

// plan returns the construction decisions of both topologies, without the
// live figures, for the traced-run honesty guard.
func (g *rig) plan() []string {
	var out []string
	for _, t := range []*stream.Topology{g.ingest, g.feed} {
		if t == nil {
			continue
		}
		for _, st := range t.Plan() {
			out = append(out, fmt.Sprintf("%s %s %s: %s", t.Name(), st.Kind, st.Name, st.Detail))
		}
	}
	return out
}

// runPlan says how long a run lasts: a warm-up and a measured window cut
// into slices, or (traced runs) a fixed number of elements.
type runPlan struct {
	warm, measure, slice time.Duration
	elems                uint64
}

func (pl runPlan) fixedWork() bool { return pl.elems > 0 }

// run drives the workload once and returns when everything has drained.
func (g *rig) run(pl runPlan) (*outcome, error) {
	g.src.plan, g.sink.plan = pl, pl
	sl := newSlicer(pl, &g.sink.delivered)
	if g.rd != nil {
		sl.watch(&g.rd.queries)
	}

	g.epoch = time.Now()
	if g.tr != nil {
		g.tr.epoch = g.epoch
	}
	go sl.run(g.epoch)
	if g.rd != nil {
		go g.rd.run()
	}
	if g.feed != nil {
		g.feed.Start()
	}
	err := g.ingest.Run()
	ingestDone := time.Since(g.epoch)
	if g.rd != nil {
		g.rd.halt()
	}
	if g.feed != nil {
		g.stopFeed()
		if ferr := g.feed.Wait(); err == nil {
			err = ferr
		}
	}
	elapsed := time.Since(g.epoch)
	sl.halt()
	if err != nil {
		return nil, err
	}
	return g.collect(pl, sl, ingestDone, elapsed), nil
}

func dataDir(base, name string, n int) string {
	return filepath.Join(base, fmt.Sprintf("data-%s-%d-%d", name, os.Getpid(), n))
}
