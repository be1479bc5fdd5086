package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"sistream/internal/kv"
	"sistream/internal/stream"
	"sistream/internal/txn"
)

// IngestConfig parameterizes the ingest benchmark: one continuous query
// pushing Elements tuples through source → punctuate → TO_TABLE with a
// commit every CommitEvery tuples. It isolates the dataflow substrate and
// the write path of the transaction layer — the per-element costs the
// vectorized engine amortizes — from reader concurrency, which the main
// benchmark (Config) covers.
type IngestConfig struct {
	// Protocol selects the concurrency control: "mvcc", "s2pl" or "bocc".
	Protocol string
	// Backend selects the base table by kv registry spec: a backend name
	// ("mem", "lsm") or a chained spec ("cache(256)+lsm", "fault+mem").
	Backend string
	// Dir is the default data directory for persistent backend layers
	// whose spec carries no inline path.
	Dir string
	// Elements is the number of data tuples pushed through the pipeline.
	Elements int
	// CommitEvery is the Punctuate batch size (tuples per transaction).
	CommitEvery int
	// Keys is the number of distinct keys cycled through.
	Keys int
	// KeyBytes / ValueBytes shape the records.
	KeyBytes   int
	ValueBytes int
	// Sync makes commits durable before visible.
	Sync bool
	// Lanes partitions the query into parallel keyed ingest lanes
	// (stream.Parallelize): tuples are hash-routed into Lanes independent
	// operator chains with per-lane TO_TABLE write paths, re-serialized
	// at a transaction-preserving merge barrier. 0 or 1 selects the
	// sequential single-writer spine.
	Lanes int
	// Window enables the fused commit spine: up to Window consecutive
	// transactions of the query run concurrently
	// (stream.TransactionsWindow) and the barrier's commit spine submits
	// lane-complete ones to the group-commit pipeline in cross-transaction
	// batches of up to Window (stream.ParallelRegion.MergeBatched) — one
	// leader tenure, one coalesced store batch + fsync for several small
	// transactions. 0 or 1 selects the serialized spine (one commit per
	// transaction).
	Window int
	// Auto replaces the static Window with the self-tuning spine
	// (stream.AutoTune): the pipeline runs TransactionsTuned + MergeTuned
	// sharing one stream.AutoTuner, and the spine commits whatever
	// queued during the previous commit instead of holding out for a
	// window. Mutually exclusive with Window > 1.
	Auto bool
}

// DefaultIngest returns a quick single-writer in-memory configuration.
func DefaultIngest() IngestConfig {
	return IngestConfig{
		Protocol:    "mvcc",
		Backend:     "mem",
		Elements:    1_000_000,
		CommitEvery: 100,
		Keys:        100_000,
		KeyBytes:    8,
		ValueBytes:  20,
	}
}

func (c *IngestConfig) validate() error {
	switch c.Protocol {
	case "mvcc", "s2pl", "bocc":
	default:
		return fmt.Errorf("bench: unknown protocol %q", c.Protocol)
	}
	if err := validateBackend(c.Backend); err != nil {
		return err
	}
	if c.Elements < 1 || c.CommitEvery < 1 || c.Keys < 1 {
		return fmt.Errorf("bench: non-positive size parameter")
	}
	if c.Lanes < 0 {
		return fmt.Errorf("bench: negative lane count")
	}
	if c.Window < 0 {
		return fmt.Errorf("bench: negative commit window")
	}
	if c.Auto && c.Window > 1 {
		return fmt.Errorf("bench: Auto and a static Window > 1 are mutually exclusive")
	}
	if c.KeyBytes < 1 {
		c.KeyBytes = 8
	}
	if c.ValueBytes < 1 {
		c.ValueBytes = 20
	}
	return nil
}

// IngestResult is the outcome of one ingest run.
type IngestResult struct {
	Config  IngestConfig
	Elapsed time.Duration

	// Writes is the number of tuple writes applied by TO_TABLE.
	Writes int64
	// Commits / Aborts count the query's transactions.
	Commits int64
	Aborts  int64

	// ElemsPerSec is the headline metric: data elements ingested per
	// second of wall-clock time.
	ElemsPerSec float64

	// CommitTxns / CommitBatches are the group-commit pipeline counters.
	CommitTxns    uint64
	CommitBatches uint64

	// TunedWindow is the tuner's in-flight bound at the end of an Auto
	// run (0 for static runs); TunedShrinks / TunedGrows count how often
	// its latency guard halved the bound and doubled it back.
	TunedWindow  int    `json:",omitempty"`
	TunedGrows   uint64 `json:",omitempty"`
	TunedShrinks uint64 `json:",omitempty"`

	// CacheStats are the cache tier's counters when the backend spec
	// chains one ("cache(256)+lsm"); nil otherwise.
	CacheStats *kv.CacheStats `json:",omitempty"`
}

// RunIngest executes one ingest cell: a single writer pushing
// cfg.Elements tuples through source → punctuate → TO_TABLE → commit.
func RunIngest(cfg IngestConfig) (IngestResult, error) {
	if err := cfg.validate(); err != nil {
		return IngestResult{}, err
	}

	store, err := OpenStore(cfg.Backend, cfg.Dir)
	if err != nil {
		return IngestResult{}, err
	}
	defer store.Close()

	ctx := txn.NewContext()
	tbl, err := ctx.CreateTable("ingest", store, txn.TableOptions{SyncCommits: cfg.Sync})
	if err != nil {
		return IngestResult{}, err
	}
	group, err := ctx.CreateGroup("ingest", tbl)
	if err != nil {
		return IngestResult{}, err
	}
	var p txn.Protocol
	switch cfg.Protocol {
	case "mvcc":
		p = txn.NewSI(ctx)
	case "s2pl":
		p = txn.NewS2PL(ctx)
	case "bocc":
		p = txn.NewBOCC(ctx)
	}

	value := make([]byte, cfg.ValueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}

	top := stream.New("ingest")
	src := top.Source("gen", func(emit func(stream.Element)) error {
		for i := 0; i < cfg.Elements; i++ {
			emit(stream.DataElement(stream.Tuple{
				Key:   keyString(uint64(i%cfg.Keys), cfg.KeyBytes),
				Value: value,
				Ts:    int64(i),
			}))
		}
		return nil
	})
	window := cfg.Window
	if window < 1 {
		window = 1
	}
	var stats *stream.ToTableStats
	var tun *stream.AutoTuner
	if cfg.Auto {
		// Self-tuning spine: the controller sizes the window and linger
		// from the latencies this very run observes.
		tun = stream.NewAutoTuner(stream.AutoTune{})
		lanes := cfg.Lanes
		if lanes < 1 {
			lanes = 1
		}
		region := src.Punctuate(cfg.CommitEvery).TransactionsTuned(p, tun).Parallelize(lanes, nil)
		stats = region.ToTable(p, tbl)
		region.MergeTuned("merge", tun).Discard()
	} else {
		s := src.Punctuate(cfg.CommitEvery).TransactionsWindow(p, window)
		switch {
		case window > 1:
			// The fused commit spine needs the region barrier even at one
			// lane: the spine worker is what batches consecutive decided
			// transactions into one group-commit submission.
			lanes := cfg.Lanes
			if lanes < 1 {
				lanes = 1
			}
			region := s.Parallelize(lanes, nil)
			stats = region.ToTable(p, tbl)
			region.MergeBatched("merge", window).Discard()
		case cfg.Lanes > 1:
			region := s.Parallelize(cfg.Lanes, nil)
			stats = region.ToTable(p, tbl)
			region.Merge("merge").Discard()
		default:
			s, stats = s.ToTable(p, tbl)
			s.Discard()
		}
	}

	start := time.Now()
	if err := top.Run(); err != nil {
		return IngestResult{}, err
	}
	elapsed := time.Since(start)

	res := IngestResult{
		Config:  cfg,
		Elapsed: elapsed,
		Writes:  stats.Writes.Load(),
		Commits: stats.Commits.Load(),
		Aborts:  stats.Aborts.Load(),
	}
	res.CommitTxns, res.CommitBatches = group.CommitStats()
	res.ElemsPerSec = float64(res.Writes) / elapsed.Seconds()
	res.CacheStats = cacheStatsOf(store)
	if tun != nil {
		ts := tun.Stats()
		res.TunedWindow = ts.Window
		res.TunedGrows = ts.Grows
		res.TunedShrinks = ts.Shrinks
	}
	return res, nil
}

// WriteJSON renders the result as indented JSON (BENCH_ingest.json).
func (r IngestResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteIngestJSON renders a sweep of results (sibench -ingest -lanesweep
// -json) as one indented JSON array.
func WriteIngestJSON(w io.Writer, results []IngestResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// PrintIngest renders one ingest result verbosely.
func PrintIngest(w io.Writer, r IngestResult) {
	c := r.Config
	lanes := c.Lanes
	if lanes < 1 {
		lanes = 1
	}
	window := fmt.Sprint(max(c.Window, 1))
	if c.Auto {
		window = fmt.Sprintf("auto(→%d, +%d/-%d)", r.TunedWindow, r.TunedGrows, r.TunedShrinks)
	}
	fmt.Fprintf(w, "ingest protocol=%s backend=%s elements=%d commit-every=%d keys=%d sync=%t lanes=%d window=%s\n",
		c.Protocol, c.Backend, c.Elements, c.CommitEvery, c.Keys, c.Sync, lanes, window)
	fmt.Fprintf(w, "  throughput %12.0f elems/s  (%d writes in %v)\n", r.ElemsPerSec, r.Writes, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  txns       commits=%d aborts=%d\n", r.Commits, r.Aborts)
	fanIn := 0.0
	if r.CommitBatches > 0 {
		fanIn = float64(r.CommitTxns) / float64(r.CommitBatches)
	}
	fmt.Fprintf(w, "  group ci   %d txns in %d batches (fan-in %.2f)\n", r.CommitTxns, r.CommitBatches, fanIn)
	if cs := r.CacheStats; cs != nil {
		fmt.Fprintf(w, "  cache      hits=%d misses=%d evictions=%d dirty-flushed=%d resident=%d\n",
			cs.Hits, cs.Misses, cs.Evictions, cs.DirtyFlushed, cs.Resident)
	}
}
