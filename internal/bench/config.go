// Package bench implements the paper's micro-benchmark (Section 5): one
// continuous stream query writing two states of a topology group in
// medium-sized transactions, and N concurrent ad-hoc queries reading from
// both states, with contention controlled by a Zipfian key distribution.
// The harness sweeps contention (theta), reader counts and protocols to
// regenerate Figure 4 and the quantitative claims, plus the ablations
// listed in DESIGN.md.
package bench

import (
	"fmt"
	"time"
)

// Config parameterizes one benchmark cell. The zero value is not valid;
// use Default and override.
type Config struct {
	// Protocol selects the concurrency control: "mvcc", "s2pl" or
	// "bocc".
	Protocol string
	// Backend selects the base table: "mem" or "lsm" (the paper uses a
	// persistent LSM store, RocksDB).
	Backend string
	// Dir is the lsm backend's data directory.
	Dir string
	// States is the number of tables in the topology group (paper: 2).
	States int
	// TableSize is the number of preloaded keys per state (paper: 1M).
	TableSize int
	// KeyBytes / ValueBytes shape the records (paper: 4 B / 20 B).
	KeyBytes   int
	ValueBytes int
	// Writers is the number of continuous writer queries (paper: 1).
	Writers int
	// Readers is the number of concurrent ad-hoc queries (paper: 4, 24).
	Readers int
	// TxnOps is the number of operations per transaction (paper: 10,
	// "medium length").
	TxnOps int
	// Theta is the Zipfian contention level (paper: 0 .. 3).
	Theta float64
	// Duration is the measured interval.
	Duration time.Duration
	// Sync makes commits durable before visible (paper: sync = true).
	Sync bool
	// CheckConsistency interleaves a multi-state invariant token into the
	// workload and verifies reader snapshots (claim C3). Slightly reduces
	// raw throughput.
	CheckConsistency bool
	// Seed makes key sequences reproducible.
	Seed int64
}

// Default returns the paper's parameters scaled to a quick local run:
// table size defaults to 100k keys (the paper's 1M is available via
// cmd/sibench -tablesize).
func Default() Config {
	return Config{
		Protocol:   "mvcc",
		Backend:    "lsm",
		States:     2,
		TableSize:  100_000,
		KeyBytes:   4,
		ValueBytes: 20,
		Writers:    1,
		Readers:    4,
		TxnOps:     10,
		Theta:      0,
		Duration:   2 * time.Second,
		Sync:       true,
		Seed:       1,
	}
}

// validate normalizes and checks the configuration.
func (c *Config) validate() error {
	switch c.Protocol {
	case "mvcc", "s2pl", "bocc":
	default:
		return fmt.Errorf("bench: unknown protocol %q", c.Protocol)
	}
	switch c.Backend {
	case "mem":
	case "lsm":
		if c.Dir == "" {
			return fmt.Errorf("bench: backend lsm needs a data directory")
		}
	default:
		return fmt.Errorf("bench: unknown backend %q (mem or lsm)", c.Backend)
	}
	if c.States < 1 || c.TableSize < 1 || c.TxnOps < 1 || c.Writers < 0 || c.Readers < 0 {
		return fmt.Errorf("bench: non-positive size parameter")
	}
	if c.Writers+c.Readers == 0 {
		return fmt.Errorf("bench: no workers")
	}
	if c.KeyBytes < 1 {
		c.KeyBytes = 4
	}
	if c.ValueBytes < 1 {
		c.ValueBytes = 20
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	return nil
}

// Result is one benchmark cell's outcome.
type Result struct {
	Config Config

	// Elapsed is the measured wall-clock interval.
	Elapsed time.Duration

	// ReaderCommits / ReaderAborts count ad-hoc query transactions.
	ReaderCommits int64
	ReaderAborts  int64
	// WriterCommits / WriterAborts count stream batch transactions.
	WriterCommits int64
	WriterAborts  int64

	// TotalTps is committed transactions per second, readers + writers —
	// the paper's Figure 4 y-axis ("Throughput (K tps)").
	TotalTps  float64
	ReaderTps float64
	WriterTps float64

	// ReadP50/P99 and CommitP50/P99 are latency quantiles (ns).
	ReadP50, ReadP99     int64
	CommitP50, CommitP99 int64

	// Violations counts consistency-check failures (must stay 0).
	Violations int64

	// CommitTxns / CommitBatches are the group-commit pipeline counters:
	// transactions globally committed and the leader batches that carried
	// them. Their ratio is the achieved commit fan-in (1.0 = every commit
	// paid its own store batch and fsync; higher = amortization).
	CommitTxns    uint64
	CommitBatches uint64
}

// CommitFanIn returns transactions per group-commit batch (0 when no
// transaction committed).
func (r Result) CommitFanIn() float64 {
	if r.CommitBatches == 0 {
		return 0
	}
	return float64(r.CommitTxns) / float64(r.CommitBatches)
}

// AbortRate returns aborted / started transactions over all workers.
func (r Result) AbortRate() float64 {
	total := r.ReaderCommits + r.ReaderAborts + r.WriterCommits + r.WriterAborts
	if total == 0 {
		return 0
	}
	return float64(r.ReaderAborts+r.WriterAborts) / float64(total)
}
