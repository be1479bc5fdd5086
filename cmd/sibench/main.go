// Command sibench regenerates the paper's evaluation (Section 5): the two
// panels of Figure 4 (throughput vs. contention for 4 and 24 concurrent
// ad-hoc queries under MVCC, S2PL and BOCC), the prose claims C1–C3, and
// the commit-path scaling sweep listed in DESIGN.md. The dataflow spine
// (ingest, feed, pipeline, mixed read/write) is measured by the gated
// benchmark in benchmark/, not here.
//
// Usage:
//
//	sibench -figure 4                    # both Figure 4 panels
//	sibench -claim c1|c2|c3              # Section 5 prose claims
//	sibench -cell -protocol mvcc -theta 2 -readers 24   # one cell
//	sibench -scaling                     # commit-path scaling: writers 1..16
//	sibench -csv                         # CSV instead of tables
//
// Scale knobs: -tablesize (paper: 1000000), -duration per cell, -backend
// for the base table (mem or lsm), -dir for the lsm data directories.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sistream/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sibench:", err)
		os.Exit(1)
	}
}

// flags is sibench's whole command-line surface: four modes and the
// parameters of a cell.
type flags struct {
	*flag.FlagSet
	figure  int
	claim   string
	cell    bool
	scaling bool
	csv     bool
	dir     string
	base    bench.Config
}

func newFlags() *flags {
	f := &flags{FlagSet: flag.NewFlagSet("sibench", flag.ExitOnError), base: bench.Default()}
	f.IntVar(&f.figure, "figure", 0, "reproduce figure 4 (both panels)")
	f.StringVar(&f.claim, "claim", "", "reproduce a Section 5 claim: c1, c2 or c3")
	f.BoolVar(&f.cell, "cell", false, "run a single cell with the flags below")
	f.BoolVar(&f.scaling, "scaling", false, "sweep concurrent writers to show group-commit scaling")
	f.BoolVar(&f.csv, "csv", false, "CSV output")
	f.StringVar(&f.dir, "dir", "", "data directory for the lsm backend (default: temp)")
	b := &f.base
	f.StringVar(&b.Protocol, "protocol", b.Protocol, "mvcc | s2pl | bocc")
	f.StringVar(&b.Backend, "backend", b.Backend, "base table: mem | lsm")
	f.IntVar(&b.TableSize, "tablesize", b.TableSize, "keys per state (paper: 1000000)")
	f.IntVar(&b.Readers, "readers", b.Readers, "concurrent ad-hoc queries")
	f.IntVar(&b.Writers, "writers", b.Writers, "continuous writer queries")
	f.IntVar(&b.TxnOps, "ops", b.TxnOps, "operations per transaction")
	f.Float64Var(&b.Theta, "theta", b.Theta, "Zipfian contention level")
	f.DurationVar(&b.Duration, "duration", b.Duration, "measured interval per cell")
	f.BoolVar(&b.Sync, "sync", b.Sync, "synchronous (durable) commits")
	f.BoolVar(&b.CheckConsistency, "check", b.CheckConsistency, "enable the multi-state consistency checker")
	f.IntVar(&b.States, "states", b.States, "states per topology group")
	return f
}

// run parses args, runs the selected mode and writes its report to out.
func run(args []string, out io.Writer) error {
	f := newFlags()
	if err := f.Parse(args); err != nil {
		return err
	}
	root := f.dir
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "sibench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(root)
	}
	// Every cell gets a FRESH directory — re-opening a shared one would
	// replay earlier cells' data into the measured run.
	cellDirs := 0
	dirFor := func(string, float64) string {
		cellDirs++
		return filepath.Join(root, fmt.Sprintf("cell-%03d", cellDirs))
	}

	switch {
	case f.figure == 4:
		return runFigure4(out, f.base, dirFor, f.csv)
	case f.scaling:
		return runScaling(out, f.base, dirFor, f.csv)
	case f.claim != "":
		return runClaim(out, f.claim, f.base, dirFor)
	case f.cell:
		f.base.Dir = dirFor("", 0)
		res, err := bench.Run(f.base)
		if err != nil {
			return err
		}
		if f.csv {
			bench.PrintCSV(out, []bench.Result{res})
		} else {
			bench.PrintResult(out, res)
		}
	default:
		f.Usage()
		os.Exit(2)
	}
	return nil
}

var (
	figureThetas    = []float64{0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0}
	figureProtocols = []string{"mvcc", "s2pl", "bocc"}
)

// runFigure4 reproduces both panels: readers = 4 and readers = 24,
// theta swept 0..3, all three protocols.
func runFigure4(out io.Writer, base bench.Config, dirFor func(string, float64) string, csv bool) error {
	var all []bench.Result
	for _, readers := range []int{4, 24} {
		cfg := base
		cfg.Readers = readers
		results, err := bench.Sweep(cfg, figureProtocols, figureThetas, dirFor)
		if err != nil {
			return err
		}
		all = append(all, results...)
		if !csv {
			title := fmt.Sprintf("Figure 4: contention sweep, concurrent ad-hoc queries = %d "+
				"(tablesize=%d, ops=%d, sync=%t, backend=%s, %s/cell)",
				readers, cfg.TableSize, cfg.TxnOps, cfg.Sync, cfg.Backend, cfg.Duration)
			bench.PrintFigure(out, title, results)
			fmt.Fprintln(out)
		}
	}
	if csv {
		bench.PrintCSV(out, all)
	}
	return nil
}

// runScaling sweeps the number of concurrent writer queries at fixed
// contention to show how the group-commit pipeline scales the commit
// path: throughput should rise with writers while the commit fan-in
// (transactions per leader batch, i.e. per fsync) grows.
func runScaling(out io.Writer, base bench.Config, dirFor func(string, float64) string, csv bool) error {
	var all []bench.Result
	if !csv {
		fmt.Fprintf(out, "Commit-path scaling: %s, readers=%d, theta=%.2f, sync=%t, backend=%s\n",
			base.Protocol, base.Readers, base.Theta, base.Sync, base.Backend)
		fmt.Fprintf(out, "%-10s %14s %14s %12s %12s\n", "writers", "writer-tps", "total-tps", "fan-in", "abort-rate")
	}
	for _, writers := range []int{1, 2, 4, 8, 16} {
		cfg := base
		cfg.Writers = writers
		cfg.Dir = dirFor("scaling", float64(writers))
		res, err := bench.Run(cfg)
		if err != nil {
			return err
		}
		all = append(all, res)
		if !csv {
			fmt.Fprintf(out, "%-10d %14.1f %14.1f %12.2f %11.1f%%\n",
				writers, res.WriterTps, res.TotalTps, res.CommitFanIn(), res.AbortRate()*100)
		}
	}
	if csv {
		bench.PrintCSV(out, all)
	}
	return nil
}

// runClaim reproduces one of the Section 5 prose claims.
func runClaim(out io.Writer, name string, base bench.Config, dirFor func(string, float64) string) error {
	switch name {
	case "c1":
		// BOCC ~5% faster than MVCC at low contention, many readers.
		fmt.Fprintln(out, "Claim C1: BOCC slightly ahead of MVCC at low contention with many ad-hoc queries")
		cfg := base
		cfg.Readers = 24
		cfg.Theta = 0
		for _, proto := range []string{"mvcc", "bocc"} {
			cfg.Protocol = proto
			cfg.Dir = dirFor(proto, 0)
			res, err := bench.Run(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  %-5s %10.1f Ktps\n", proto, res.TotalTps/1000)
		}
	case "c2":
		// Readers dominate total throughput under synchronous writes.
		fmt.Fprintln(out, "Claim C2: with synchronous persistence, readers contribute almost all throughput")
		for _, readers := range []int{4, 24} {
			cfg := base
			cfg.Protocol = "mvcc"
			cfg.Readers = readers
			cfg.Dir = dirFor("mvcc", float64(readers))
			res, err := bench.Run(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  readers=%-3d reader-tps=%10.1f writer-tps=%8.1f reader-share=%5.1f%%\n",
				readers, res.ReaderTps, res.WriterTps, 100*res.ReaderTps/res.TotalTps)
		}
	case "c3":
		// ACID maintained under extreme parallelism and contention.
		fmt.Fprintln(out, "Claim C3: no isolation/consistency violations at theta=2.9 with 24 readers")
		var violations int64
		for _, proto := range figureProtocols {
			cfg := base
			cfg.Protocol = proto
			cfg.Readers = 24
			cfg.Theta = 2.9
			cfg.CheckConsistency = true
			cfg.Dir = dirFor(proto, 2.9)
			res, err := bench.Run(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  %-5s committed-reads=%-9d violations=%d\n", proto, res.ReaderCommits, res.Violations)
			violations += res.Violations
		}
		if violations > 0 {
			return fmt.Errorf("claim c3 refuted: %d consistency violations", violations)
		}
	default:
		return fmt.Errorf("unknown claim %q (want c1, c2 or c3)", name)
	}
	return nil
}
