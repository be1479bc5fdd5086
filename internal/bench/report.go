package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Sweep runs one cell per (protocol, theta) pair with everything else
// fixed, mirroring one panel of the paper's Figure 4. dirFor, when set,
// names each cell's data directory: a persistent backend handed the same
// directory twice would replay the earlier cell's data into the next one.
func Sweep(base Config, protocols []string, thetas []float64, dirFor func(proto string, theta float64) string) ([]Result, error) {
	var out []Result
	for _, proto := range protocols {
		for _, theta := range thetas {
			cfg := base
			cfg.Protocol = proto
			cfg.Theta = theta
			if dirFor != nil {
				cfg.Dir = dirFor(proto, theta)
			}
			r, err := Run(cfg)
			if err != nil {
				return out, fmt.Errorf("bench: %s theta=%g: %w", proto, theta, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// PrintFigure renders a panel like the paper's Figure 4: one row per
// theta, one throughput column (K tps) per protocol.
func PrintFigure(w io.Writer, title string, results []Result) {
	protocols := orderedProtocols(results)
	thetas := orderedThetas(results)
	cell := map[string]map[float64]Result{}
	for _, r := range results {
		if cell[r.Config.Protocol] == nil {
			cell[r.Config.Protocol] = map[float64]Result{}
		}
		cell[r.Config.Protocol][r.Config.Theta] = r
	}
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-10s", "theta")
	for _, p := range protocols {
		fmt.Fprintf(w, "%14s", strings.ToUpper(p)+" Ktps")
	}
	fmt.Fprintf(w, "    %s\n", "abort-rate")
	for _, th := range thetas {
		fmt.Fprintf(w, "%-10.2f", th)
		var aborts []string
		for _, p := range protocols {
			r := cell[p][th]
			fmt.Fprintf(w, "%14.1f", r.TotalTps/1000)
			aborts = append(aborts, fmt.Sprintf("%s=%.0f%%", p, r.AbortRate()*100))
		}
		fmt.Fprintf(w, "    %s\n", strings.Join(aborts, " "))
	}
}

// PrintCSV emits machine-readable rows for plotting.
func PrintCSV(w io.Writer, results []Result) {
	fmt.Fprintln(w, "protocol,backend,readers,writers,theta,table_size,txn_ops,sync,duration_s,"+
		"total_tps,reader_tps,writer_tps,reader_commits,reader_aborts,writer_commits,writer_aborts,"+
		"abort_rate,read_p50_ns,read_p99_ns,commit_p50_ns,commit_p99_ns,violations,commit_fan_in")
	for _, r := range results {
		c := r.Config
		fmt.Fprintf(w, "%s,%s,%d,%d,%g,%d,%d,%t,%.2f,%.1f,%.1f,%.1f,%d,%d,%d,%d,%.4f,%d,%d,%d,%d,%d,%.2f\n",
			c.Protocol, c.Backend, c.Readers, c.Writers, c.Theta, c.TableSize, c.TxnOps, c.Sync,
			r.Elapsed.Seconds(), r.TotalTps, r.ReaderTps, r.WriterTps,
			r.ReaderCommits, r.ReaderAborts, r.WriterCommits, r.WriterAborts,
			r.AbortRate(), r.ReadP50, r.ReadP99, r.CommitP50, r.CommitP99, r.Violations, r.CommitFanIn())
	}
}

// PrintResult renders one cell verbosely.
func PrintResult(w io.Writer, r Result) {
	c := r.Config
	fmt.Fprintf(w, "protocol=%s backend=%s readers=%d writers=%d theta=%.2f ops=%d sync=%t\n",
		c.Protocol, c.Backend, c.Readers, c.Writers, c.Theta, c.TxnOps, c.Sync)
	fmt.Fprintf(w, "  total      %10.1f tps  (readers %.1f, writers %.1f)\n", r.TotalTps, r.ReaderTps, r.WriterTps)
	fmt.Fprintf(w, "  commits    reader=%d writer=%d\n", r.ReaderCommits, r.WriterCommits)
	fmt.Fprintf(w, "  aborts     reader=%d writer=%d (rate %.2f%%)\n", r.ReaderAborts, r.WriterAborts, r.AbortRate()*100)
	fmt.Fprintf(w, "  read lat   p50=%v p99=%v\n", time.Duration(r.ReadP50), time.Duration(r.ReadP99))
	fmt.Fprintf(w, "  commit lat p50=%v p99=%v\n", time.Duration(r.CommitP50), time.Duration(r.CommitP99))
	fmt.Fprintf(w, "  group ci   %d txns in %d batches (fan-in %.2f)\n", r.CommitTxns, r.CommitBatches, r.CommitFanIn())
	if r.Config.CheckConsistency {
		fmt.Fprintf(w, "  consistency violations: %d\n", r.Violations)
	}
}

func orderedProtocols(results []Result) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range results {
		if !seen[r.Config.Protocol] {
			seen[r.Config.Protocol] = true
			out = append(out, r.Config.Protocol)
		}
	}
	return out
}

func orderedThetas(results []Result) []float64 {
	var out []float64
	seen := map[float64]bool{}
	for _, r := range results {
		if !seen[r.Config.Theta] {
			seen[r.Config.Theta] = true
			out = append(out, r.Config.Theta)
		}
	}
	return out
}
