// Command benchmark is the repository's benchmark: four named workloads
// over the sistream engine, end-to-end metrics with regression bounds, and
// a traced run that attributes them to the stream, txn, mvcc, kv and lsm
// layers. BENCHMARK.json at the repository root names its metrics and
// workloads; README.md in this directory says why each exists.
//
// It drives the engine only through public functions of internal/stream,
// internal/txn, internal/mvcc, internal/kv and internal/lsm.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	seed    uint64
	measure time.Duration
	trace   bool
	sz      sizes
	dir     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this workload only (default: every workload)")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1: run fixed work with benchmark-side spans and report the per-layer metrics")
	short := fs.Bool("short", false, "smoke sizes: small key set, sub-second windows")
	dir := fs.String("dir", ".bench_build", "directory for store data and trace output")
	probes := fs.Bool("probes", false, "run the layer probes only")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	out := fs.String("out", "", "also write the results to this file as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	cfg := config{seed: *seed, measure: time.Duration(*seconds) * time.Second, trace: *trace != 0, sz: fullSizes, dir: *dir}
	if *short {
		cfg.sz = shortSizes
		cfg.measure = 300 * time.Millisecond
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	env := environment(cfg)
	fmt.Fprintln(stdout, "environment:")
	for _, k := range []string{"nproc", "gomaxprocs", "go", "commit", "data_dir_fs", "seed"} {
		fmt.Fprintf(stdout, "  %-12s %s\n", k, env[k])
	}

	if *probes {
		vals, err := runProbes(cfg.seed, cfg.sz, cfg.dir)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printValues(stdout, "layer probes", vals)
		return 0
	}

	specs := workloads
	if *workload != "" {
		sp := findWorkload(*workload)
		if sp == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		specs = []spec{*sp}
	}
	file := resultFile{Env: env}
	code := 0
	for i := range specs {
		var o *outcome
		var err error
		if cfg.trace {
			o, err = runTraced(&specs[i], cfg)
		} else {
			o, err = runMeasured(&specs[i], cfg)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", specs[i].name, err)
			return 1
		}
		o.Seed = cfg.seed
		printOutcome(stdout, o)
		file.Outcomes = append(file.Outcomes, o)
		if !o.Correct {
			code = 1
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if len(file.Outcomes) == 1 {
		fmt.Fprintln(stdout, contractLine(file.Outcomes[0], cfg.trace))
	}
	return code
}

// runMeasured is the untraced run: set up, warm up, measure for the
// configured window, drain, check — then set up again a few times, because
// setup_s is the median of several set-ups. The measured instance is the
// first one, so it runs on the heap a fresh process would have, not on
// whatever earlier instances left behind.
func runMeasured(sp *spec, cfg config) (*outcome, error) {
	var took []float64
	timedSetUp := func(n int) (*rig, error) {
		in := newInputs(cfg.seed, cfg.sz.keys, sp.theta) // the benchmark's work, not the engine's: untimed
		runtime.GC()
		start := time.Now()
		g, err := setUp(sp, in, dataDir(cfg.dir, sp.name, n), nil)
		took = append(took, time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		return g, nil
	}
	g, err := timedSetUp(0)
	if err != nil {
		return nil, err
	}
	o, err := g.run(runPlan{warm: cfg.sz.warm, measure: cfg.measure, slice: cfg.sz.slice})
	g.close()
	if err != nil {
		return nil, err
	}
	for n := 1; n < cfg.sz.setups; n++ {
		if g, err = timedSetUp(n); err != nil {
			return nil, err
		}
		g.close()
	}
	o.EndToEnd["setup_s"] = value{Value: quantileF(took, 0.5), Unit: "s", N: len(took),
		Spread: (quantileF(took, 1) - quantileF(took, 0)) / quantileF(took, 0.5)}
	return o, nil
}

// runTraced runs the workload's fixed work twice with one seed — spans
// off, then on — and the layer probes. Fixed work makes counts repeat;
// the pair gives the tracing overhead and lets the run check that tracing
// did not change what the engine built.
func runTraced(sp *spec, cfg config) (*outcome, error) {
	pl := runPlan{elems: max(sp.traceElems/cfg.sz.traceScale, uint64(40*sp.txn))}
	once := func(tr *tracer, n int) (*outcome, error) {
		g, err := setUp(sp, newInputs(cfg.seed, cfg.sz.keys, sp.theta), dataDir(cfg.dir, sp.name, n), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		defer g.close()
		return g.run(pl)
	}
	// A quarter of the work first, unmeasured, so that neither leg pays
	// for growing the process's heap.
	full := pl
	pl.elems = max(full.elems/4, uint64(40*sp.txn))
	if _, err := once(nil, 0); err != nil {
		return nil, err
	}
	pl = full
	runtime.GC()
	plain, err := once(nil, 1)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tr := &tracer{}
	o, err := once(tr, 2)
	if err != nil {
		return nil, err
	}
	if strings.Join(plain.Plan, "\n") != strings.Join(o.Plan, "\n") {
		o.Violations = append(o.Violations, "the traced run built a different topology plan than the untraced run")
	}
	o.Violations = append(o.Violations, plain.Violations...)
	o.Correct = len(o.Violations) == 0

	// Overhead at equal work: lost throughput in a closed loop, added
	// median latency in an open one.
	over := 1 - o.EndToEnd["elems_per_s"].Value/plain.EndToEnd["elems_per_s"].Value
	if sp.rate > 0 {
		over = o.EndToEnd["event_latency_p50_ms"].Value/plain.EndToEnd["event_latency_p50_ms"].Value - 1
	}
	o.Layers["trace.overhead_share"] = value{Value: over, Unit: "share"}
	o.Info["untraced_elems_per_s"] = plain.EndToEnd["elems_per_s"]
	o.Info["untraced_event_latency_p50_ms"] = plain.EndToEnd["event_latency_p50_ms"]

	vals, err := runProbes(cfg.seed, cfg.sz, cfg.dir)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for name, v := range vals {
		o.Layers[name] = v
	}
	if err := tr.write(filepath.Join(cfg.dir, "trace-"+sp.name+".csv"), sp.txn); err != nil {
		return nil, err
	}
	return o, nil
}

// environment records where the numbers were taken.
func environment(cfg config) map[string]string {
	env := map[string]string{
		"nproc":       fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":  fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":          runtime.Version(),
		"commit":      "unknown",
		"data_dir_fs": "unknown",
		"seed":        fmt.Sprint(cfg.seed),
	}
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(cfg.dir, &st); err == nil {
		names := map[int64]string{0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
			0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs"}
		if n, ok := names[int64(st.Type)]; ok {
			env["data_dir_fs"] = n
		} else {
			env["data_dir_fs"] = fmt.Sprintf("0x%x", st.Type)
		}
	}
	return env
}
