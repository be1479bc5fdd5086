package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"sistream/internal/stream"
)

func dataElement(key string, value []byte) stream.Element {
	return stream.DataElement(stream.Tuple{Key: key, Value: value})
}

func commitElement() stream.Element { return stream.Punctuation(stream.KindCommit) }

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in the code in
// step: same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want only benchmark", doc.Paths)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v", doc.Command)
	}
	if doc.RunSeconds < 20 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d: the measured window is never below 20 s", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q differs from the code", i, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the code:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the code")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be the set-up time in seconds")
	}
}

type line struct {
	Correct   bool `json:"correct"`
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runLine runs the command in-process and parses its last line.
func runLine(t *testing.T, args ...string) (line, string) {
	t.Helper()
	var out, errs bytes.Buffer
	if code := run(append([]string{"-short", "-dir", t.TempDir()}, args...), &out, &errs); code != 0 {
		t.Fatalf("%v: exit %d\n%s%s", args, code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var l line
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		t.Fatalf("%v: last line is not the result object: %v\n%s", args, err, lines[len(lines)-1])
	}
	return l, out.String()
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload end to end at -short sizes, untraced and
// traced: the result line carries exactly the named metrics, the checks
// pass, and the traced run reports every layer.
func TestSmoke(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			l, text := runLine(t, "-workload", sp.name, "-seed", "7", "-trace", "0")
			var got []string
			for n, m := range l.Metrics {
				got = append(got, n)
				if m.Value <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never 0", n, m.Value)
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, names(endToEnd)) {
				t.Errorf("metrics %v, want %v", got, names(endToEnd))
			}
			if !l.Correct || l.Attempted < 1 || l.Failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", l.Correct, l.Attempted, l.Failed)
			}
			for _, want := range []string{"nproc", "gomaxprocs", "data_dir_fs", "ops_attempted", "event_latency_p99_ms", "n="} {
				if !strings.Contains(text, want) {
					t.Errorf("report lacks %q", want)
				}
			}
			if sp.reader && !(strings.Contains(text, "queries_per_s") && strings.Contains(text, "query_latency_p50_us")) {
				t.Errorf("report lacks the reader's metrics")
			}

			first, _ := runLine(t, "-workload", sp.name, "-seed", "7", "-trace", "1")
			got = got[:0]
			layers := map[string]bool{}
			for n := range first.Metrics {
				got = append(got, n)
				layers[strings.SplitN(n, ".", 2)[0]] = true
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, names(perLayer)) {
				t.Errorf("traced metrics differ from per_layer")
			}
			for _, layer := range []string{"stream", "txn", "mvcc", "kv", "lsm", "trace"} {
				if !layers[layer] {
					t.Errorf("no metric of layer %s", layer)
				}
			}
			if !first.Correct {
				t.Errorf("traced run incorrect (plan guard or reference check)")
			}
			if sp.lsm != (first.Metrics["lsm.flushes"].Value+first.Metrics["kv.sync_calls"].Value > 0) {
				t.Errorf("lsm exercised = %v on a workload with lsm = %v", !sp.lsm, sp.lsm)
			}
			if sp.lanes > 0 {
				if s := first.Metrics["stream.stage_sum_share"].Value; s < 0.95 || s > 1.05 {
					t.Errorf("stage split sums to %.3f of the measured latency", s)
				}
			}
			// Honesty guard: on the serialized spines the counts of the
			// traced run are exact and repeat.
			if sp.window == 1 {
				second, _ := runLine(t, "-workload", sp.name, "-seed", "7", "-trace", "1")
				for _, n := range []string{"txn.commit_fan_in", "kv.apply_calls"} {
					if first.Metrics[n].Value != second.Metrics[n].Value {
						t.Errorf("%s: %v then %v with one seed", n, first.Metrics[n].Value, second.Metrics[n].Value)
					}
				}
				if first.Metrics["txn.commit_fan_in"].Value != 1 {
					t.Errorf("commit fan-in %v on a serialized spine", first.Metrics["txn.commit_fan_in"].Value)
				}
			}
		})
	}
}

func TestProbes(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-short", "-probes", "-dir", t.TempDir()}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	for _, n := range []string{"stream.hop_ns_per_elem", "stream.barrier_ns_per_txn", "txn.write_commit_ns_per_elem",
		"txn.write_commit_fed_ns_per_elem", "mvcc.install_ns", "mvcc.read_ns", "kv.apply_mem_ns_per_op",
		"kv.apply_lsm_ns_per_op", "kv.apply_lsm_sync_us", "lsm.get_cached_ns", "lsm.get_uncached_ns",
		"lsm.get_cache_tier_cached_ns", "lsm.get_cache_tier_uncached_ns"} {
		if !strings.Contains(out.String(), n) {
			t.Errorf("probe %s not printed", n)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(rate, spread float64) []*outcome {
		return []*outcome{{Workload: "ingest-mem", EndToEnd: map[string]value{
			"elems_per_s": {Value: rate, Unit: "1/s", Spread: spread},
			"setup_s":     {Value: 0.3, Unit: "s"},
		}}}
	}
	state := func(old, cur []*outcome) string {
		for _, v := range compareOutcomes(old, cur) {
			if v.metric == "elems_per_s" {
				return v.state
			}
		}
		return "absent"
	}
	if s := state(mk(1000, 0.02), mk(850, 0.02)); s != "ok" {
		t.Errorf("-15%% within a 25%% bound: %s", s)
	}
	if s := state(mk(1000, 0.02), mk(700, 0.02)); s != "REGRESSION" {
		t.Errorf("-30%% against a 25%% bound: %s", s)
	}
	if s := state(mk(1000, 0.02), mk(700, 0.40)); s != "unresolved" {
		t.Errorf("-30%% with a 40%% slice spread: %s", s)
	}
	if s := state(mk(1000, 0.02), nil); s != "missing" {
		t.Errorf("workload absent from the new file: %s", s)
	}

	dir := t.TempDir()
	write := func(name string, o []*outcome) string {
		b, _ := json.Marshal(resultFile{Outcomes: o})
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a.json", mk(1000, 0.02)), write("b.json", mk(990, 0.02)), write("c.json", mk(700, 0.02))
	var out, errs bytes.Buffer
	if code := run([]string{"-compare", a, b}, &out, &errs); code != 0 {
		t.Errorf("A/A compare exit %d\n%s", code, out.String())
	}
	if code := run([]string{"-compare", a, c}, &out, &errs); code == 0 {
		t.Errorf("a 30%% regression exited 0")
	}
}
