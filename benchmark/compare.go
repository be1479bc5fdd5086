package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one metric on one workload, old file against new.
type verdict struct {
	workload, metric string
	old, new         float64
	delta            float64 // relative change, positive = worse
	bound            float64
	state            string // "ok", "REGRESSION", "unresolved", "missing"
}

// compareOutcomes judges every gated metric (and the information metrics
// that carry a bound) of every workload present in the old file. A metric
// worse by more than its bound is a regression — unless either run's own
// slice spread is wider than the bound, in which case the pair cannot
// resolve a change of that size and the cell is "unresolved".
func compareOutcomes(old, new []*outcome) []verdict {
	defs := append(append([]metricDef(nil), endToEnd...), infoBounds...)
	byName := map[string]*outcome{}
	for _, o := range new {
		byName[o.Workload] = o
	}
	lookup := func(o *outcome, name string) (value, bool) {
		if v, ok := o.EndToEnd[name]; ok {
			return v, true
		}
		v, ok := o.Info[name]
		return v, ok
	}
	var out []verdict
	for _, a := range old {
		b := byName[a.Workload]
		for _, d := range defs {
			va, ok := lookup(a, d.Name)
			if !ok {
				continue
			}
			v := verdict{workload: a.Workload, metric: d.Name, old: va.Value, bound: d.Bound, state: "missing"}
			if b != nil {
				if vb, ok := lookup(b, d.Name); ok && va.Value != 0 {
					v.new = vb.Value
					v.delta = (vb.Value - va.Value) / va.Value
					if d.Better == "higher" {
						v.delta = -v.delta
					}
					switch {
					case va.Spread > d.Bound || vb.Spread > d.Bound:
						v.state = "unresolved"
					case v.delta > d.Bound:
						v.state = "REGRESSION"
					default:
						v.state = "ok"
					}
				}
			}
			out = append(out, v)
		}
	}
	return out
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints the verdict table and returns the exit code:
// non-zero when any cell regressed or is missing from the new file.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	var files [2]*resultFile
	for i, path := range []string{oldPath, newPath} {
		f, err := readResults(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		files[i] = f
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-22s %14s %14s %8s %6s  %s\n", "workload", "metric", "old", "new", "worse", "bound", "verdict")
	for _, v := range compareOutcomes(files[0].Outcomes, files[1].Outcomes) {
		fmt.Fprintf(stdout, "%-16s %-22s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
			v.workload, v.metric, v.old, v.new, 100*v.delta, 100*v.bound, v.state)
		if v.state == "REGRESSION" || v.state == "missing" {
			code = 1
		}
	}
	return code
}
