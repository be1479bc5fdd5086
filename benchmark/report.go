package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"sistream/internal/txn"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; the smoke test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics. Every workload reports every one of
// them; what each means on a workload is in the README, and so is why the
// bounds are 0.25 and not the 0.10 the issue asked for: this sandbox's
// host moves every CPU-bound number by 10-30 % for minutes at a time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"elems_per_s", "1/s", "higher", 0.25},
	{"event_latency_p50_ms", "ms", "lower", 0.25},
}

// infoBounds are the metrics printed for information only, with the
// bounds -compare applies to them. The reader's metrics exist on one
// workload, and the gated list must be reported by every workload;
// event_latency_p99_ms could not hold a bound in the A/A runs (see README).
var infoBounds = []metricDef{
	{"event_latency_p99_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"query_latency_p50_us", "us", "lower", 0.25},
}

// perLayer are the metrics of the traced run, by layer. A layer the
// workload does not exercise reports 0 (printed as n/a).
var perLayer = []metricDef{
	{Name: "stream.source_blocked_share", Unit: "share", Better: "lower"},
	{Name: "stream.ingress_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.spine_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.feed_delivery_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.feed_delivery_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.stage_sum_share", Unit: "share", Better: "higher"},
	{Name: "stream.tuner_window", Unit: "count", Better: "higher"},
	{Name: "stream.tuner_grows", Unit: "count", Better: "lower"},
	{Name: "stream.tuner_shrinks", Unit: "count", Better: "lower"},
	{Name: "stream.hop_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "stream.barrier_ns_per_txn", Unit: "ns", Better: "lower"},
	{Name: "txn.commit_fan_in", Unit: "count", Better: "higher"},
	{Name: "txn.install_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "txn.sync_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "txn.abort_share", Unit: "share", Better: "lower"},
	{Name: "txn.index_ops_per_write", Unit: "count", Better: "lower"},
	{Name: "txn.resident_versions", Unit: "count", Better: "lower"},
	{Name: "txn.point_txn_us", Unit: "us", Better: "lower"},
	{Name: "txn.lookup_us", Unit: "us", Better: "lower"},
	{Name: "txn.scan_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "txn.write_commit_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "txn.write_commit_fed_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "mvcc.install_ns", Unit: "ns", Better: "lower"},
	{Name: "mvcc.read_ns", Unit: "ns", Better: "lower"},
	{Name: "kv.apply_calls", Unit: "count", Better: "lower"},
	{Name: "kv.apply_busy_share", Unit: "share", Better: "lower"},
	{Name: "kv.apply_p50_us", Unit: "us", Better: "lower"},
	{Name: "kv.apply_p99_us", Unit: "us", Better: "lower"},
	{Name: "kv.sync_calls", Unit: "count", Better: "lower"},
	{Name: "kv.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "kv.apply_mem_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "kv.apply_lsm_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "kv.apply_lsm_sync_us", Unit: "us", Better: "lower"},
	{Name: "lsm.flushes", Unit: "count", Better: "lower"},
	{Name: "lsm.compactions", Unit: "count", Better: "lower"},
	{Name: "lsm.level_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "lsm.block_cache_hit_rate", Unit: "share", Better: "higher"},
	{Name: "lsm.get_cached_ns", Unit: "ns", Better: "lower"},
	{Name: "lsm.get_uncached_ns", Unit: "ns", Better: "lower"},
	{Name: "lsm.get_cache_tier_cached_ns", Unit: "ns", Better: "lower"},
	{Name: "lsm.get_cache_tier_uncached_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// value is one measured metric. Spread is the interquartile range of the
// metric's per-slice values as a share of their median — the run's own
// noise, which -compare needs to tell "unchanged" from "unresolved".
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
	N      int     `json:"n,omitempty"`
	NA     bool    `json:"na,omitempty"` // the workload does not exercise this
}

// outcome is everything one run of one workload produced.
type outcome struct {
	Workload   string           `json:"workload"`
	Seed       uint64           `json:"seed"`
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"ops_attempted"`
	Failed     int64            `json:"ops_failed"`
	Violations []string         `json:"violations,omitempty"`
	EndToEnd   map[string]value `json:"end_to_end,omitempty"`
	Info       map[string]value `json:"info,omitempty"`
	Layers     map[string]value `json:"per_layer,omitempty"`
	Plan       []string         `json:"plan,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env      map[string]string `json:"env"`
	Claim    *string           `json:"claim"` // always null: this benchmark defines the condition, it claims no gain
	Outcomes []*outcome        `json:"outcomes"`
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

// quantile returns the q-quantile of v (nearest rank); v is sorted in place.
func quantile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(0, min(i, len(v)-1))]
}

func quantileF(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// midmean is the mean of the middle half of v. On a unimodal sample it
// sits at the median; on the two-humped slice rates of a workload whose
// garbage-collection cycles last longer than a slice, it moves smoothly
// with the humps' weights where the median jumps from one to the other.
func midmean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// spread is the interquartile range of v as a share of its median.
func spread(v []float64) float64 {
	m := quantileF(v, 0.5)
	if len(v) < 4 || m == 0 {
		return 0
	}
	return (quantileF(v, 0.75) - quantileF(v, 0.25)) / m
}

// sliceQuantile returns the q-quantile of s's durations within each slice
// of the measured window, for slices that hold at least ten samples.
func sliceQuantile(s *samples, pl runPlan, q float64) []float64 {
	if pl.fixedWork() {
		return nil
	}
	buckets := make([][]int64, int(pl.measure/pl.slice))
	for i, at := range s.at {
		b := int((at - int64(pl.warm)) / int64(pl.slice))
		if at >= int64(pl.warm) && b < len(buckets) {
			buckets[b] = append(buckets[b], s.dur[i])
		}
	}
	var out []float64
	for _, b := range buckets {
		if len(b) >= 10 {
			out = append(out, float64(quantile(b, q)))
		}
	}
	return out
}

// inWindow returns the durations of the samples taken inside the measured
// window (all of them in a fixed-work run).
func inWindow(s *samples, pl runPlan) []int64 {
	if pl.fixedWork() {
		return append([]int64(nil), s.dur...)
	}
	var out []int64
	for i, at := range s.at {
		if at >= int64(pl.warm) && at < int64(pl.warm+pl.measure) {
			out = append(out, s.dur[i])
		}
	}
	return out
}

// collect turns the finished run into metrics and runs the reference
// checks.
func (g *rig) collect(pl runPlan, sl *slicer, ingestDone, elapsed time.Duration) *outcome {
	sp := g.spec
	o := &outcome{Workload: sp.name, EndToEnd: map[string]value{}, Info: map[string]value{}, Plan: g.plan()}
	final := g.stats[len(g.stats)-1]

	// Reference checks.
	d := delivery{
		emitted: g.src.emitted, txnSize: sp.txn,
		delivered: g.sink.delivered.Load(), dups: g.sink.dups, missing: g.sink.missing(g.src.emitted),
		sinkCommits: g.sink.commits, writes: final.Writes.Load(), txns: final.Commits.Load(),
		aborts: final.Aborts.Load(), ctsBack: g.sink.ctsBack.Load(),
	}
	for _, v := range d.check() {
		g.bad.add("%s", v)
	}
	for _, t := range g.tables {
		for _, v := range checkTable(g.scanTable(t), g.in.keys, g.src.last) {
			g.bad.add("%s: %s", t.ID(), v)
		}
	}
	if g.rd != nil {
		if g.rd.torn > 0 {
			g.bad.add("reader: %d cross-state mismatches (claim C3)", g.rd.torn)
		}
		for _, v := range g.checkIndex() {
			g.bad.add("%s", v)
		}
	}

	// Throughput: the midmean of the slice rates; total/elapsed and the
	// slice quartiles beside it as information.
	rate := float64(d.delivered) / elapsed.Seconds()
	o.Info["elems_per_s_total"] = value{Value: rate, Unit: "1/s", N: int(d.delivered)}
	if rates := sl.rates(0); len(rates) > 0 {
		o.EndToEnd["elems_per_s"] = value{Value: midmean(rates), Unit: "1/s", Spread: spread(rates), N: len(rates)}
		o.Info["elems_per_s_slice_median"] = value{Value: quantileF(rates, 0.5), Unit: "1/s"}
		o.Info["elems_per_s_slice_q1"] = value{Value: quantileF(rates, 0.25), Unit: "1/s"}
		o.Info["elems_per_s_slice_q3"] = value{Value: quantileF(rates, 0.75), Unit: "1/s"}
	} else {
		o.EndToEnd["elems_per_s"] = value{Value: rate, Unit: "1/s", N: 1}
	}

	// Event latency: stamp (due time or emit time) to the transaction's
	// COMMIT at the sink.
	lat := inWindow(&g.sink.lat, pl)
	o.EndToEnd["event_latency_p50_ms"] = value{Value: float64(quantile(lat, 0.5)) / 1e6, Unit: "ms",
		Spread: spread(sliceQuantile(&g.sink.lat, pl, 0.5)), N: len(lat)}
	o.Info["event_latency_p99_ms"] = value{Value: float64(quantile(lat, 0.99)) / 1e6, Unit: "ms",
		Spread: spread(sliceQuantile(&g.sink.lat, pl, 0.99)), N: len(lat)}

	o.Attempted = int64(d.emitted)
	o.Failed = d.aborts*int64(sp.txn) + int64(d.missing)
	if sp.rate > 0 {
		lag := inWindow(&g.src.lag, pl)
		o.Info["generator_lag_p99_ms"] = value{Value: float64(quantile(lag, 0.99)) / 1e6, Unit: "ms", N: len(lag)}
		o.Info["late_event_share"] = value{Value: float64(g.sink.late) / float64(max(d.emitted, 1)), Unit: "share", N: int(g.sink.late)}
		// A schedule the engine cannot hold shows as lag (the source blocked
		// on a full edge) and as a backlog still draining after the last send.
		o.Info["drain_ms"] = value{Value: float64(elapsed-ingestDone) / 1e6, Unit: "ms"}
	}
	if g.rd != nil {
		o.Attempted += g.rd.started
		o.Failed += g.rd.failed
		point := inWindow(&g.rd.point, pl)
		o.Info["query_latency_p50_us"] = value{Value: float64(quantile(point, 0.5)) / 1e3, Unit: "us",
			Spread: spread(sliceQuantile(&g.rd.point, pl, 0.5)), N: len(point)}
		if rates := sl.rates(1); len(rates) > 0 {
			o.Info["queries_per_s"] = value{Value: midmean(rates), Unit: "1/s", Spread: spread(rates), N: len(rates)}
		} else {
			o.Info["queries_per_s"] = value{Value: float64(g.rd.queries.Load()) / ingestDone.Seconds(), Unit: "1/s", N: 1}
		}
	}
	if g.tr != nil {
		o.Layers = g.layers(ingestDone, elapsed)
	}
	o.Violations = g.bad.list
	o.Correct = len(o.Violations) == 0
	return o
}

// scanTable reads every row of t at the group's last commit.
func (g *rig) scanTable(t *txn.Table) map[string]uint64 {
	rows := make(map[string]uint64, len(g.in.keys))
	snap, err := g.ctx.Snapshot(t)
	if err != nil {
		g.bad.add("snapshot %s: %v", t.ID(), err)
		return rows
	}
	defer snap.Release()
	err = snap.Scan(t, func(key string, v []byte) bool {
		if len(v) == valueBytes {
			rows[key] = valueSeq(v)
		}
		return true
	})
	if err != nil {
		g.bad.add("scan %s: %v", t.ID(), err)
	}
	return rows
}

// checkIndex compares, bucket by bucket under one snapshot, the index
// lookup with a filtered scan of the table.
func (g *rig) checkIndex() []string {
	t := g.tables[0]
	snap, err := g.ctx.Snapshot(t)
	if err != nil {
		return []string{fmt.Sprintf("snapshot: %v", err)}
	}
	defer snap.Release()
	scanned := map[string][]string{}
	err = snap.Scan(t, func(key string, v []byte) bool {
		if b, ok := bucketOf(key, v); ok {
			scanned[b] = append(scanned[b], key)
		}
		return true
	})
	if err != nil {
		return []string{fmt.Sprintf("scan: %v", err)}
	}
	var out []string
	for _, b := range bucketNames {
		var looked []string
		if err := snap.Lookup(g.ix, b, func(key string, _ []byte) bool { looked = append(looked, key); return true }); err != nil {
			return []string{fmt.Sprintf("lookup %s: %v", b, err)}
		}
		out = append(out, checkLookup(b, looked, scanned[b])...)
	}
	return out
}

// printOutcome renders one outcome for people.
func printOutcome(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "\n== %s (seed %d) ==\n", o.Workload, o.Seed)
	printValues(w, "end-to-end", o.EndToEnd)
	printValues(w, "information", o.Info)
	if len(o.Layers) > 0 {
		printValues(w, "per layer", o.Layers)
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d\n", o.Attempted, o.Failed)
	for _, v := range o.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	if o.Correct {
		fmt.Fprintln(w, "  reference checks: ok")
	}
}

func printValues(w io.Writer, title string, vals map[string]value) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %s:\n", title)
	for _, n := range names {
		v := vals[n]
		if v.NA {
			fmt.Fprintf(w, "    %-34s %14s\n", n, "n/a")
			continue
		}
		var notes []string
		if v.N > 0 {
			notes = append(notes, fmt.Sprintf("n=%d", v.N))
		}
		if v.Spread > 0 {
			notes = append(notes, fmt.Sprintf("slice iqr %.1f%%", 100*v.Spread))
		}
		if strings.Contains(n, "_p99_") && v.N < 1000 {
			notes = append(notes, "fewer than 10 samples beyond it")
		}
		fmt.Fprintf(w, "    %-34s %14.4f %-6s %s\n", n, v.Value, v.Unit, strings.Join(notes, ", "))
	}
}

// contractLine is the last line of standard output: the one JSON object
// the driver reads.
func contractLine(o *outcome, traced bool) string {
	defs, vals := endToEnd, o.EndToEnd
	if traced {
		defs, vals = perLayer, o.Layers
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		metrics[d.Name] = mv{vals[d.Name].Value, d.Unit}
	}
	b, _ := json.Marshal(map[string]any{ // marshalling these plain maps cannot fail
		"correct": o.Correct, "attempted": max(o.Attempted, 1), "failed": o.Failed, "metrics": metrics,
	})
	return string(b)
}
