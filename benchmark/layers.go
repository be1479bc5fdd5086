package main

import (
	"time"
)

// layers computes the per-layer metrics of a traced run from the spans
// and from the engine's public counters. A metric of a layer this
// workload does not exercise is marked n/a; the probes fill in the rest
// (see probes.go).
func (g *rig) layers(ingestDone, elapsed time.Duration) map[string]value {
	sp, tr := g.spec, g.tr
	out := map[string]value{}
	for _, d := range perLayer {
		out[d.Name] = value{Unit: d.Unit, NA: true}
	}
	set := func(name string, v float64, n int) {
		out[name] = value{Value: v, Unit: out[name].Unit, N: n}
	}
	userBytes := float64(g.src.emitted) * float64(len(g.in.keys[0])+valueBytes) * float64(sp.states)

	// stream: how long the source sat in emit (blocked on a full edge),
	// the self-tuning window, and on the pipelines the stage split.
	var inEmit int64
	for _, s := range tr.emits {
		inEmit += s.end - s.start
	}
	set("stream.source_blocked_share", float64(inEmit)/float64(ingestDone), len(tr.emits))
	if g.tun != nil {
		ts := g.tun.Stats()
		set("stream.tuner_window", float64(ts.Window), 0)
		set("stream.tuner_grows", float64(ts.Grows), 0)
		set("stream.tuner_shrinks", float64(ts.Shrinks), 0)
	}
	if g.feed != nil {
		st := tr.split(sp.txn)
		n := len(st.feed)
		set("stream.ingress_wait_ms", mean(st.ingress)/1e6, n)
		set("stream.spine_ms", mean(st.spine)/1e6, n)
		set("stream.feed_delivery_p50_ms", float64(quantile(st.feed, 0.5))/1e6, n)
		set("stream.feed_delivery_p99_ms", float64(quantile(st.feed, 0.99))/1e6, n)
		// The four stage means against the latency the sink measured on
		// its own: 1.00 when every timed event was matched to its spans.
		sum := mean(st.ingress) + mean(st.apply) + mean(st.spine) + mean(st.feed)
		set("stream.stage_sum_share", sum/mean(g.sink.lat.dur), n)
		if n != len(g.sink.lat.dur) {
			g.bad.add("trace: %d of %d timed events matched to their spans", n, len(g.sink.lat.dur))
		}
	}

	// txn: group-commit counters and profile, index and version counters,
	// reader spans.
	final := g.stats[len(g.stats)-1]
	cp := g.group.CommitProfile()
	set("txn.commit_fan_in", float64(cp.Txns)/float64(max(cp.Batches, 1)), int(cp.Batches))
	set("txn.install_us_per_batch", cp.Install.Mean/1e3, int(cp.Install.Count))
	if sp.lsm {
		set("txn.sync_us_per_batch", cp.Sync.Mean/1e3, int(cp.Sync.Count))
	}
	set("txn.abort_share", float64(final.Aborts.Load())/float64(max(final.Commits.Load()+final.Aborts.Load(), 1)), 0)
	if g.ix != nil {
		is := g.ix.Stats()
		// Set-up's backfill put one posting per preloaded key.
		set("txn.index_ops_per_write", (float64(is.Puts+is.Deletes)-float64(len(g.in.keys)))/float64(final.Writes.Load()), 0)
		resident := 0
		for _, t := range g.tables {
			resident += t.ResidentVersions()
		}
		set("txn.resident_versions", float64(resident), 0)
	}
	if g.rd != nil {
		set("txn.point_txn_us", mean(g.rd.point.dur)/1e3, len(g.rd.point.dur))
		set("txn.lookup_us", mean(g.rd.lookup.dur)/1e3, len(g.rd.lookup.dur))
		var inScan int64
		for _, d := range g.rd.scan.dur {
			inScan += d
		}
		set("txn.scan_rows_per_s", float64(g.rd.rows)/(float64(max(inScan, 1))/1e9), len(g.rd.scan.dur))
	}

	// kv: the store decorator's spans.
	var busy, bytes int64
	syncs := tr.syncs
	durs := make([]int64, len(tr.applies))
	for i, a := range tr.applies {
		durs[i] = a.end - a.start
		busy += durs[i]
		bytes += int64(a.bytes)
		if a.sync {
			syncs++
		}
	}
	set("kv.apply_calls", float64(len(tr.applies)), 0)
	set("kv.apply_busy_share", float64(busy)/float64(elapsed), len(durs))
	set("kv.apply_p50_us", float64(quantile(durs, 0.5))/1e3, len(durs))
	set("kv.apply_p99_us", float64(quantile(durs, 0.99))/1e3, len(durs))
	set("kv.sync_calls", float64(syncs), 0)
	set("kv.bytes_per_user_byte", float64(bytes)/userBytes, 0)

	// lsm: the store's own counters.
	if g.db != nil {
		ls := g.db.Stats()
		var levelBytes uint64
		for _, b := range ls.LevelBytes {
			levelBytes += b
		}
		set("lsm.flushes", float64(ls.Flushes), 0)
		set("lsm.compactions", float64(ls.Compactions), 0)
		set("lsm.level_bytes_per_user_byte", float64(levelBytes)/userBytes, 0)
		if lookups := ls.BlockCacheHits + ls.BlockCacheMisses; lookups > 0 {
			set("lsm.block_cache_hit_rate", float64(ls.BlockCacheHits)/float64(lookups), int(lookups))
		}
	}
	return out
}
