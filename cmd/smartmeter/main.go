// Command smartmeter runs the paper's Figure 1 scenario end to end: smart
// meters from homes and infrastructure feed continuous queries that
// maintain shared transactional states, while ad-hoc analytics query
// those states under snapshot isolation.
//
// Topology (mirroring Figure 1):
//
//	home meters ──▶ TO_TABLE(measurements1) ─┐
//	                                         │ one topology group:
//	infra meters ─▶ window+avg ─▶ TO_TABLE(local_state)
//	                 └──────────▶ TO_TABLE(measurements2)
//	specification table ─▶ verify (reads spec) ─▶ alerts stream
//	ad-hoc: FROM(measurements*, local_state) snapshot analytics
//
// Flags: -meters, -readings, -dir (persistent store; default temp).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"sistream"
)

func main() {
	meters := flag.Int("meters", 50, "number of smart meters")
	readings := flag.Int("readings", 2000, "readings per meter stream")
	dir := flag.String("dir", "", "data directory (default: temp, removed on exit)")
	flag.Parse()

	root := *dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "smartmeter-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}
	store, err := sistream.OpenLSM(root, sistream.LSMOptions{})
	if err != nil {
		fatal(err)
	}
	defer store.Close()

	// --- states -----------------------------------------------------------
	ctx := sistream.NewContext()
	meas1, err := ctx.CreateTable("measurements1", store, sistream.TableOptions{SyncCommits: true})
	if err != nil {
		fatal(err)
	}
	meas2, err := ctx.CreateTable("measurements2", store, sistream.TableOptions{SyncCommits: true})
	if err != nil {
		fatal(err)
	}
	local, err := ctx.CreateTable("local_state", store, sistream.TableOptions{SyncCommits: true})
	if err != nil {
		fatal(err)
	}
	spec, err := ctx.CreateTable("specification", store, sistream.TableOptions{})
	if err != nil {
		fatal(err)
	}
	if _, err := ctx.CreateGroup("home", meas1); err != nil {
		fatal(err)
	}
	if _, err := ctx.CreateGroup("infra", meas2, local); err != nil {
		fatal(err)
	}
	if _, err := ctx.CreateGroup("spec", spec); err != nil {
		fatal(err)
	}
	p := sistream.NewSI(ctx)

	// Specification: allowed consumption ceiling per meter.
	tx, err := p.Begin()
	if err != nil {
		fatal(err)
	}
	for m := 0; m < *meters; m++ {
		if err := p.Write(tx, spec, meterKey(m), []byte("9.0")); err != nil {
			fatal(err)
		}
	}
	if err := p.Commit(tx); err != nil {
		fatal(err)
	}

	// --- continuous queries -------------------------------------------------
	top := sistream.NewTopology("smartmeter")

	// Query 1: home meter stream -> measurements1, 20 readings/txn.
	home := top.Source("home-meters", meterSource(*meters, *readings, 1))
	q1 := home.Punctuate(20).Transactions(p)
	q1, st1 := q1.ToTable(p, meas1)
	q1.Discard()

	// Query 2: infrastructure stream -> sliding average into local_state
	// and raw values into measurements2, both states in ONE transaction
	// per batch (the consistency protocol keeps them atomic).
	infra := top.Source("infra-meters", meterSource(*meters, *readings, 2))
	agg := infra.SlidingWindow("avg-30", 30, sistream.Avg).FormatValue("%.3f")
	q2 := agg.Punctuate(20).Transactions(p, meas2, local)
	q2, st2 := q2.ToTable(p, meas2)
	q2 = q2.Map("to-local", func(t sistream.Tuple) sistream.Tuple {
		t.Key = "avg/" + t.Key
		return t
	})
	q2, st3 := q2.ToTable(p, local)
	q2.Discard()

	// Query 3 (verify): consume the committed change feed of
	// measurements1 (TO_STREAM) and check readings against the
	// specification, emitting alerts.
	feed, stopFeed := sistream.ToStream(top, meas1, p)
	alerts := 0
	verified := 0
	feed.Sink("verify", func(e sistream.Element) {
		if e.Kind != sistream.KindData {
			return
		}
		vals, err := sistream.QueryKeys(p, []sistream.TableKey{{Table: spec, Key: e.Tuple.Key}})
		if err != nil || vals[0] == nil {
			return
		}
		verified++
		var limit, got float64
		fmt.Sscanf(string(vals[0]), "%g", &limit)
		fmt.Sscanf(string(e.Tuple.Value), "%g", &got)
		if got > limit {
			alerts++
		}
	})

	// --- ad-hoc analytics alongside the streams ------------------------------
	// Both states are read under one snapshot: one cut across the groups.
	done := make(chan struct{})
	var snapshots int
	count := func(snap *sistream.Snapshot, tbl *sistream.Table) int {
		n := 0
		if err := snap.Scan(tbl, func(string, []byte) bool { n++; return true }); err != nil {
			fatal(err)
		}
		return n
	}
	go func() {
		defer close(done)
		for {
			time.Sleep(50 * time.Millisecond)
			snap, err := ctx.Snapshot(meas1, local)
			if err != nil {
				fatal(err)
			}
			rows1, rows2 := count(snap, meas1), count(snap, local)
			snap.Release()
			snapshots++
			if rows1 >= *meters && rows2 >= *meters {
				return
			}
		}
	}()

	start := time.Now()
	top.Start()
	<-done // analytics saw fully populated states
	if err := func() error { stopFeed(); return top.Wait() }(); err != nil {
		fatal(err)
	}

	// --- report ----------------------------------------------------------------
	fmt.Printf("smart metering run complete in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("  meters=%d readings/meter=%d\n", *meters, *readings)
	fmt.Printf("  query1 (home -> measurements1):   writes=%d commits=%d aborts=%d\n",
		st1.Writes.Load(), st1.Commits.Load(), st1.Aborts.Load())
	fmt.Printf("  query2 (infra -> measurements2):  writes=%d commits=%d\n",
		st2.Writes.Load(), st2.Commits.Load())
	fmt.Printf("  query2 (infra -> local_state):    writes=%d commits=%d\n",
		st3.Writes.Load(), st3.Commits.Load())
	fmt.Printf("  verify: checked=%d alerts=%d\n", verified, alerts)
	fmt.Printf("  ad-hoc snapshots taken: %d\n", snapshots)

	// Final consistent report across all states (FROM on tables).
	final, err := sistream.TableSnapshot(p, local)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  local_state rows: %d (sliding 30-reading averages)\n", len(final))
}

// meterSource generates per-meter consumption readings.
func meterSource(meters, readings int, seed int64) func(emit func(sistream.Element)) error {
	return func(emit func(sistream.Element)) error {
		rng := rand.New(rand.NewSource(seed))
		for r := 0; r < readings; r++ {
			m := rng.Intn(meters)
			val := 5 + rng.Float64()*5 // 5..10 kW, sometimes above the 9.0 spec
			emit(sistream.DataElement(sistream.Tuple{
				Key:   meterKey(m),
				Value: []byte(fmt.Sprintf("%.3f", val)),
				Num:   val,
				Ts:    int64(r),
			}))
		}
		return nil
	}
}

func meterKey(m int) string { return fmt.Sprintf("meter-%04d", m) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smartmeter:", err)
	os.Exit(1)
}
