// Smart metering (the paper's Figure 1, compact version): two continuous
// queries share queryable states through the transactional layer —
// a raw-ingest query and a windowed-aggregate query whose two states
// commit atomically — while TO_STREAM feeds a verification query and an
// ad-hoc report reads a consistent cross-state snapshot.
//
// cmd/smartmeter is the full-size, flag-driven variant of this example.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"sistream"
)

func main() {
	store := sistream.NewMemStore()
	defer store.Close()
	ctx := sistream.NewContext()
	measurements, err := ctx.CreateTable("measurements", store, sistream.TableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	averages, err := ctx.CreateTable("averages", store, sistream.TableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ctx.CreateGroup("metering", measurements, averages); err != nil {
		log.Fatal(err)
	}
	p := sistream.NewSI(ctx)

	top := sistream.NewTopology("smartmeter")

	// Continuous query: meter readings -> raw state + sliding average
	// state, both updated in the SAME transaction per 10-tuple batch.
	const meters, readings = 8, 400
	src := top.Source("meters", func(emit func(sistream.Element)) error {
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < readings; i++ {
			m := rng.Intn(meters)
			kw := 2 + rng.Float64()*6
			emit(sistream.DataElement(sistream.Tuple{
				Key:   fmt.Sprintf("meter-%d", m),
				Value: []byte(fmt.Sprintf("%.2f", kw)),
				Num:   kw,
				Ts:    int64(i),
			}))
		}
		return nil
	})
	q := src.Punctuate(10).Transactions(p, measurements, averages)
	q, raw := q.ToTable(p, measurements)
	q = q.SlidingWindow("avg-20", 20, sistream.Avg).FormatValue("%.3f")
	q, agg := q.ToTable(p, averages)
	ingestDone := q.Collect() // closes when the ingest pipeline finishes

	// TO_STREAM: watch committed changes of the averages state and flag
	// meters whose sliding average exceeds a threshold. The sink runs on
	// a single goroutine, so the map needs no locking.
	feed, stopFeed := sistream.ToStream(top, averages, p)
	overloads := map[string]int{}
	feed.Sink("threshold", func(e sistream.Element) {
		if e.Kind == sistream.KindData && e.Tuple.Num > 6.0 {
			overloads[e.Tuple.Key]++
		}
	})

	top.Start()
	<-ingestDone // all batches committed
	stopFeed()   // the feed drains queued commits, then closes
	if err := top.Wait(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ingest: %d raw writes / %d commits; %d aggregate writes / %d commits\n",
		raw.Writes.Load(), raw.Commits.Load(), agg.Writes.Load(), agg.Commits.Load())

	// Ad-hoc report: one consistent snapshot across BOTH states.
	snap, err := ctx.Snapshot(measurements, averages)
	if err != nil {
		log.Fatal(err)
	}
	defer snap.Release()
	scan := func(tbl *sistream.Table) []sistream.KV {
		var rows []sistream.KV
		if err := snap.Scan(tbl, func(key string, value []byte) bool {
			rows = append(rows, sistream.KV{Key: key, Value: value})
			return true
		}); err != nil {
			log.Fatal(err)
		}
		return rows
	}
	rawRows, avgRows := scan(measurements), scan(averages)
	sort.Slice(avgRows, func(i, j int) bool { return avgRows[i].Key < avgRows[j].Key })
	fmt.Printf("report: %d meters with raw readings, %d with sliding averages\n", len(rawRows), len(avgRows))
	for _, r := range avgRows {
		fmt.Printf("  %-8s avg(last 20) = %s kW\n", r.Key, r.Value)
	}
	fmt.Printf("threshold feed flagged %d meters above 6.0 kW\n", len(overloads))
}
