// Quickstart: one continuous stream query writing a transactional table
// under snapshot isolation, plus an ad-hoc snapshot query — the minimal
// "transactional stream processing" program.
package main

import (
	"fmt"
	"log"
	"sort"

	"sistream"
)

func main() {
	// A volatile in-memory store keeps the example self-contained;
	// sistream.OpenLSM(dir, sistream.LSMOptions{}) is the persistent one.
	store := sistream.NewMemStore()
	defer store.Close()

	// State management: one table in one topology group.
	ctx := sistream.NewContext()
	events, err := ctx.CreateTable("events", store, sistream.TableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base table mem (durable=%t)\n", sistream.StoreCapabilitiesOf(store).Durable)
	if _, err := ctx.CreateGroup("pipeline", events); err != nil {
		log.Fatal(err)
	}
	p := sistream.NewSI(ctx) // the paper's MVCC snapshot-isolation protocol

	// A stream query: source -> filter -> TO_TABLE, with transaction
	// boundaries every 3 tuples (data-centric punctuations).
	top := sistream.NewTopology("quickstart")
	src := top.SliceSource("sensors", []sistream.Tuple{
		{Key: "sensor-a", Value: []byte("10.5")},
		{Key: "sensor-b", Value: []byte("99.9")}, // filtered out below
		{Key: "sensor-c", Value: []byte("12.1")},
		{Key: "sensor-a", Value: []byte("11.0")}, // overwrites sensor-a
		{Key: "sensor-d", Value: []byte("13.7")},
	})
	filtered := src.Filter("drop-outliers", func(t sistream.Tuple) bool {
		return string(t.Value) < "50"
	})
	q, stats := filtered.Punctuate(3).Transactions(p).ToTable(p, events)
	q.Discard()

	if err := top.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stream done: %d writes in %d transactions, %d aborts\n",
		stats.Writes.Load(), stats.Commits.Load(), stats.Aborts.Load())

	// Ad-hoc FROM(table): a consistent snapshot of the state.
	rows, err := sistream.TableSnapshot(p, events)
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	for _, r := range rows {
		fmt.Printf("  %s = %s\n", r.Key, r.Value)
	}

	// Point reads under one read-only transaction.
	vals, err := sistream.QueryKeys(p, []sistream.TableKey{
		{Table: events, Key: "sensor-a"},
		{Table: events, Key: "sensor-b"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensor-a=%s sensor-b(filtered)=%v\n", vals[0], vals[1])
}
