// Recovery: transactional states persist across restarts. The program
// runs two "incarnations" over the same LSM directory: the first streams
// data into two states with synchronous commits and stops abruptly
// (without any clean shutdown of the transactional layer); the second
// reopens the store, recovers both states and the group's LastCTS
// watermark, verifies consistency, and continues writing.
package main

import (
	"fmt"
	"log"
	"os"

	"sistream"
)

func main() {
	dir, err := os.MkdirTemp("", "recovery-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	fmt.Println("incarnation 1: streaming with synchronous commits")
	lastCTS := incarnation1(dir)
	fmt.Printf("  committed watermark (LastCTS) = %d; process 'crashes' now\n\n", lastCTS)

	fmt.Println("incarnation 2: recover and continue")
	incarnation2(dir, lastCTS)
}

func incarnation1(dir string) sistream.Timestamp {
	// The persistent backend: an LSM store rooted at dir.
	store, err := sistream.OpenLSM(dir, sistream.LSMOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := sistream.NewContext()
	orders, err := ctx.CreateTable("orders", store, sistream.TableOptions{SyncCommits: true})
	if err != nil {
		log.Fatal(err)
	}
	totals, err := ctx.CreateTable("totals", store, sistream.TableOptions{SyncCommits: true})
	if err != nil {
		log.Fatal(err)
	}
	group, err := ctx.CreateGroup("orders-group", orders, totals)
	if err != nil {
		log.Fatal(err)
	}
	p := sistream.NewSI(ctx)

	top := sistream.NewTopology("ingest")
	var tuples []sistream.Tuple
	for i := 0; i < 100; i++ {
		tuples = append(tuples, sistream.Tuple{
			Key:   fmt.Sprintf("order-%03d", i),
			Value: []byte(fmt.Sprintf("qty=%d", i%7+1)),
		})
	}
	q := top.SliceSource("orders", tuples).Punctuate(10).Transactions(p, orders, totals)
	q, stats := q.ToTable(p, orders)
	q = q.Map("derive-total", func(t sistream.Tuple) sistream.Tuple {
		t.Key = "count"
		t.Value = []byte("1") // toy derived state; real code would aggregate
		return t
	})
	q, _ = q.ToTable(p, totals)
	q.Discard()
	if err := top.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  ingested %d orders in %d transactions\n", stats.Writes.Load(), stats.Commits.Load())

	// Simulate a crash: close only the base store (its WAL makes the data
	// durable); the transactional context is simply dropped.
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	return group.LastCTS()
}

func incarnation2(dir string, wantCTS sistream.Timestamp) {
	store, err := sistream.OpenLSM(dir, sistream.LSMOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	ctx := sistream.NewContext()
	orders, err := ctx.CreateTable("orders", store, sistream.TableOptions{SyncCommits: true})
	if err != nil {
		log.Fatal(err)
	}
	totals, err := ctx.CreateTable("totals", store, sistream.TableOptions{SyncCommits: true})
	if err != nil {
		log.Fatal(err)
	}
	group, err := ctx.CreateGroup("orders-group", orders, totals)
	if err != nil {
		log.Fatal(err)
	}
	p := sistream.NewSI(ctx)

	if group.LastCTS() != wantCTS {
		log.Fatalf("recovered LastCTS %d, want %d", group.LastCTS(), wantCTS)
	}
	rows, err := sistream.TableSnapshot(p, orders)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  recovered LastCTS=%d and %d order rows\n", group.LastCTS(), len(rows))
	if len(rows) != 100 {
		log.Fatalf("expected 100 recovered rows, got %d", len(rows))
	}

	// New transactions continue past the recovered watermark.
	tx, err := p.Begin()
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Write(tx, orders, "order-100", []byte("qty=1")); err != nil {
		log.Fatal(err)
	}
	if err := p.Commit(tx); err != nil {
		log.Fatal(err)
	}
	if group.LastCTS() <= wantCTS {
		log.Fatal("clock did not advance past recovery")
	}
	fmt.Printf("  new commit at cts=%d; recovery complete\n", group.LastCTS())
}
