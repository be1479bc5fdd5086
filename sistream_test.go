package sistream_test

import (
	"fmt"
	"sort"
	"testing"

	"sistream"
	"sistream/internal/leaktest"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// quickstart does: states, groups, a stream query with punctuations, the
// four linking operators, and all three protocols.
func TestFacadeEndToEnd(t *testing.T) {
	for _, mk := range []struct {
		name string
		make func(*sistream.Context) sistream.Protocol
	}{
		{"mvcc", func(c *sistream.Context) sistream.Protocol { return sistream.NewSI(c) }},
		{"s2pl", func(c *sistream.Context) sistream.Protocol { return sistream.NewS2PL(c) }},
		{"bocc", func(c *sistream.Context) sistream.Protocol { return sistream.NewBOCC(c) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			leaktest.Check(t)
			store := sistream.NewMemStore()
			defer store.Close()
			ctx := sistream.NewContext()
			tbl, err := ctx.CreateTable("events", store, sistream.TableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ctx.CreateGroup("g", tbl); err != nil {
				t.Fatal(err)
			}
			p := mk.make(ctx)

			top := sistream.NewTopology("t")
			var tuples []sistream.Tuple
			for i := 0; i < 10; i++ {
				tuples = append(tuples, sistream.Tuple{
					Key:   fmt.Sprintf("k%d", i),
					Value: []byte(fmt.Sprintf("v%d", i)),
				})
			}
			q, stats := top.SliceSource("src", tuples).
				Punctuate(4).
				Transactions(p).
				ToTable(p, tbl)
			q.Discard()
			if err := top.Run(); err != nil {
				t.Fatal(err)
			}
			if stats.Writes.Load() != 10 || stats.Commits.Load() != 3 {
				t.Fatalf("stats: writes=%d commits=%d", stats.Writes.Load(), stats.Commits.Load())
			}
			rows, err := sistream.TableSnapshot(p, tbl)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 10 {
				t.Fatalf("snapshot rows = %d", len(rows))
			}
			vals, err := sistream.QueryKeys(p, []sistream.TableKey{{Table: tbl, Key: "k3"}})
			if err != nil {
				t.Fatal(err)
			}
			if string(vals[0]) != "v3" {
				t.Fatalf("k3 = %q", vals[0])
			}

			// A transaction the input leaves open is rolled back when the
			// stream ends: nothing of it is visible, nothing stays active.
			top = sistream.NewTopology("dangling")
			q, stats = top.Source("src", func(emit func(sistream.Element)) error {
				emit(sistream.Punctuation(sistream.KindBOT))
				emit(sistream.DataElement(sistream.Tuple{Key: "dangling", Value: []byte("x")}))
				return nil
			}).Transactions(p).ToTable(p, tbl)
			q.Discard()
			if err := top.Run(); err != nil {
				t.Fatal(err)
			}
			if stats.Commits.Load() != 0 || ctx.ActiveCount() != 0 {
				t.Fatalf("dangling transaction: commits=%d, %d active", stats.Commits.Load(), ctx.ActiveCount())
			}
			if vals, err := sistream.QueryKeys(p, []sistream.TableKey{{Table: tbl, Key: "dangling"}}); err != nil || vals[0] != nil {
				t.Fatalf("dangling = %q, %v", vals, err)
			}
		})
	}
}

// TestFacadePersistence round-trips states through the LSM store across
// a reopen, via the façade only.
func TestFacadePersistence(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	open := func() (sistream.Store, *sistream.Context, *sistream.Table, sistream.Protocol) {
		store, err := sistream.OpenLSM(dir, sistream.LSMOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := sistream.NewContext()
		tbl, err := ctx.CreateTable("state", store, sistream.TableOptions{SyncCommits: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.CreateGroup("g", tbl); err != nil {
			t.Fatal(err)
		}
		return store, ctx, tbl, sistream.NewSI(ctx)
	}

	store, _, tbl, p := open()
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := p.Write(tx, tbl, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, _, tbl2, p2 := open()
	defer store2.Close()
	rows, err := sistream.TableSnapshot(p2, tbl2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("recovered %d rows", len(rows))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	if rows[0].Key != "k0" || rows[4].Key != "k4" {
		t.Fatalf("recovered keys: %v", rows)
	}
}

// TestFacadeErrors: abort classification is visible through the façade.
func TestFacadeErrors(t *testing.T) {
	if !sistream.IsAbort(sistream.ErrConflict) ||
		!sistream.IsAbort(sistream.ErrValidation) ||
		!sistream.IsAbort(sistream.ErrDeadlock) ||
		!sistream.IsAbort(sistream.ErrAborted) {
		t.Fatal("abort variants not recognized")
	}
	if sistream.IsAbort(sistream.ErrFinished) {
		t.Fatal("ErrFinished is not an abort")
	}
}
