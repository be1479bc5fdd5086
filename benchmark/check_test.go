package main

import (
	"strings"
	"testing"
)

// Every reference check must accept a clean result and reject a corrupted
// one; a checker that cannot fail checks nothing.

func cleanDelivery() delivery {
	return delivery{emitted: 800, txnSize: 8, delivered: 800, sinkCommits: 100, writes: 800, txns: 100}
}

func TestDeliveryCheck(t *testing.T) {
	if v := cleanDelivery().check(); len(v) != 0 {
		t.Fatalf("clean delivery rejected: %v", v)
	}
	corrupt := map[string]func(*delivery){
		"one dropped event":       func(d *delivery) { d.missing, d.delivered = 1, 799 },
		"one event twice":         func(d *delivery) { d.dups, d.delivered = 1, 801 },
		"one lost commit":         func(d *delivery) { d.sinkCommits = 99 },
		"one aborted transaction": func(d *delivery) { d.aborts, d.txns, d.writes, d.delivered = 1, 99, 792, 792 },
		"commit order broken":     func(d *delivery) { d.ctsBack = 1 },
	}
	for name, f := range corrupt {
		d := cleanDelivery()
		f(&d)
		if len(d.check()) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSinkDetectsDroppedEvent drives the real sink with every event but
// one and requires the account built from it to fail.
func TestSinkDetectsDroppedEvent(t *testing.T) {
	sp := findWorkload("pipeline-lsm")
	in := newInputs(1, 64, 0)
	k := newSink(&rig{spec: sp, in: in})
	emitted := uint64(0)
	for txn := 0; txn < 10; txn++ {
		for j := 0; j < sp.txn; j++ {
			key, value := in.next(0)
			emitted++
			if txn == 4 && j == 3 {
				continue // the dropped event
			}
			k.on(dataElement(in.keys[key], value))
		}
		k.on(commitElement())
	}
	if got := k.missing(emitted); got != 1 {
		t.Fatalf("missing = %d, want 1", got)
	}
	d := delivery{emitted: emitted, txnSize: sp.txn, delivered: k.delivered.Load(), missing: k.missing(emitted),
		sinkCommits: k.commits, writes: int64(emitted), txns: 10}
	if len(d.check()) == 0 {
		t.Fatal("a run with one dropped event passed the delivery check")
	}
}

func TestTableCheck(t *testing.T) {
	keys := []string{"k0", "k1", "k2"}
	last := []uint64{7, preloadSeq, 9}
	clean := map[string]uint64{"k0": 7, "k1": preloadSeq, "k2": 9}
	if v := checkTable(clean, keys, last); len(v) != 0 {
		t.Fatalf("clean table rejected: %v", v)
	}
	// One torn pair: the same check runs against both states, so a state
	// that kept an older value of one key fails it.
	torn := map[string]uint64{"k0": 7, "k1": preloadSeq, "k2": 4}
	if v := checkTable(torn, keys, last); len(v) == 0 || !strings.Contains(v[0], "k2") {
		t.Fatalf("stale value accepted: %v", v)
	}
	lost := map[string]uint64{"k0": 7, "k2": 9}
	if len(checkTable(lost, keys, last)) == 0 {
		t.Fatal("lost row accepted")
	}
}

func TestLookupCheck(t *testing.T) {
	if v := checkLookup("b00", []string{"b", "a"}, []string{"a", "b"}); len(v) != 0 {
		t.Fatalf("equal sets rejected: %v", v)
	}
	if len(checkLookup("b00", []string{"a"}, []string{"a", "b"})) == 0 {
		t.Fatal("missing posting accepted")
	}
	if len(checkLookup("b00", []string{"a", "c"}, []string{"a", "b"})) == 0 {
		t.Fatal("wrong posting accepted")
	}
}

// TestReaderDetectsTornPair lets the reader's cross-state comparison see
// one key whose two states differ.
func TestReaderDetectsTornPair(t *testing.T) {
	sp := *findWorkload("mixed-index-mem")
	g, err := setUp(&sp, newInputs(1, 200, sp.theta), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	for i := 0; i < 50; i++ {
		if err := g.rd.pointTxn(); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.rd.stripeScan(0); err != nil || g.rd.torn != 0 {
		t.Fatalf("clean states reported torn=%d err=%v", g.rd.torn, err)
	}
	// Write every key to state 1 only: a transaction that half-committed.
	tx, err := g.p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range g.in.keys {
		if err := g.p.Write(tx, g.tables[1], key, preloadValue(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.p.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := g.rd.pointTxn(); err != nil {
		t.Fatal(err)
	}
	if g.rd.torn == 0 {
		t.Fatal("point reads did not notice that the states differ")
	}
	before := g.rd.torn
	for s := 0; s < scanStripes; s++ {
		if err := g.rd.stripeScan(s); err != nil {
			t.Fatal(err)
		}
	}
	if g.rd.torn == before {
		t.Fatal("stripe scans did not notice that the states differ")
	}
}
