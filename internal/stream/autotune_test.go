package stream

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"sistream/internal/kv"
	"sistream/internal/txn"
)

// This file pins the self-tuning spine to the promise that makes it safe
// to leave on: tuning changes BATCHING GEOMETRY only. Whatever batches the
// work-conserving spine forms, the committed table contents, stats and
// punctuation framing are identical to the sequential reference — across
// protocols, wiring shapes (direct, fused Reparallelize, merge+re-route
// fallback), and a store whose commit latency swings mid-stream.

// runSpineTuned is runSpine with one tuner in both ends of
// the spine (TransactionsTuned + MergeTuned) and a selectable region
// wiring between them.
func runSpineTuned(t *testing.T, script []scriptItem, punctuateN, lanes int, wiring string, cfg AutoTune, proto func(*txn.Context) txn.Protocol) (sig []string, rows map[string]string, stats *ToTableStats) {
	t.Helper()
	ctx := txn.NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("prop", store, txn.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := proto(ctx)
	tun := NewAutoTuner(cfg)

	top := New("prop-tuned")
	src := top.Source("script", func(emit func(Element)) error {
		for _, it := range script {
			if it.kind == KindData {
				emit(DataElement(Tuple{Key: it.key, Value: []byte(it.val), Delete: it.del}))
			} else {
				emit(Punctuation(it.kind))
			}
		}
		return nil
	})
	region := src.Punctuate(punctuateN).TransactionsTuned(p, tun).Parallelize(lanes, nil)
	switch wiring {
	case "direct":
	case "fused":
		// Same count, same (default) token: must wire lane-for-lane.
		region = region.Reparallelize("re", lanes, nil)
	case "reroute":
		// Count mismatch: merge barrier + fresh router in the middle.
		region = region.Reparallelize("re", lanes/2+1, nil)
	default:
		t.Fatalf("unknown wiring %q", wiring)
	}
	stats = region.ToTable(p, tbl)
	collected := region.MergeTuned("merge", tun).Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range <-collected {
		switch e.Kind {
		case KindBOT:
			sig = append(sig, "B")
		case KindData:
			sig = append(sig, "D:"+e.Tuple.Key)
		case KindCommit:
			sig = append(sig, "C")
		case KindRollback:
			sig = append(sig, "R")
		}
	}
	kvs, err := TableSnapshot(p, tbl)
	if err != nil {
		t.Fatal(err)
	}
	rows = map[string]string{}
	for _, r := range kvs {
		rows[r.Key] = string(r.Value)
	}
	return sig, rows, stats
}

// TestPropertyAdaptiveEquivalence: random scripts (rollbacks included)
// through the self-tuning spine must reproduce the sequential reference
// exactly — for all three protocols and all three wiring shapes, with
// batch boundaries falling wherever the commits happen to leave them.
func TestPropertyAdaptiveEquivalence(t *testing.T) {
	protos := map[string]func(*txn.Context) txn.Protocol{
		"mvcc": func(c *txn.Context) txn.Protocol { return txn.NewSI(c) },
		"s2pl": func(c *txn.Context) txn.Protocol { return txn.NewS2PL(c) },
		"bocc": func(c *txn.Context) txn.Protocol { return txn.NewBOCC(c) },
	}
	seeds := int64(4)
	if testing.Short() {
		seeds = 2
	}
	twitchy := AutoTune{MaxWindow: 8}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed + 7700))
		script := genScript(rng)
		punctuateN := 1 + rng.Intn(7)
		want := runRef(script, punctuateN, 0)
		for name, proto := range protos {
			for _, wiring := range []string{"direct", "fused", "reroute"} {
				t.Run(fmt.Sprintf("seed=%d/%s/%s", seed, name, wiring), func(t *testing.T) {
					sig, rows, stats := runSpineTuned(t, script, punctuateN, 4, wiring, twitchy, proto)
					checkSpineAgainstRef(t, name+"/"+wiring, want, sig, rows, stats)
				})
			}
		}
	}
}

// phasedStore makes 4 of every 32 Applies slow, so the spine's batches
// swing between small and full for the whole run.
type phasedStore struct {
	kv.Store
	slow    time.Duration
	applies atomic.Int64
}

func (s *phasedStore) Apply(b *kv.Batch, sync bool) error {
	if (s.applies.Add(1)-1)%32 < 4 {
		time.Sleep(s.slow)
	}
	return s.Store.Apply(b, sync)
}

// TestStressTunedSpineSlowStore is the -race stress of the tuned spine over
// a store that alternates slow and fast phases, so batches fill to the
// in-flight bound behind a slow Apply and shrink again behind fast ones —
// concurrent with 8 lanes, windowed transactions, rollbacks splitting
// batches — and the outcome must still match the sequential expectation
// exactly.
func TestStressTunedSpineSlowStore(t *testing.T) {
	ctx := txn.NewContext()
	store := &phasedStore{Store: kv.NewMem(), slow: 6 * time.Millisecond}
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("stress", store, txn.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ctx.CreateGroup("g", tbl)
	if err != nil {
		t.Fatal(err)
	}
	p := txn.NewSI(ctx)
	tun := NewAutoTuner(AutoTune{MaxWindow: 16})

	txns := 2000
	if testing.Short() {
		txns = 400
	}
	// Rollbacks split the spine's batches into clean runs of at most 12.
	const keys, perTxn, rollbackEvery = 97, 7, 13

	top := New("stress-tune")
	src := top.Source("gen", func(emit func(Element)) error {
		n := 0
		for i := 0; i < txns; i++ {
			emit(Punctuation(KindBOT))
			for j := 0; j < perTxn; j++ {
				emit(DataElement(Tuple{
					Key:   fmt.Sprintf("k%02d", n%keys),
					Value: []byte(fmt.Sprintf("t%05d", i)),
				}))
				n++
			}
			if (i+1)%rollbackEvery == 0 {
				emit(Punctuation(KindRollback))
			} else {
				emit(Punctuation(KindCommit))
			}
		}
		return nil
	})
	region := src.TransactionsTuned(p, tun).Parallelize(8, nil)
	stats := region.ToTable(p, tbl)
	region.MergeTuned("merge", tun).Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}

	wantCommits := int64(txns - txns/rollbackEvery)
	wantAborts := int64(txns / rollbackEvery)
	if c, a := stats.Commits.Load(), stats.Aborts.Load(); c != wantCommits || a != wantAborts {
		t.Fatalf("commits=%d aborts=%d, want %d/%d", c, a, wantCommits, wantAborts)
	}
	if w := stats.Writes.Load(); w != int64(txns*perTxn) {
		t.Fatalf("writes=%d, want %d", w, txns*perTxn)
	}
	if committed := g.CommitProfile().Txns; committed != uint64(wantCommits) {
		t.Fatalf("group committed %d, want %d", committed, wantCommits)
	}
	want := map[string]string{}
	n := 0
	for i := 0; i < txns; i++ {
		commit := (i+1)%rollbackEvery != 0
		for j := 0; j < perTxn; j++ {
			if commit {
				want[fmt.Sprintf("k%02d", n%keys)] = fmt.Sprintf("t%05d", i)
			}
			n++
		}
	}
	rows, err := TableSnapshot(p, tbl)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.Key] = string(r.Value)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("table diverged over the phased store:\n got %d keys\nwant %d keys", len(got), len(want))
	}
}
