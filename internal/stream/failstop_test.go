package stream

import (
	"errors"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/leaktest"
	"sistream/internal/lsm"
	"sistream/internal/txn"
)

// TestSpineDrainsCleanlyOnGroupFailure: a sticky sync failure mid-run
// poisons the commit group; every TO_TABLE close — the sequential
// operator, the Merge coordinator, the static and the tuned spine, which
// all decide through tableSink.decide — must surface exactly ONE topology
// failure (wrapping txn.ErrGroupFailed), account every later boundary as
// an abort, and drain to completion — no wedged worker, no post-failure
// commit acknowledged. The durable image under the fault layer is the
// volatile store and the LSM store.
func TestSpineDrainsCleanlyOnGroupFailure(t *testing.T) {
	closes := map[string]func(s *Stream, p txn.Protocol, tbl *txn.Table) *ToTableStats{
		"sequential": func(s *Stream, p txn.Protocol, tbl *txn.Table) *ToTableStats {
			out, stats := s.Transactions(p).ToTable(p, tbl)
			out.Discard()
			return stats
		},
		"Merge": func(s *Stream, p txn.Protocol, tbl *txn.Table) *ToTableStats {
			region := s.Transactions(p).Parallelize(2, nil)
			stats := region.ToTable(p, tbl)
			region.Merge("merge").Discard()
			return stats
		},
		"MergeBatched": func(s *Stream, p txn.Protocol, tbl *txn.Table) *ToTableStats {
			region := s.TransactionsWindow(p, 4).Parallelize(2, nil)
			stats := region.ToTable(p, tbl)
			region.MergeBatched("merge", 4).Discard()
			return stats
		},
		"MergeTuned": func(s *Stream, p txn.Protocol, tbl *txn.Table) *ToTableStats {
			tun := NewAutoTuner(AutoTune{MaxWindow: 4})
			region := s.TransactionsTuned(p, tun).Parallelize(2, nil)
			stats := region.ToTable(p, tbl)
			region.MergeTuned("merge", tun).Discard()
			return stats
		},
	}
	for closeName, build := range closes {
		for storeName, inner := range map[string]func(t *testing.T) kv.Store{
			"fault+mem": func(*testing.T) kv.Store { return kv.NewMem() },
			"fault+lsm": func(t *testing.T) kv.Store {
				db, err := lsm.Open(t.TempDir(), lsm.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return db
			},
		} {
			t.Run(closeName+"/"+storeName, func(t *testing.T) { drainsCleanlyOnGroupFailure(t, inner, build) })
		}
	}
}

func drainsCleanlyOnGroupFailure(t *testing.T, inner func(*testing.T) kv.Store, build func(*Stream, txn.Protocol, *txn.Table) *ToTableStats) {
	leaktest.Check(t) // the drained topology and the closed store leave nothing running
	fault := kv.NewFault(inner(t))
	defer fault.Close() // closes the durable image the reopened handle shares
	badDisk := errors.New("injected: EIO")
	// Fail the 4th durability point and every one after it.
	fault.FailSyncAt(4, badDisk)

	ctx := txn.NewContext()
	tbl, err := ctx.CreateTable("t", fault, txn.TableOptions{SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	group, err := ctx.CreateGroup("g", tbl)
	if err != nil {
		t.Fatal(err)
	}
	p := txn.NewSI(ctx)

	const elements, commitEvery = 400, 10
	top := New("failstop")
	src := top.Source("gen", func(emit func(Element)) error {
		for i := 0; i < elements; i++ {
			emit(DataElement(Tuple{Key: "k" + string(rune('a'+i%7)), Value: []byte{byte(i)}}))
		}
		return nil
	})
	stats := build(src.Punctuate(commitEvery), p, tbl)

	// The run must TERMINATE (a wedged spine worker would hang the test)
	// and surface the fail-stop error through the region's error path.
	err = top.Run()
	if err == nil {
		t.Fatal("expected the topology to fail")
	}
	if !errors.Is(err, txn.ErrGroupFailed) || !errors.Is(err, badDisk) {
		t.Fatalf("topology error = %v, want ErrGroupFailed wrapping the injected EIO", err)
	}
	if len(top.errs) != 1 {
		t.Fatalf("%d topology errors, want exactly one (the latched fail-stop verdict); the second: %v", len(top.errs), top.errs[1])
	}

	if group.Err() == nil {
		t.Fatal("group not poisoned")
	}
	commits, aborts := stats.Commits.Load(), stats.Aborts.Load()
	if commits == 0 {
		t.Fatal("no commit succeeded before the injected failure")
	}
	if aborts == 0 {
		t.Fatal("no post-failure boundary was drained as an abort")
	}
	if commits+aborts != elements/commitEvery {
		t.Fatalf("commits(%d)+aborts(%d) != %d transactions", commits, aborts, elements/commitEvery)
	}
	txns := group.CommitProfile().Txns
	if int64(txns) != commits {
		t.Fatalf("group committed %d txns, stats acked %d", txns, commits)
	}

	// No post-failure commit was acknowledged: a crash + reopen recovers
	// a watermark equal to the last acknowledged commit — nothing less
	// (acked durable work lost) and nothing more (unacked work leaked).
	lastAcked := group.LastCTS()
	re, err := fault.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	ctx2 := txn.NewContext()
	tbl2, err := ctx2.CreateTable("t", re, txn.TableOptions{SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	group2, err := ctx2.CreateGroup("g", tbl2)
	if err != nil {
		t.Fatal(err)
	}
	if group2.LastCTS() != lastAcked {
		t.Fatalf("recovered watermark %d != last acknowledged commit %d", group2.LastCTS(), lastAcked)
	}
}
