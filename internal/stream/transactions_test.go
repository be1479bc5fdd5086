package stream

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"sistream/internal/leaktest"
	"sistream/internal/txn"
)

// fusedScript emits txns explicit transactions of three writes each,
// every fifth one ROLLED BACK, then a transaction left open at end of
// stream. It returns the keys the committed transactions wrote, sorted,
// and the number of rollbacks.
func fusedScript(txns int) (gen func(emit func(Element)) error, committed []string, rollbacks int64) {
	for i := 0; i < txns; i++ {
		if i%5 == 4 {
			rollbacks++
			continue
		}
		for j := 0; j < 3; j++ {
			committed = append(committed, fmt.Sprintf("t%03d-%d", i, j))
		}
	}
	sort.Strings(committed)
	gen = func(emit func(Element)) error {
		for i := 0; i < txns; i++ {
			emit(Punctuation(KindBOT))
			for j := 0; j < 3; j++ {
				key := fmt.Sprintf("t%03d-%d", i, j)
				emit(DataElement(Tuple{Key: key, Value: []byte(key)}))
			}
			if i%5 == 4 {
				emit(Punctuation(KindRollback))
			} else {
				emit(Punctuation(KindCommit))
			}
		}
		emit(Punctuation(KindBOT))
		emit(DataElement(Tuple{Key: "dangling-0", Value: []byte("x")}))
		emit(DataElement(Tuple{Key: "dangling-1", Value: []byte("y")}))
		return nil
	}
	return gen, committed, rollbacks
}

// TestTransactionsFusedIntoEveryConsumer: the Transactions stage runs
// inside whichever operator consumes its stream, and before it waits for
// a decision it hands that operator everything it has emitted. The wait
// returns only if every consumer forwards or decides each punctuation of a
// batch before it returns (the consumer contract, see fusedStage) — a
// consumer that held one back would hang the topology here. Each
// topology, for windows 1, 4 and tuned, must finish with every committed
// transaction in its tables, none of a rolled-back or dangling one, and
// no transaction left active.
func TestTransactionsFusedIntoEveryConsumer(t *testing.T) {
	type sunk struct {
		tbl   *txn.Table
		stats *ToTableStats
	}
	// Each topology consumes the transactions stream, declared on the
	// tables it writes (both when two is set, s1 otherwise), and returns
	// the ToTable operators it built.
	topologies := []struct {
		name  string
		two   bool
		build func(s *Stream, e *streamEnv, tun *AutoTuner) []sunk
	}{
		{"ToTable", false, func(s *Stream, e *streamEnv, _ *AutoTuner) []sunk {
			out, st := s.ToTable(e.p, e.t1)
			out.Discard()
			return []sunk{{e.t1, st}}
		}},
		{"two ToTables", true, func(s *Stream, e *streamEnv, _ *AutoTuner) []sunk {
			s, st1 := s.ToTable(e.p, e.t1)
			s, st2 := s.ToTable(e.p, e.t2)
			s.Discard()
			return []sunk{{e.t1, st1}, {e.t2, st2}}
		}},
		{"TableJoin", false, func(s *Stream, e *streamEnv, _ *AutoTuner) []sunk {
			s = s.TableJoin("join", e.p, e.t2, func(j Joined) (Tuple, bool) { return j.Stream, true })
			out, st := s.ToTable(e.p, e.t1)
			out.Discard()
			return []sunk{{e.t1, st}}
		}},
		{"SlidingWindow", false, func(s *Stream, e *streamEnv, _ *AutoTuner) []sunk {
			out, st := s.SlidingWindow("win", 2, Sum).ToTable(e.p, e.t1)
			out.Discard()
			return []sunk{{e.t1, st}}
		}},
		{"Split", true, func(s *Stream, e *streamEnv, _ *AutoTuner) []sunk {
			br := s.Split(2)
			out1, st1 := br[0].ToTable(e.p, e.t1)
			out2, st2 := br[1].ToTable(e.p, e.t2)
			out1.Discard()
			out2.Discard()
			return []sunk{{e.t1, st1}, {e.t2, st2}}
		}},
		{"Parallelize+Merge", false, func(s *Stream, e *streamEnv, _ *AutoTuner) []sunk {
			r := s.Parallelize(3, nil)
			st := r.ToTable(e.p, e.t1)
			r.Merge("merge").Discard()
			return []sunk{{e.t1, st}}
		}},
		{"Parallelize+MergeBatched", false, func(s *Stream, e *streamEnv, _ *AutoTuner) []sunk {
			r := s.Parallelize(3, nil)
			st := r.ToTable(e.p, e.t1)
			r.MergeBatched("merge", 4).Discard()
			return []sunk{{e.t1, st}}
		}},
		{"Parallelize+MergeTuned", false, func(s *Stream, e *streamEnv, tun *AutoTuner) []sunk {
			r := s.Parallelize(3, nil)
			st := r.ToTable(e.p, e.t1)
			r.MergeTuned("merge", tun).Discard()
			return []sunk{{e.t1, st}}
		}},
	}
	windows := []struct {
		name  string
		apply func(s *Stream, e *streamEnv, tun *AutoTuner, tables []*txn.Table) *Stream
	}{
		{"window=1", func(s *Stream, e *streamEnv, _ *AutoTuner, tables []*txn.Table) *Stream {
			return s.Transactions(e.p, tables...)
		}},
		{"window=4", func(s *Stream, e *streamEnv, _ *AutoTuner, tables []*txn.Table) *Stream {
			return s.TransactionsWindow(e.p, 4, tables...)
		}},
		{"tuned", func(s *Stream, e *streamEnv, tun *AutoTuner, tables []*txn.Table) *Stream {
			return s.TransactionsTuned(e.p, tun, tables...)
		}},
	}
	for _, topo := range topologies {
		for _, w := range windows {
			t.Run(topo.name+"/"+w.name, func(t *testing.T) {
				leaktest.Check(t)
				e := newStreamEnv(t)
				tun := NewAutoTuner(AutoTune{MaxWindow: 8})
				gen, committed, rollbacks := fusedScript(40)
				tables := []*txn.Table{e.t1}
				if topo.two {
					tables = append(tables, e.t2)
				}
				top := New("fused")
				sinks := topo.build(w.apply(top.Source("script", gen), e, tun, tables), e, tun)
				done := make(chan error, 1)
				go func() { done <- top.Run() }()
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(20 * time.Second):
					t.Fatal("topology did not finish: a consumer held a punctuation back")
				}
				if n := e.ctx.ActiveCount(); n != 0 {
					t.Fatalf("%d transactions left active (the dangling one must be rolled back)", n)
				}
				for _, s := range sinks {
					// Every ToTable counts one abort per rolled-back
					// transaction — a ToTable behind another one that finds
					// it already aborted counts its failed run, not its
					// ROLLBACK too — and any ToTable may write the dangling
					// one after the stage rolled it back at end of stream.
					c, a := s.stats.Commits.Load(), s.stats.Aborts.Load()
					if c != int64(len(committed)/3) || a < rollbacks || a > rollbacks+1 {
						t.Errorf("%s: commits=%d aborts=%d, want %d and %d..%d", s.tbl.ID(), c, a, len(committed)/3, rollbacks, rollbacks+1)
					}
					rows, err := TableSnapshot(e.p, s.tbl)
					if err != nil {
						t.Fatal(err)
					}
					keys := make([]string, len(rows))
					for i, r := range rows {
						keys[i] = r.Key
					}
					sort.Strings(keys)
					if strings.Join(keys, " ") != strings.Join(committed, " ") {
						t.Errorf("%s holds %v\nwant %v", s.tbl.ID(), keys, committed)
					}
				}
			})
		}
	}
}

// engineGoroutines counts the goroutines with a frame in the non-test
// code of this package or of package txn: a topology's own, and neither
// the test runner's nor one an earlier test leaves exiting, which a
// difference of runtime.NumGoroutine counts too.
func engineGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, line := range strings.Split(g, "\n") {
			if (strings.Contains(line, "/internal/stream/") || strings.Contains(line, "/internal/txn/")) &&
				strings.HasPrefix(line, "\t") && !strings.Contains(line, "_test.go:") {
				count++
				break
			}
		}
	}
	return count
}

// TestTransactionsOwnNoGoroutine: Transactions and ToTable are fused
// stages, so a blocked sequential spine runs one goroutine for its source
// and one per operator that keeps one — the Sink, a TableJoin. Each shape
// has a budget: a ToTable run as an operator goroutine would add one per
// ToTable (3 and 4 before it was fused), a Transactions goroutine one
// more. A budget may only fall. The count is of the engine's goroutines
// (engineGoroutines), taken once every operator has parked.
func TestTransactionsOwnNoGoroutine(t *testing.T) {
	for _, c := range []struct {
		name   string
		budget int
		build  func(s *Stream, e *streamEnv) *Stream
		// feed adds a 2-partition change feed of t1 to the topology:
		// FromTablePartitioned→Reparallelize(2)→Merge→Sink.
		feed bool
	}{
		{"one ToTable", 2, func(s *Stream, e *streamEnv) *Stream {
			s, _ = s.Transactions(e.p).ToTable(e.p, e.t1)
			return s
		}, false},
		{"two ToTables", 2, func(s *Stream, e *streamEnv) *Stream {
			s, _ = s.Transactions(e.p, e.t1, e.t2).ToTable(e.p, e.t1)
			s, _ = s.ToTable(e.p, e.t2)
			return s
		}, false},
		{"ToTable then TableJoin", 3, func(s *Stream, e *streamEnv) *Stream {
			s, _ = s.Transactions(e.p).ToTable(e.p, e.t1)
			return s.TableJoin("join", e.p, e.t2, func(j Joined) (Tuple, bool) { return j.Stream, true })
		}, false},
		// The source, the router, two lanes, the merge's closer and spine
		// worker, the Sink.
		{"Parallelize(2) ToTable MergeBatched(8)", 7, func(s *Stream, e *streamEnv) *Stream {
			r := s.Transactions(e.p).Parallelize(2, nil)
			r.ToTable(e.p, e.t1)
			return r.MergeBatched("merge", 8)
		}, false},
		// The source and Sink; the feed's dispatcher, its two partitions,
		// the Merge's two lanes and closer (Reparallelize fuses lane for
		// lane), its Sink.
		{"one ToTable and a 2-partition feed", 9, func(s *Stream, e *streamEnv) *Stream {
			s, _ = s.Transactions(e.p).ToTable(e.p, e.t1)
			return s
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			leaktest.Check(t)
			e := newStreamEnv(t)
			release := make(chan struct{})
			seen := make(chan struct{}, 1)
			top := New("blocked")
			src := top.Source("src", func(emit func(Element)) error {
				for i := 0; i < 10; i++ {
					emit(DataElement(Tuple{Key: fmt.Sprint(i), Value: []byte("v")}))
				}
				<-release
				return nil
			}).Punctuate(5)
			stopFeed := func() {}
			if c.feed {
				var region *ParallelRegion
				region, stopFeed = FromTablePartitioned(top, e.t1, 2, nil)
				region.Reparallelize("repart", 2, nil).Merge("feedmerge").Sink("feedsink", func(Element) {})
			}
			c.build(src, e).Sink("sink", func(el Element) {
				if el.Kind == KindCommit {
					select {
					case seen <- struct{}{}:
					default:
					}
				}
			})
			top.Start()
			<-seen
			// Every operator is parked now: the source on release, the
			// others on their input edges.
			deadline := time.Now().Add(2 * time.Second)
			n := engineGoroutines()
			for n != c.budget && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
				n = engineGoroutines()
			}
			close(release)
			stopFeed()
			if err := top.Wait(); err != nil {
				t.Fatal(err)
			}
			if n != c.budget {
				t.Fatalf("blocked topology runs %d goroutines, want %d", n, c.budget)
			}
		})
	}
}
