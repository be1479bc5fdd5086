package stream

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/leaktest"
	"sistream/internal/txn"
)

// commitSig is the comparable signature of one committed transaction as
// seen on a change feed: its commit timestamp and the sorted row changes
// it delivered. An ordered []commitSig captures everything the feed must
// preserve — the commit (punctuation) sequence, each commit's element
// multiset, and per-key order (a key appears at most once per commit, so
// ordered commits induce the per-key sequence).
type commitSig struct {
	cts  int64
	rows string
}

func rowSig(tp Tuple) string {
	if tp.Delete {
		return tp.Key + "=DEL"
	}
	return tp.Key + "=" + string(tp.Value)
}

// feedEnv creates a one-table SI group over a mem store. VersionSlots is
// oversized so no version is ever reclaimed mid-test: the feed reads rows
// at historical snapshots, and lazy reclamation would race the (by
// design asynchronous) feed consumers nondeterministically.
func feedEnv(t *testing.T) (txn.Protocol, *txn.Table) {
	t.Helper()
	ctx := txn.NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("feedprop", store, txn.TableOptions{VersionSlots: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	return txn.NewSI(ctx), tbl
}

// runScriptIngest pushes the script through source → Punctuate →
// Transactions(Window) → (lanes) → TO_TABLE with the feed topology
// already started, then stops the feed and waits for it to drain. With
// window > 1 the ingest side runs the fused commit spine: windowed
// transactions and a batching merge barrier (batch = window).
func runScriptIngest(t *testing.T, p txn.Protocol, tbl *txn.Table, script []scriptItem, punctuateN, lanes, window int, feedTop *Topology, stopFeed func()) {
	t.Helper()
	top := New("ingest")
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
	s := src.Punctuate(punctuateN).TransactionsWindow(p, window)
	switch {
	case window > 1:
		region := s.Parallelize(lanes, nil)
		region.ToTable(p, tbl)
		region.MergeBatched("merge", window).Discard()
	case lanes > 1:
		region := s.Parallelize(lanes, nil)
		region.ToTable(p, tbl)
		region.Merge("merge").Discard()
	default:
		s, _ = s.ToTable(p, tbl)
		s.Discard()
	}
	feedTop.Start()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	stopFeed()
	if err := feedTop.Wait(); err != nil {
		t.Fatal(err)
	}
}

// sequentialFeedSigs runs the script with the sequential spine and
// returns the reference commit signatures, in commit order. The reference
// is INDEPENDENT of the feed under test (ToStream shares its code): a
// plain Group.Watch listener records each commit on the committing
// goroutine, reading the rows at the commit's timestamp straight from the
// table.
func sequentialFeedSigs(t *testing.T, script []scriptItem, punctuateN int) []commitSig {
	t.Helper()
	p, tbl := feedEnv(t)
	var sigs []commitSig
	tbl.Group().Watch(func(cts txn.Timestamp, writes map[txn.StateID][]string) {
		keys, ok := writes[tbl.ID()]
		if !ok {
			return
		}
		rows := make([]string, 0, len(keys))
		for _, k := range keys {
			if v, ok := tbl.ReadAt(k, cts); ok {
				rows = append(rows, k+"="+string(v))
			} else {
				rows = append(rows, k+"=DEL")
			}
		}
		sort.Strings(rows)
		sigs = append(sigs, commitSig{cts: int64(cts), rows: strings.Join(rows, ",")})
	})
	runScriptIngest(t, p, tbl, script, punctuateN, 1, 1, New("no-feed"), func() {})
	return sigs
}

// feedWiring selects how the partitioned feed region is consumed:
// merged directly (the PR-4 shape), fused lane-for-lane into a
// downstream parallel region via Reparallelize (no merge hop, single
// spanning barrier), or re-routed through an explicit Merge →
// Parallelize seam (the unfused baseline the fusion removes).
type feedWiring int

const (
	wireMerge feedWiring = iota
	wireFused
	wireRerouted
)

func (w feedWiring) String() string {
	switch w {
	case wireFused:
		return "fused"
	case wireRerouted:
		return "rerouted"
	default:
		return "merge"
	}
}

// partitionedFeedSigs runs the script through lanes ingest lanes (window
// > 1 selecting the batching commit spine) with a parts-way partitioned
// feed consumed through the given wiring and merged back into one
// stream, returning the observed commit signatures and validating the
// punctuation framing. The downstream region applies an identity Map per
// lane so the fused wiring actually carries per-lane consumer chains.
func partitionedFeedSigs(t *testing.T, script []scriptItem, punctuateN, lanes, parts, window int, wiring feedWiring) []commitSig {
	t.Helper()
	p, tbl := feedEnv(t)
	feedTop := New("feed-part")
	region, stopFeed := FromTablePartitioned(feedTop, tbl, parts, nil)
	switch wiring {
	case wireFused:
		region = region.Reparallelize("repart", parts, nil)
	case wireRerouted:
		region = region.Merge("preMerge").Parallelize(parts, nil)
	}
	region = region.Apply(func(_ int, s *Stream) *Stream {
		return s.Map("identity", func(tp Tuple) Tuple { return tp })
	})
	collected := region.Merge("feedmerge").Collect()
	runScriptIngest(t, p, tbl, script, punctuateN, lanes, window, feedTop, stopFeed)

	var sigs []commitSig
	var rows []string
	depth := 0
	for _, e := range <-collected {
		switch e.Kind {
		case KindBOT:
			depth++
			if depth != 1 {
				t.Fatal("nested BOT in merged feed")
			}
			sigs = append(sigs, commitSig{cts: e.Tuple.Ts})
			rows = rows[:0]
		case KindData:
			if depth != 1 {
				t.Fatal("feed data element outside BOT/COMMIT")
			}
			if e.Tuple.Ts != sigs[len(sigs)-1].cts {
				t.Fatalf("element cts %d inside commit %d", e.Tuple.Ts, sigs[len(sigs)-1].cts)
			}
			rows = append(rows, rowSig(e.Tuple))
		case KindCommit:
			depth--
			if depth != 0 {
				t.Fatal("COMMIT without matching BOT in merged feed")
			}
			if e.Tuple.Ts != sigs[len(sigs)-1].cts {
				t.Fatalf("COMMIT cts %d closes commit %d", e.Tuple.Ts, sigs[len(sigs)-1].cts)
			}
			sort.Strings(rows)
			sigs[len(sigs)-1].rows = strings.Join(rows, ",")
		default:
			t.Fatalf("unexpected %v element in merged feed", e.Kind)
		}
	}
	if depth != 0 {
		t.Fatal("merged feed ended inside a transaction")
	}
	return sigs
}

// TestPropertyFeedEquivalence: for random scripts, every ingest lane
// count × feed partition count must deliver exactly the changes the
// sequential spine committed — same commit sequence, same per-commit
// element multisets (and thus the same total multiset and per-key
// order), with the partitioned feed's punctuations correctly framed and
// appearing exactly once per transaction after the merge barrier.
func TestPropertyFeedEquivalence(t *testing.T) {
	leaktest.Check(t)
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + 7000))
			script := genScript(rng)
			punctuateN := 1 + rng.Intn(7)
			want := sequentialFeedSigs(t, script, punctuateN)
			check := func(label string, got []commitSig) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d feed commits, want %d", label, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: commit %d diverged:\n got %+v\nwant %+v", label, i, got[i], want[i])
					}
				}
			}
			for _, lanes := range []int{1, 2, 4} {
				for _, parts := range []int{1, 2, 4} {
					got := partitionedFeedSigs(t, script, punctuateN, lanes, parts, 1, wireMerge)
					check(fmt.Sprintf("lanes=%d parts=%d", lanes, parts), got)
				}
			}
		})
	}
}

// TestPropertyFeedEquivalenceFusedSpine sweeps the FUSED end of the
// pipeline against the same sequential reference: windowed ingest with
// cross-transaction commit batching ({1,2,8}) feeding a partitioned feed
// consumed either fused (direct partition→lane wiring, single spanning
// barrier) or re-routed (explicit Merge → Parallelize seam). Every
// combination must deliver the sequential reference's signatures exactly.
func TestPropertyFeedEquivalenceFusedSpine(t *testing.T) {
	leaktest.Check(t)
	seeds := int64(5)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + 7700))
			script := genScript(rng)
			punctuateN := 1 + rng.Intn(7)
			want := sequentialFeedSigs(t, script, punctuateN)
			for _, window := range []int{1, 2, 8} {
				for _, wiring := range []feedWiring{wireFused, wireRerouted} {
					got := partitionedFeedSigs(t, script, punctuateN, 4, 4, window, wiring)
					label := fmt.Sprintf("window=%d wiring=%s", window, wiring)
					if len(got) != len(want) {
						t.Fatalf("%s: %d feed commits, want %d", label, len(got), len(want))
					}
					for i := range want {
						// Absolute commit timestamps shift under a window
						// (transaction N+1's Begin draws a timestamp before
						// transaction N commits); what must match is the
						// ordered per-commit row signature, with commit
						// timestamps strictly ascending.
						if got[i].rows != want[i].rows {
							t.Fatalf("%s: commit %d rows diverged:\n got %+v\nwant %+v", label, i, got[i], want[i])
						}
						if i > 0 && got[i].cts <= got[i-1].cts {
							t.Fatalf("%s: commit timestamps not ascending: %d then %d", label, got[i-1].cts, got[i].cts)
						}
					}
				}
			}
		})
	}
}

// TestFeedPartitionedPerKeyOrder drives many updates of few keys through
// 4 lanes × 4 partitions and checks each key's value sequence on the
// merged feed is exactly its committed update sequence — the end-to-end
// per-key order guarantee of the shared-nothing pipeline.
func TestFeedPartitionedPerKeyOrder(t *testing.T) {
	p, tbl := feedEnv(t)
	const elements, keys, commitEvery = 4000, 13, 50
	feedTop := New("feed-order")
	region, stopFeed := FromTablePartitioned(feedTop, tbl, 4, nil)
	collected := region.Merge("feedmerge").Collect()

	var script []scriptItem
	for i := 0; i < elements; i++ {
		script = append(script, scriptItem{
			kind: KindData,
			key:  fmt.Sprintf("k%d", i%keys),
			val:  fmt.Sprintf("v%d", i),
		})
	}
	runScriptIngest(t, p, tbl, script, commitEvery, 4, 1, feedTop, stopFeed)

	// Each commit writes each key at most once (write-set dedup keeps the
	// last value); expected per-key sequence is the last write of the key
	// in each transaction window that contains one.
	wantSeq := map[string][]string{}
	for start := 0; start < elements; start += commitEvery {
		end := start + commitEvery
		if end > elements {
			end = elements
		}
		last := map[string]int{}
		for i := start; i < end; i++ {
			last[fmt.Sprintf("k%d", i%keys)] = i
		}
		for k, i := range last {
			wantSeq[k] = append(wantSeq[k], fmt.Sprintf("v%d", i))
		}
	}
	gotSeq := map[string][]string{}
	for _, e := range <-collected {
		if e.Kind == KindData {
			gotSeq[e.Tuple.Key] = append(gotSeq[e.Tuple.Key], string(e.Tuple.Value))
		}
	}
	if len(gotSeq) != keys {
		t.Fatalf("feed saw %d keys, want %d", len(gotSeq), keys)
	}
	for k, want := range wantSeq {
		if fmt.Sprint(gotSeq[k]) != fmt.Sprint(want) {
			t.Fatalf("key %s: per-key order diverged\n got %v\nwant %v", k, gotSeq[k], want)
		}
	}
}

// benchValue is a row value shaped like the gated benchmark's: 28 bytes
// of little-endian sequence number, timestamp and fill — binary, so its
// first byte is rarely one a number can start with.
var benchValue = "\x01\x02\x00\x00\x00\x00\x00\x00\x10\x27\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x00"

// benchValueDigit is a benchmark-shaped value whose first byte — the low
// byte of the sequence number — happens to be the digit '1'.
var benchValueDigit = "1" + benchValue[1:]

// TestChangeTupleNum: a feed tuple's Num is the row value read by
// strconv.ParseFloat only when the ENTIRE value is a literal it accepts;
// everything else — binary payloads above all, the common case on a feed
// — leaves it 0 and the Value untouched. The guard in front of the parse
// changes no Num, and a non-numeric row allocates only its value copy.
func TestChangeTupleNum(t *testing.T) {
	p, tbl := feedEnv(t)
	cases := []struct {
		name, value string
		num         float64
	}{
		{"decimal", "42", 42},
		{"fraction", "-1.5", -1.5},
		{"exponent", "1e3", 1000},
		{"leading dot", ".5", 0.5},
		{"infinity", "+Inf", math.Inf(1)},
		{"nan", "nan", math.NaN()},
		{"hex float", "0x1p-2", 0.25},
		{"underscore", "1_0", 10},
		{"empty", "", 0},
		{"binary", "\x00\x00\x00\x00\x00\x00\x45\x40", 0},
		{"benchmark value", benchValue, 0},
		{"benchmark value starting with a digit", benchValueDigit, 0},
		{"trailing junk", "42abc", 0},
		{"leading space", " 1", 0},
	}
	for _, c := range cases {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(tx, tbl, c.name, []byte(c.value)); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	cts := tbl.Group().LastCTS()
	for _, c := range cases {
		tp := changeTuple(tbl, c.name, cts)
		if tp.Delete || string(tp.Value) != c.value {
			t.Errorf("%s: tuple %+v, want value %q", c.name, tp, c.value)
		}
		if !same(tp.Num, c.num) {
			t.Errorf("%s: Num = %v for value %q, want %v", c.name, tp.Num, c.value, c.num)
		}
		if n, err := strconv.ParseFloat(c.value, 64); err == nil && !same(n, tp.Num) || err != nil && tp.Num != 0 {
			t.Errorf("%s: Num = %v for value %q, ParseFloat says %v, %v", c.name, tp.Num, c.value, n, err)
		}
	}
	if tp := changeTuple(tbl, "never written", cts); !tp.Delete || tp.Num != 0 {
		t.Errorf("missing row: tuple %+v, want Delete with Num 0", tp)
	}
	for _, key := range []string{"benchmark value", "benchmark value starting with a digit"} {
		if n := testing.AllocsPerRun(100, func() { changeTuple(tbl, key, cts) }); n != 1 {
			t.Errorf("changeTuple of the non-numeric row %q: %v allocations, want 1 (the value copy)", key, n)
		}
	}
}

// FuzzChangeTupleNum: the byte guards of feedNum never change what
// strconv.ParseFloat alone would make of a value.
func FuzzChangeTupleNum(f *testing.F) {
	for _, v := range []string{"42", "-1.5", "1e3", ".5", "+Inf", "nan", "0x1p-2", "1_0", " 1", "42abc", "", benchValue, benchValueDigit} {
		f.Add([]byte(v))
	}
	f.Fuzz(func(t *testing.T, v []byte) {
		want, err := strconv.ParseFloat(string(v), 64)
		if err != nil {
			want = 0
		}
		if got := feedNum(v); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("feedNum(%q) = %v, ParseFloat = %v", v, got, want)
		}
	})
}

// TestToStreamPinsGCHorizon: TO_STREAM reads every row at its commit's
// own snapshot, so a lagging consumer must keep those snapshots alive. A
// hot key is overwritten a few hundred times, with a Table.GC after every
// commit, while the ToStream consumer is stalled; once released, every
// emitted row must carry the value its own commit installed — a reclaimed
// version would surface as a spurious Delete — and after stop and drain
// the feed pins nothing.
func TestToStreamPinsGCHorizon(t *testing.T) {
	leaktest.Check(t)
	ctx := txn.NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("hot", store, txn.TableOptions{VersionSlots: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := txn.NewSI(ctx)

	top := New("lagging")
	feed, stopFeed := ToStream(top, tbl, p)
	release := make(chan struct{})
	var rows []Tuple
	feed.Sink("stalled", func(e Element) {
		<-release
		if e.Kind == KindData {
			rows = append(rows, e.Tuple)
		}
	})
	top.Start()

	const commits = 300
	for i := 0; i < commits; i++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(tx, tbl, "k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(tx); err != nil {
			t.Fatal(err)
		}
		tbl.GC()
	}

	close(release)
	stopFeed()
	if err := top.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != commits {
		t.Fatalf("feed delivered %d rows, want %d", len(rows), commits)
	}
	for i, r := range rows {
		if want := fmt.Sprintf("v%d", i); r.Delete || string(r.Value) != want {
			t.Fatalf("row %d = %+v, want value %s (a reclaimed version reads as a spurious Delete)", i, r, want)
		}
	}
	if horizon, now := ctx.OldestActiveVersion(), ctx.Now(); horizon != now {
		t.Fatalf("GC horizon %d after stop and drain, want the clock %d (the feed still pins)", horizon, now)
	}
	tbl.GC()
	if rv := tbl.ResidentVersions(); rv != 1 {
		t.Fatalf("resident versions = %d after the unpinned sweep, want 1", rv)
	}
}
