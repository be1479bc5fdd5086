package txn

import (
	"bytes"
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sistream/internal/kv"
)

// valueBucket indexes rows by the first byte of their value; values
// starting with 'x' are excluded (a partial index), so rewrites can move
// rows in and out of the index, not just between buckets.
func valueBucket(_ string, v []byte) (string, bool) {
	if len(v) == 0 || v[0] == 'x' {
		return "", false
	}
	return string(v[:1]), true
}

// lookupAll collects an index lookup at rts into a key→value map.
func lookupAll(t *testing.T, ix *Index, rts Timestamp, ikey string) map[string]string {
	t.Helper()
	out := map[string]string{}
	ix.lookup(rts, ikey, func(k string, v []byte) bool {
		if _, dup := out[k]; dup {
			t.Fatalf("lookup(%q) returned key %q twice", ikey, k)
		}
		out[k] = string(v)
		return true
	})
	return out
}

// checkLookupEqualsScan is the index's consistency condition, evaluated:
// for every bucket, Lookup at rts must return exactly the rows — keys and
// values — of a scan at rts filtered by the extractor.
func checkLookupEqualsScan(t testing.TB, tbl *Table, ix *Index, rts Timestamp, buckets string) {
	t.Helper()
	want := map[string]map[string]string{}
	scanStripe(tbl, rts, 0, 1, func(k string, v []byte) bool {
		if b, ok := ix.extract(k, v); ok {
			if want[b] == nil {
				want[b] = map[string]string{}
			}
			want[b][k] = string(v)
		}
		return true
	})
	for _, c := range buckets {
		b := string(c)
		got := map[string]string{}
		ix.lookup(rts, b, func(k string, v []byte) bool {
			if _, dup := got[k]; dup {
				t.Errorf("rts %d bucket %s: key %s returned twice", rts, b, k)
			}
			got[k] = string(v)
			return true
		})
		if len(got) != len(want[b]) {
			t.Errorf("rts %d bucket %s: lookup has %d rows, filtered scan %d", rts, b, len(got), len(want[b]))
		}
		for k, v := range want[b] {
			if gv, ok := got[k]; !ok || gv != v {
				t.Errorf("rts %d bucket %s key %s: lookup %q (found %v), scan %q", rts, b, k, gv, ok, v)
			}
		}
	}
}

// TestIndexCreateValidation pins the CreateIndex contract: arguments,
// group membership, duplicate names, and the accessors.
func TestIndexCreateValidation(t *testing.T) {
	e := newEnv(t)
	if _, err := e.t1.CreateIndex("", valueBucket); err == nil {
		t.Fatal("empty index name accepted")
	}
	if _, err := e.t1.CreateIndex("b", nil); err == nil {
		t.Fatal("nil extractor accepted")
	}

	// A table outside any group has no commit pipeline to hook into.
	loose := NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	orphan, err := loose.CreateTable("orphan", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orphan.CreateIndex("b", valueBucket); err == nil {
		t.Fatal("CreateIndex on an ungrouped table accepted")
	}

	ix, err := e.t1.CreateIndex("b", valueBucket)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.t1.CreateIndex("b", valueBucket); err == nil {
		t.Fatal("duplicate index name accepted")
	}
	if got := e.t1.Index("b"); got != ix {
		t.Fatalf("Index(b) = %v, want the created index", got)
	}
	if e.t1.Index("nope") != nil {
		t.Fatal("Index(nope) returned an index")
	}
	if got := len(e.t1.Indexes()); got != 1 {
		t.Fatalf("Indexes() has %d entries, want 1", got)
	}
	if ix.Name() != "b" || ix.Table() != e.t1 {
		t.Fatalf("accessors: name=%q table=%v", ix.Name(), ix.Table())
	}
}

// TestIndexBackfillMaintenanceAndTimeTravel covers the index lifecycle:
// the backfill over pre-existing committed rows, commit-path maintenance
// (bucket moves, partial-index entry/exit, deletes), and MVCC reads —
// a lookup at an old snapshot returns the old buckets.
func TestIndexBackfillMaintenanceAndTimeTravel(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)

	// Committed before the index exists: the backfill must cover these,
	// excluding the partial-index 'x' row.
	write(t, p, e.t1, "k1", "a1", "k2", "a2", "k3", "b3", "k4", "x4")
	ix, err := e.t1.CreateIndex("bucket", valueBucket)
	if err != nil {
		t.Fatal(err)
	}
	cts0 := e.group.LastCTS()
	if got := lookupAll(t, ix, cts0, "a"); len(got) != 2 || got["k1"] != "a1" || got["k2"] != "a2" {
		t.Fatalf("backfilled bucket a = %v, want k1:a1 k2:a2", got)
	}
	if got := lookupAll(t, ix, cts0, "b"); len(got) != 1 || got["k3"] != "b3" {
		t.Fatalf("backfilled bucket b = %v, want k3:b3", got)
	}
	if got := lookupAll(t, ix, cts0, "x"); len(got) != 0 {
		t.Fatalf("partial index holds excluded rows: %v", got)
	}

	// Maintenance in one transaction: k1 moves a→b, k2 leaves the index
	// (→ 'x'), k4 enters it (x→'a'), k3 is deleted, k5 is born in 'a'.
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"k1", "b1"}, {"k2", "x2"}, {"k4", "a4"}, {"k5", "a5"}} {
		if err := p.Write(tx, e.t1, kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Delete(tx, e.t1, "k3"); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, tx)
	cts1 := e.group.LastCTS()

	if got := lookupAll(t, ix, cts1, "a"); len(got) != 2 || got["k4"] != "a4" || got["k5"] != "a5" {
		t.Fatalf("bucket a after churn = %v, want k4:a4 k5:a5", got)
	}
	if got := lookupAll(t, ix, cts1, "b"); len(got) != 1 || got["k1"] != "b1" {
		t.Fatalf("bucket b after churn = %v, want k1:b1", got)
	}

	// Time travel: the same lookups at cts0 still see the old world.
	if got := lookupAll(t, ix, cts0, "a"); len(got) != 2 || got["k1"] != "a1" || got["k2"] != "a2" {
		t.Fatalf("bucket a at old snapshot = %v, want k1:a1 k2:a2", got)
	}
	if got := lookupAll(t, ix, cts0, "b"); len(got) != 1 || got["k3"] != "b3" {
		t.Fatalf("bucket b at old snapshot = %v, want k3:b3", got)
	}

	// Puts counts candidate entries: 3 from the backfill, then b/k1, a/k4
	// and a/k5 (k2's and k3's writes carry no index key). Nothing is swept
	// while cts0 is worth reading, so Deletes stays 0.
	st := ix.Stats()
	if st.Puts != 6 || st.Deletes != 0 || st.Lookups == 0 || st.Hits == 0 {
		t.Fatalf("stats: %+v, want 6 puts, 0 deletes, lookups and hits counted", st)
	}
}

// recordingStore records the shape of every Apply it forwards.
type recordingStore struct {
	kv.Store
	mu      sync.Mutex
	applies [][]kv.Op
}

func (r *recordingStore) Apply(b *kv.Batch, sync bool) error {
	r.mu.Lock()
	r.applies = append(r.applies, append([]kv.Op(nil), b.Ops()...))
	r.mu.Unlock()
	return r.Store.Apply(b, sync)
}

// TestIndexWritesNoStoreRows pins what an index costs the base store:
// nothing. The commit batch of an indexed table is its rows plus the
// watermark, no key under "i/" exists after churn, and CreateIndex clears
// the posting rows a directory written by an older version still holds.
func TestIndexWritesNoStoreRows(t *testing.T) {
	ctx := NewContext()
	mem := kv.NewMem()
	t.Cleanup(func() { mem.Close() })
	// Stale posting rows of the index about to be created, and one of
	// another index that must be left alone.
	stale := kv.NewBatch(3)
	for _, k := range []string{"i/rows/bucket/a\x00k1", "i/rows/bucket/b\x00k2", "i/rows/other/a\x00k1"} {
		stale.Put([]byte(k), nil)
	}
	if err := mem.Apply(stale, false); err != nil {
		t.Fatal(err)
	}
	store := &recordingStore{Store: mem}
	tbl, err := ctx.CreateTable("rows", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	write(t, p, tbl, "k1", "a1", "k2", "b2")

	indexRows := func() []string {
		t.Helper()
		var out []string
		if err := mem.Scan([]byte("i/rows/bucket/"), []byte("i/rows/bucket/\xff"), func(k, _ []byte) bool {
			out = append(out, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := indexRows(); len(got) != 2 {
		t.Fatalf("test setup: %d stale posting rows, want 2", len(got))
	}
	if _, err := tbl.CreateIndex("bucket", valueBucket); err != nil {
		t.Fatal(err)
	}
	if got := indexRows(); len(got) != 0 {
		t.Fatalf("posting rows after CreateIndex: %q, want none", got)
	}
	if _, found, _ := mem.Get([]byte("i/rows/other/a\x00k1")); !found {
		t.Fatal("CreateIndex cleared another index's rows")
	}

	// Churn: bucket moves, partial-index exits and entries, a delete.
	store.applies = nil
	const n = 6
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []string{"b1", "x2", "a3", "a4", "b5"} {
		if err := p.Write(tx, tbl, fmt.Sprintf("k%d", i+1), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Delete(tx, tbl, "k6"); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, tx)
	if len(store.applies) != 1 {
		t.Fatalf("%d Apply calls for one commit, want 1", len(store.applies))
	}
	rows, marks := 0, 0
	for _, op := range store.applies[0] {
		switch {
		case bytes.HasPrefix(op.Key, []byte("s/rows/")):
			rows++
		case bytes.HasPrefix(op.Key, []byte("m/rows/")):
			marks++
		default:
			t.Errorf("commit batch holds %q: neither a row nor the watermark", op.Key)
		}
	}
	if rows != n || marks != 1 {
		t.Fatalf("commit batch: %d row ops + %d watermarks, want %d + 1", rows, marks, n)
	}
	write(t, p, tbl, "k1", "a1", "k2", "b2", "k3", "x3")
	if got := indexRows(); len(got) != 0 {
		t.Fatalf("posting rows after churn: %q, want none", got)
	}
}

// TestIndexLookupExactForSnapshotsOlderThanIndex: a snapshot pinned
// before the index existed reads it as consistently as any other. The
// backfill therefore covers every retained version of a row, not only
// the newest.
func TestIndexLookupExactForSnapshotsOlderThanIndex(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	write(t, p, e.t1, "k1", "a1")
	snap, err := e.ctx.Snapshot(e.t1)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	write(t, p, e.t1, "k1", "b1")
	ix, err := e.t1.CreateIndex("bucket", valueBucket)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	if err := snap.Lookup(ix, "a", func(k string, v []byte) bool {
		got[k] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got["k1"] != "a1" {
		t.Fatalf("Lookup(a) under the older snapshot = %v, want k1:a1 (what its Scan sees)", got)
	}
	checkLookupEqualsScan(t, e.t1, ix, snap.CTS(), "abx")
	checkLookupEqualsScan(t, e.t1, ix, e.group.LastCTS(), "abx")
}

// TestIndexGCBoundsResidentPostings churns one batch of keys across
// buckets under no pins and checks a sweep collapses posting residency
// to the live posting per key — dead postings are reclaimed by the same
// horizon policy as dead row versions.
func TestIndexGCBoundsResidentPostings(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	ix, err := e.t1.CreateIndex("bucket", valueBucket)
	if err != nil {
		t.Fatal(err)
	}

	const keys, rewrites = 16, 12
	for r := 0; r < rewrites; r++ {
		for i := 0; i < keys; i++ {
			// Cycle every key through buckets a..d.
			write(t, p, e.t1, fmt.Sprintf("k%02d", i), fmt.Sprintf("%c%d", 'a'+r%4, r))
		}
	}
	// Sweep the whole table a few times: the cursor-based index sweep
	// covers all index shards across full-table GC passes. (Residency
	// before the sweep is not asserted — the commit path already
	// reclaims lazily on slot pressure.)
	for s := 0; s < 4; s++ {
		e.t1.GC()
	}
	if got := ix.ResidentPostings(); got > keys {
		t.Fatalf("resident postings %d after GC, want <= %d (one live posting per key)", got, keys)
	}

	// The surviving postings are exactly the live bucket contents.
	cts := e.group.LastCTS()
	last := fmt.Sprintf("%c%d", 'a'+(rewrites-1)%4, rewrites-1)
	if got := lookupAll(t, ix, cts, last[:1]); len(got) != keys {
		t.Fatalf("live bucket %q has %d keys after GC, want %d", last[:1], len(got), keys)
	}
}

// TestIndexRoamingKeysLeaveNothingBehind bounds the number of index
// ENTRIES: keys that visit every bucket leave, once their old versions
// are reclaimed, one candidate each — and under a pinned snapshot exactly
// the candidates of the versions that pin retains.
func TestIndexRoamingKeysLeaveNothingBehind(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	ix, err := e.t1.CreateIndex("bucket", valueBucket)
	if err != nil {
		t.Fatal(err)
	}
	const (
		keys    = 64
		buckets = "abcdefgh"
		rounds  = 3 * len(buckets)
	)
	round := func(r int) {
		t.Helper()
		kvs := make([]string, 0, 2*keys)
		for i := 0; i < keys; i++ {
			kvs = append(kvs, fmt.Sprintf("k%02d", i), fmt.Sprintf("%c%d", buckets[(r+i)%len(buckets)], r))
		}
		write(t, p, e.t1, kvs...)
	}
	sweep := func() {
		for s := 0; s < 3; s++ {
			e.t1.GC()
		}
	}
	r := 0
	for ; r < rounds; r++ {
		round(r)
	}
	sweep()
	if got := ix.ResidentPostings(); got > keys {
		t.Fatalf("%d index entries after %d roaming rounds and GC, want <= %d (one per key)", got, rounds, keys)
	}
	checkLookupEqualsScan(t, e.t1, ix, e.group.LastCTS(), buckets)

	// Pinned: the snapshot's version of every key, and the two written
	// after the pin, stay retained (the horizon is the pin) — three
	// buckets per key, no more, and the pinned snapshot still reads all
	// of its rows through the index.
	snap, err := e.ctx.Snapshot(e.t1)
	if err != nil {
		t.Fatal(err)
	}
	round(r)
	round(r + 1)
	sweep()
	if got := ix.ResidentPostings(); got != 3*keys {
		t.Fatalf("%d index entries under a pin two rounds old, want exactly %d", got, 3*keys)
	}
	checkLookupEqualsScan(t, e.t1, ix, snap.CTS(), buckets)
	checkLookupEqualsScan(t, e.t1, ix, e.group.LastCTS(), buckets)
	snap.Release()
	sweep()
	if got := ix.ResidentPostings(); got != keys {
		t.Fatalf("%d index entries after the pin was released, want %d", got, keys)
	}
	checkLookupEqualsScan(t, e.t1, ix, e.group.LastCTS(), buckets)
	if st := ix.Stats(); int(st.Puts-st.Deletes) != keys {
		t.Fatalf("stats %+v: puts - deletes should be the %d resident entries", st, keys)
	}
}

// TestIndexCandidatesBoundedWithoutGC: a write that moves a row out of a
// set its memos forgot takes it out of that set, so an index whose rows
// roam holds at most rowMemos entries per row with no Table.GC at all —
// the bound Lookup's doc states. 1 000 rows take one of 64 index keys at
// random every round, all in one SI commit, and nothing sweeps. Without
// the drop on write the entries grew with every key a row had ever held:
// 35 374 after 50 rounds.
func TestIndexCandidatesBoundedWithoutGC(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	ix, err := e.t1.CreateIndex("value", func(_ string, v []byte) (string, bool) { return string(v), true })
	if err != nil {
		t.Fatal(err)
	}
	const rows, values, rounds = 1000, 64, 60
	rng := newRand(1)
	ops := make([]WriteOp, rows)
	for round := 0; round < rounds; round++ {
		for i := range ops {
			ops[i] = WriteOp{Key: fmt.Sprintf("r%04d", i), Value: []byte(fmt.Sprintf("v%02d", rng.Intn(values)))}
		}
		tx, _ := p.Begin()
		if _, err := p.WriteBatch(tx, e.t1, ops); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, p, tx)
		if got := ix.ResidentPostings(); got > rowMemos*rows {
			t.Fatalf("round %d: %d index entries without GC, want <= %d (%d per row)", round, got, rowMemos*rows, rowMemos)
		}
	}
	if st := ix.Stats(); st.Swept != 0 || int(st.Puts-st.Deletes) != ix.ResidentPostings() {
		t.Fatalf("stats %+v: no sweep ran, and puts - deletes must be the %d resident entries", st, ix.ResidentPostings())
	}
	cts := e.group.LastCTS()
	n := 0
	for v := range values {
		n += len(lookupAll(t, ix, cts, fmt.Sprintf("v%02d", v)))
	}
	if n != rows {
		t.Fatalf("lookups over all %d values found %d rows, want %d", values, n, rows)
	}
}

// TestIndexBackfillMatchesPerVersionAdds: the backfill groups rows by
// index key and builds each set whole, and must end where adding every
// retained version one at a time ends. Snapshots held between rounds of
// roaming writes keep several versions per row; CreateIndex then runs,
// and a reference index is filled by Index.add over every retained
// version. Per index key both must hold the same candidate rows, the two
// must hold as many entries, and Lookup must equal the filtered scan at
// every cut still pinned.
func TestIndexBackfillMatchesPerVersionAdds(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	const rows, buckets = 300, "abcdefg"
	rng := newRand(3)
	var snaps []*Snapshot
	for round := 0; round < 6; round++ {
		ops := make([]WriteOp, 0, rows)
		for i := 0; i < rows; i++ {
			if rng.Intn(3) == 0 {
				continue
			}
			v := fmt.Sprintf("%c%d", buckets[rng.Intn(len(buckets))], round)
			if rng.Intn(10) == 0 {
				v = "x" // unindexed
			}
			ops = append(ops, WriteOp{Key: fmt.Sprintf("k%03d", i), Value: []byte(v), Delete: rng.Intn(12) == 0})
		}
		tx, _ := p.Begin()
		if _, err := p.WriteBatch(tx, e.t1, ops); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, p, tx)
		if round%2 == 0 {
			snap, err := e.ctx.Snapshot(e.t1)
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap)
		}
	}
	defer func() {
		for _, s := range snaps {
			s.Release()
		}
	}()
	ix, err := e.t1.CreateIndex("bucket", valueBucket)
	if err != nil {
		t.Fatal(err)
	}
	ref := &Index{name: "ref", tbl: e.t1, extract: valueBucket}
	for i := range ref.shards {
		ref.shards[i].m = make(map[string]*candidates)
	}
	e.group.commitMu.Lock()
	for i := range e.t1.shards {
		for _, r := range e.t1.shards[i].appendRows(nil) {
			r.obj.Retained(func(values iter.Seq[[]byte]) {
				for v := range values {
					ref.add(r, v)
				}
			})
		}
	}
	e.group.commitMu.Unlock()
	sets := func(ix *Index) map[string][]string {
		out := map[string][]string{}
		for i := range ix.shards {
			for ikey, c := range ix.shards[i].m {
				for r := range c.rows {
					out[ikey] = append(out[ikey], r.key)
				}
				slices.Sort(out[ikey])
			}
		}
		return out
	}
	got, want := sets(ix), sets(ref)
	if len(got) != len(want) {
		t.Fatalf("backfill made %d sets, per-version adds %d", len(got), len(want))
	}
	for ikey, w := range want {
		if !slices.Equal(got[ikey], w) {
			t.Fatalf("index key %q: backfill holds %d rows, per-version adds %d", ikey, len(got[ikey]), len(w))
		}
	}
	if g, w := ix.ResidentPostings(), ref.ResidentPostings(); g != w {
		t.Fatalf("backfill holds %d entries, per-version adds %d", g, w)
	}
	if st := ix.Stats(); int(st.Puts) != ix.ResidentPostings() {
		t.Fatalf("backfill counted %d puts for %d entries", st.Puts, ix.ResidentPostings())
	}
	for _, s := range snaps {
		checkLookupEqualsScan(t, e.t1, ix, s.CTS(), buckets+"x")
	}
	checkLookupEqualsScan(t, e.t1, ix, e.group.LastCTS(), buckets+"x")
}

// TestStressIndexSweepNeverLosesCandidate races the three parties of the
// candidate protocol: committers moving keys between two buckets (install,
// then add), a sweeper dropping candidates under the rows' writer mutexes,
// and readers holding the index to its condition under one Snapshot. Run
// it under -race (CI does).
func TestStressIndexSweepNeverLosesCandidate(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	ix, err := e.t1.CreateIndex("bucket", valueBucket)
	if err != nil {
		t.Fatal(err)
	}
	const writers, keysPerWriter = 3, 12
	h := newHammer(t)
	var commits, checks, sweeps atomic.Uint64
	// Committers own disjoint keys, so nothing aborts; every transaction
	// flips some of its keys to the other bucket.
	for w := 0; w < writers; w++ {
		rng := newRand(int64(w))
		n := 0
		h.run(func() {
			for !h.stopped() {
				n++
				tx, err := p.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 4; i++ {
					key := fmt.Sprintf("w%d-k%02d", w, rng.Intn(keysPerWriter))
					val := fmt.Sprintf("%c%d", "ab"[rng.Intn(2)], n)
					if err := p.Write(tx, e.t1, key, []byte(val)); err != nil {
						t.Error(err)
						return
					}
				}
				if err := p.Commit(tx); err != nil {
					t.Error(err)
					return
				}
				commits.Add(1)
			}
		})
	}
	h.spawn(1, func(int) bool {
		e.t1.GC()
		sweeps.Add(1)
		return true
	})
	h.spawn(2, func(int) bool {
		snap, err := e.ctx.Snapshot(e.t1)
		if err != nil {
			t.Error(err)
			return false
		}
		defer snap.Release()
		checkLookupEqualsScan(t, e.t1, ix, snap.CTS(), "ab")
		checks.Add(1)
		return !t.Failed()
	})
	d := 500 * time.Millisecond
	if testing.Short() {
		d = 100 * time.Millisecond
	}
	time.Sleep(d)
	h.finish()
	if commits.Load() == 0 || checks.Load() == 0 {
		t.Fatalf("%d commits, %d checks: the race never ran", commits.Load(), checks.Load())
	}
	checkLookupEqualsScan(t, e.t1, ix, e.group.LastCTS(), "ab")
	t.Logf("%d commits, %d snapshot checks, %d sweeps, %d entries dropped", commits.Load(), checks.Load(), sweeps.Load(), ix.Stats().Deletes)
}

// BenchmarkIndexedCommit is the indexed write path on its own: 10-row
// transactions over the memory store whose rows alternate between two
// buckets, so every commit moves every row's index key.
func BenchmarkIndexedCommit(b *testing.B) {
	e := newEnv(b)
	p := NewSI(e.ctx)
	if _, err := e.t1.CreateIndex("bucket", valueBucket); err != nil {
		b.Fatal(err)
	}
	const rows, keys = 10, 1000
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%04d", i)
	}
	vals := [2][]byte{[]byte("a-payload-of-some-bytes"), []byte("b-payload-of-some-bytes")}
	ops := make([]WriteOp, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range ops {
			ops[i] = WriteOp{Key: names[(n*rows+i)%keys], Value: vals[(n*rows/keys)%2]}
		}
		tx, err := p.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.WriteBatch(tx, e.t1, ops); err != nil {
			b.Fatal(err)
		}
		if err := p.Commit(tx); err != nil {
			b.Fatal(err)
		}
	}
}
