package txn

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/leaktest"
	"sistream/internal/lsm"
)

// TestRecoveryFromLSM exercises the full persistence loop with the real
// persistent backend: commit synchronously, crash (drop the context,
// reopen the store), recover, verify, continue.
func TestRecoveryFromLSM(t *testing.T) {
	dir := t.TempDir()

	db, err := lsm.Open(dir, lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	a, _ := ctx.CreateTable("a", db, TableOptions{SyncCommits: true})
	b, _ := ctx.CreateTable("b", db, TableOptions{SyncCommits: true})
	if _, err := ctx.CreateGroup("g", a, b); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	for i := 0; i < 20; i++ {
		tx, _ := p.Begin()
		p.Write(tx, a, fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("a%d", i)))
		p.Write(tx, b, fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("b%d", i)))
		mustCommit(t, p, tx)
	}
	// Delete a few rows transactionally.
	tx, _ := p.Begin()
	p.Delete(tx, a, "k00")
	p.Delete(tx, b, "k00")
	mustCommit(t, p, tx)
	want := a.Group().LastCTS()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart".
	db2, err := lsm.Open(dir, lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ctx2 := NewContext()
	a2, _ := ctx2.CreateTable("a", db2, TableOptions{SyncCommits: true})
	b2, _ := ctx2.CreateTable("b", db2, TableOptions{SyncCommits: true})
	g2, err := ctx2.CreateGroup("g", a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.LastCTS() != want {
		t.Fatalf("recovered LastCTS %d, want %d", g2.LastCTS(), want)
	}
	p2 := NewSI(ctx2)
	if _, ok := readOne(t, p2, a2, "k00"); ok {
		t.Fatal("deleted row resurrected")
	}
	for i := 1; i < 20; i++ {
		va, oka := readOne(t, p2, a2, fmt.Sprintf("k%02d", i))
		vb, okb := readOne(t, p2, b2, fmt.Sprintf("k%02d", i))
		if !oka || !okb || va != fmt.Sprintf("a%d", i) || vb != fmt.Sprintf("b%d", i) {
			t.Fatalf("row %d: %q/%v %q/%v", i, va, oka, vb, okb)
		}
	}
	if a2.Keys() != 19 {
		t.Fatalf("recovered key count %d", a2.Keys())
	}
}

// TestRecoveryThroughFaultLSM: recovery reads the base table through
// every layer of the chain. Over fault+lsm the synced rows sit in the LSM
// store below the fault wrapper, whose Scan must copy the pairs the LSM
// scan hands it — that scan reuses its key and value buffers for every
// row — or every recovered row but the last reads another row's key.
func TestRecoveryThroughFaultLSM(t *testing.T) {
	dir := t.TempDir()
	open := func() (kv.Store, *Context, *Table) {
		t.Helper()
		db, err := lsm.Open(dir, lsm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := kv.NewFault(db)
		ctx := NewContext()
		tbl, err := ctx.CreateTable("t", st, TableOptions{SyncCommits: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.CreateGroup("g", tbl); err != nil {
			t.Fatal(err)
		}
		return st, ctx, tbl
	}

	st, ctx, tbl := open()
	p := NewSI(ctx)
	tx, _ := p.Begin()
	for _, k := range []string{"a", "b", "c"} {
		p.Write(tx, tbl, k, []byte("v"+k))
	}
	mustCommit(t, p, tx)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, ctx, tbl = open()
	defer st.Close()
	snap, err := ctx.Snapshot(tbl)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	for _, k := range []string{"a", "b", "c"} {
		v, found, err := snap.Get(tbl, k)
		if err != nil || !found || string(v) != "v"+k {
			t.Errorf("after recovery: Get(%s) = %q, %v, %v; want %q", k, v, found, err, "v"+k)
		}
	}
	if tbl.Keys() != 3 {
		t.Errorf("recovered %d keys, want 3", tbl.Keys())
	}
}

// TestSnapshotDuringRecoverySeesAllRows: a snapshot taken while
// CreateGroup recovers a table either fails (the table has no group yet)
// or sees every recovered row. The group used to be published, with the
// recovered LastCTS, before the rows were loaded, so a snapshot pinned
// that timestamp over a half-loaded table.
func TestSnapshotDuringRecoverySeesAllRows(t *testing.T) {
	const rows = 20_000
	store := kv.NewMem()
	defer store.Close()
	{
		ctx := NewContext()
		tbl, _ := ctx.CreateTable("s", store, TableOptions{})
		if _, err := ctx.CreateGroup("g", tbl); err != nil {
			t.Fatal(err)
		}
		p := NewSI(ctx)
		ops := make([]WriteOp, 0, 1000)
		for lo := 0; lo < rows; lo += cap(ops) {
			ops = ops[:0]
			for k := lo; k < lo+cap(ops); k++ {
				ops = append(ops, WriteOp{Key: fmt.Sprintf("k%06d", k), Value: []byte("v")})
			}
			tx, _ := p.Begin()
			if _, err := p.WriteBatch(tx, tbl, ops); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, p, tx)
		}
	}
	for round := 0; round < 5; round++ {
		ctx := NewContext()
		tbl, _ := ctx.CreateTable("s", store, TableOptions{})
		var (
			started = make(chan struct{})
			stop    = make(chan struct{})
			done    = make(chan struct{})
			partial int // snapshots that saw fewer rows; fewest is the least
			fewest  = rows
		)
		go func() {
			defer close(done)
			close(started)
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := ctx.Snapshot(tbl)
				if errors.Is(err, ErrUnknownState) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				n := 0
				_ = snap.Scan(tbl, func(string, []byte) bool { n++; return true })
				snap.Release()
				if n != rows {
					partial++
					fewest = min(fewest, n)
				}
			}
		}()
		<-started
		if _, err := ctx.CreateGroup("g", tbl); err != nil {
			t.Fatal(err)
		}
		close(stop)
		<-done
		if partial > 0 {
			t.Fatalf("round %d: %d snapshots during recovery saw a partial table, one only %d of %d rows", round, partial, fewest, rows)
		}
	}
}

// TestRecoveryTakesNewestMemberWatermark: a commit writes the watermark
// of each table it touched only, so a group member the last commit did
// not touch carries an older one. Recovery must settle on the newest
// member watermark — the group's real LastCTS — load every member's rows,
// and hand the next commit a larger timestamp.
func TestRecoveryTakesNewestMemberWatermark(t *testing.T) {
	store := kv.NewMem()
	defer store.Close()

	ctx := NewContext()
	a, _ := ctx.CreateTable("a", store, TableOptions{})
	b, _ := ctx.CreateTable("b", store, TableOptions{})
	g, err := ctx.CreateGroup("g", a, b)
	if err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	tx, _ := p.Begin()
	p.Write(tx, a, "k", []byte("a1"))
	p.Write(tx, b, "k", []byte("b1"))
	mustCommit(t, p, tx)
	first := g.LastCTS()
	tx, _ = p.Begin()
	p.Write(tx, a, "k", []byte("a2"))
	mustCommit(t, p, tx)
	last := g.LastCTS()
	if last <= first {
		t.Fatalf("second commit at %d, first at %d", last, first)
	}

	ctx2 := NewContext()
	a2, _ := ctx2.CreateTable("a", store, TableOptions{})
	b2, _ := ctx2.CreateTable("b", store, TableOptions{})
	g2, err := ctx2.CreateGroup("g", a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.LastCTS() != last {
		t.Fatalf("recovered LastCTS %d, want the last commit's %d", g2.LastCTS(), last)
	}
	p2 := NewSI(ctx2)
	if v, ok := readOne(t, p2, a2, "k"); !ok || v != "a2" {
		t.Fatalf("recovered a.k = %q %v, want a2", v, ok)
	}
	if v, ok := readOne(t, p2, b2, "k"); !ok || v != "b1" {
		t.Fatalf("recovered b.k = %q %v, want b1", v, ok)
	}
	tx2, _ := p2.Begin()
	p2.Write(tx2, b2, "k", []byte("b2"))
	mustCommit(t, p2, tx2)
	if g2.LastCTS() <= last {
		t.Fatalf("next commit at %d, not after the recovered %d", g2.LastCTS(), last)
	}
}

func TestRecoveryCorruptWatermarkRejected(t *testing.T) {
	s := kv.NewMem()
	defer s.Close()
	b := kv.NewBatch(1)
	b.Put([]byte("m/t/lastcts"), []byte("bogus"))
	if err := s.Apply(b, false); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	tbl, _ := ctx.CreateTable("t", s, TableOptions{})
	if _, err := ctx.CreateGroup("g", tbl); err == nil {
		t.Fatal("corrupt watermark accepted")
	}
}

func TestWatchers(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	type event struct {
		cts    Timestamp
		states int
		keys   int
	}
	var events []event
	e.group.Watch(func(cts Timestamp, writes map[StateID][]string) {
		n := 0
		for _, ks := range writes {
			n += len(ks)
		}
		events = append(events, event{cts: cts, states: len(writes), keys: n})
	})

	// Multi-state commit: one event covering both states.
	tx, _ := p.Begin()
	p.Write(tx, e.t1, "x", []byte("1"))
	p.Write(tx, e.t1, "y", []byte("2"))
	p.Write(tx, e.t2, "x", []byte("3"))
	mustCommit(t, p, tx)

	// Aborted transaction: no event.
	tx2, _ := p.Begin()
	p.Write(tx2, e.t1, "z", []byte("never"))
	if err := p.Abort(tx2); err != nil {
		t.Fatal(err)
	}

	// Read-only commit: no event.
	r, _ := p.BeginReadOnly()
	p.Read(r, e.t1, "x")
	mustCommit(t, p, r)

	if len(events) != 1 {
		t.Fatalf("watcher fired %d times, want 1", len(events))
	}
	ev := events[0]
	if ev.states != 2 || ev.keys != 3 {
		t.Fatalf("event: %+v", ev)
	}
	if ev.cts != e.group.LastCTS() {
		t.Fatalf("event cts %d != LastCTS %d", ev.cts, e.group.LastCTS())
	}
}

// TestProtocolsEquivalentOnSerialHistories: the same single-threaded
// workload must leave identical final states under SI, S2PL and BOCC —
// the protocols differ in concurrency behavior, not in semantics.
func TestProtocolsEquivalentOnSerialHistories(t *testing.T) {
	type op struct {
		key    string
		value  string
		delete bool
	}
	type batch struct {
		ops   []op
		abort bool
	}
	rng := newRand(7)
	var script []batch
	for i := 0; i < 40; i++ {
		var b batch
		b.abort = rng.Intn(5) == 0
		for j := 0; j < rng.Intn(5)+1; j++ {
			o := op{key: fmt.Sprintf("k%d", rng.Intn(10)), value: fmt.Sprintf("v%d-%d", i, j)}
			o.delete = rng.Intn(5) == 0
			b.ops = append(b.ops, o)
		}
		script = append(script, b)
	}

	finals := map[string]map[string]string{}
	for name, mk := range protocolsUnderTest(t) {
		e := newEnv(t)
		p := mk(e)
		for _, b := range script {
			tx, err := p.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range b.ops {
				if o.delete {
					err = p.Delete(tx, e.t1, o.key)
				} else {
					err = p.Write(tx, e.t1, o.key, []byte(o.value))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if b.abort {
				if err := p.Abort(tx); err != nil {
					t.Fatal(err)
				}
			} else if err := p.Commit(tx); err != nil {
				t.Fatal(err)
			}
		}
		final := map[string]string{}
		for i := 0; i < 10; i++ {
			k := fmt.Sprintf("k%d", i)
			if v, ok := readOne(t, p, e.t1, k); ok {
				final[k] = v
			}
		}
		finals[name] = final
	}
	if fmt.Sprint(finals["mvcc"]) != fmt.Sprint(finals["s2pl"]) ||
		fmt.Sprint(finals["mvcc"]) != fmt.Sprint(finals["bocc"]) {
		t.Fatalf("protocols diverged:\nmvcc=%v\ns2pl=%v\nbocc=%v",
			finals["mvcc"], finals["s2pl"], finals["bocc"])
	}
}

// TestTableGCExplicit: table-level GC reclaims dead versions once no
// snapshot pins them.
func TestTableGCExplicit(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	for i := 0; i < 30; i++ {
		write(t, p, e.t1, "k", fmt.Sprintf("v%d", i))
	}
	if n := e.t1.GC(); n < 0 {
		t.Fatalf("GC returned %d", n)
	}
	o := objectOf(e.t1, "k", false)
	if o.LiveVersions() != 1 {
		t.Fatalf("after GC with no pins: %d live versions", o.LiveVersions())
	}
	if v, _ := readOne(t, p, e.t1, "k"); v != "v29" {
		t.Fatalf("GC destroyed the live version: %q", v)
	}
}

// TestSnapshotScanConsistentUnderWrites: a scan at a pinned snapshot is
// stable even while new commits land.
func TestSnapshotScanConsistentUnderWrites(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	for i := 0; i < 10; i++ {
		write(t, p, e.t1, fmt.Sprintf("k%d", i), "old")
	}
	reader, _ := p.BeginReadOnly()
	if _, _, err := p.Read(reader, e.t1, "k0"); err != nil { // pin
		t.Fatal(err)
	}
	rts, _ := reader.at(e.group)
	for i := 0; i < 10; i++ {
		write(t, p, e.t1, fmt.Sprintf("k%d", i), "new")
	}
	old, new_ := 0, 0
	scanStripe(e.t1, rts, 0, 1, func(_ string, v []byte) bool {
		switch string(v) {
		case "old":
			old++
		case "new":
			new_++
		}
		return true
	})
	mustCommit(t, p, reader)
	if old != 10 || new_ != 0 {
		t.Fatalf("pinned scan saw %d old / %d new", old, new_)
	}
}

// TestPropertyRecoveryMatchesCommittedModel: random SI histories over a
// group of 1–3 tables — puts and deletes, keys shorter and longer than
// rowInline, values of 0–200 bytes — then a restart, over mem (a new
// context on the same store), lsm (closed and reopened) and fault+mem
// (crashed and reopened over its durable image). The recovered group must
// match a model of the committed writes: each table's Keys(), every key's
// value at the recovered LastCTS (and every deleted key absent), one
// resident version per row, and LastCTS itself.
func TestPropertyRecoveryMatchesCommittedModel(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for _, backend := range []string{"mem", "lsm", "fault+mem"} {
		for seed := int64(0); seed < int64(seeds); seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", backend, seed), func(t *testing.T) {
				runRecoveryProperty(t, backend, seed)
			})
		}
	}
}

// openLSM opens the LSM store rooted at dir or fails the test.
func openLSM(t *testing.T, dir string) kv.Store {
	t.Helper()
	db, err := lsm.Open(dir, lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func runRecoveryProperty(t *testing.T, backend string, seed int64) {
	rng := newRand(seed)
	dir := t.TempDir()
	var st kv.Store
	switch backend {
	case "mem":
		st = kv.NewMem()
	case "lsm":
		st = openLSM(t, dir)
	case "fault+mem":
		st = kv.NewFault(kv.NewMem())
	}
	ids := []StateID{"t0", "t1", "t2"}[:1+rng.Intn(3)]
	open := func(store kv.Store) (*Context, []*Table, *Group) {
		t.Helper()
		ctx := NewContext()
		var tables []*Table
		for _, id := range ids {
			tbl, err := ctx.CreateTable(id, store, TableOptions{SyncCommits: true})
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, tbl)
		}
		g, err := ctx.CreateGroup("g", tables...)
		if err != nil {
			t.Fatal(err)
		}
		return ctx, tables, g
	}
	keys := make([]string, 48)
	for i := range keys {
		k := make([]byte, 1+rng.Intn(2*rowInline))
		for j := range k {
			k[j] = 'a' + byte(rng.Intn(26))
		}
		keys[i] = fmt.Sprintf("%s%d", k, i) // unique
	}

	ctx, tables, g := open(st)
	p := NewSI(ctx)
	model := make([]map[string]string, len(ids))
	for i := range model {
		model[i] = map[string]string{}
	}
	for c := 20 + rng.Intn(30); c > 0; c-- {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		staged := make([]map[string]*string, len(ids))
		for i, tbl := range tables {
			staged[i] = map[string]*string{}
			for n := rng.Intn(8); n > 0; n-- {
				k := keys[rng.Intn(len(keys))]
				if rng.Intn(5) == 0 {
					if err := p.Delete(tx, tbl, k); err != nil {
						t.Fatal(err)
					}
					staged[i][k] = nil
					continue
				}
				v := make([]byte, rng.Intn(201))
				rng.Read(v)
				if err := p.Write(tx, tbl, k, v); err != nil {
					t.Fatal(err)
				}
				s := string(v)
				staged[i][k] = &s
			}
		}
		mustCommit(t, p, tx)
		for i, writes := range staged {
			for k, v := range writes {
				if v == nil {
					delete(model[i], k)
				} else {
					model[i][k] = *v
				}
			}
		}
	}
	want := g.LastCTS()

	var recovered kv.Store = st
	switch backend {
	case "lsm":
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		recovered = openLSM(t, dir)
	case "fault+mem":
		f := st.(*kv.Fault)
		f.Crash()
		var err error
		if recovered, err = f.Reopen(); err != nil {
			t.Fatal(err)
		}
	}
	defer recovered.Close()
	_, tables, g = open(recovered)
	if got := g.LastCTS(); got != want {
		t.Fatalf("recovered LastCTS %d, want %d", got, want)
	}
	for i, tbl := range tables {
		if got := tbl.Keys(); got != len(model[i]) {
			t.Fatalf("table %s: %d rows recovered, want %d", tbl.id, got, len(model[i]))
		}
		if got := tbl.ResidentVersions(); got != len(model[i]) {
			t.Fatalf("table %s: %d resident versions, want one per row (%d)", tbl.id, got, len(model[i]))
		}
		for _, k := range keys {
			v, found := tbl.readVersion(k, want)
			w, live := model[i][k]
			if found != live || string(v) != w {
				t.Fatalf("table %s key %q at %d: %q found=%v, want %q found=%v", tbl.id, k, want, v, found, w, live)
			}
		}
	}
}

// scanFailStore fails every Scan whose range starts under prefix.
type scanFailStore struct {
	kv.Store
	prefix []byte
	err    error
}

func (s *scanFailStore) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	if s.err != nil && bytes.HasPrefix(start, s.prefix) {
		return s.err
	}
	return s.Store.Scan(start, end, fn)
}

// TestRecoveryScanFailurePublishesNothing: when the Scan of the second of
// three tables fails, CreateGroup returns that error naming the table,
// joins every loader (no goroutine is left), and publishes nothing: no
// table has a group or a row, and a snapshot finds no group. Once the
// store reads again, the same tables recover every row exactly once.
func TestRecoveryScanFailurePublishesNothing(t *testing.T) {
	leaktest.Check(t)
	mem := kv.NewMem()
	defer mem.Close()
	ids := []StateID{"a", "b", "c"}
	{
		ctx := NewContext()
		var tables []*Table
		for _, id := range ids {
			tbl, _ := ctx.CreateTable(id, mem, TableOptions{})
			tables = append(tables, tbl)
		}
		if _, err := ctx.CreateGroup("g", tables...); err != nil {
			t.Fatal(err)
		}
		p := NewSI(ctx)
		for i := 0; i < 500; i++ {
			tx, _ := p.Begin()
			for _, tbl := range tables {
				p.Write(tx, tbl, fmt.Sprintf("k%03d", i), []byte("v"))
			}
			mustCommit(t, p, tx)
		}
	}
	injected := errors.New("injected scan failure")
	store := &scanFailStore{Store: mem, prefix: []byte("s/b/"), err: injected}
	ctx := NewContext()
	var tables []*Table
	for _, id := range ids {
		tbl, err := ctx.CreateTable(id, store, TableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	g, err := ctx.CreateGroup("g", tables...)
	if !errors.Is(err, injected) || !strings.Contains(err.Error(), `"b"`) || g != nil {
		t.Fatalf("CreateGroup = %v, %v; want the injected error naming table \"b\" and no group", g, err)
	}
	for _, tbl := range tables {
		if tbl.Group() != nil || tbl.Keys() != 0 {
			t.Fatalf("table %s after the failed recovery: group %v, %d rows; want none", tbl.id, tbl.Group(), tbl.Keys())
		}
	}
	if _, err := ctx.Snapshot(tables[0]); !errors.Is(err, ErrUnknownState) {
		t.Fatalf("snapshot after the failed recovery: %v, want ErrUnknownState", err)
	}

	store.err = nil
	if _, err := ctx.CreateGroup("g", tables...); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range tables {
		if n := tbl.Keys(); n != 500 {
			t.Fatalf("table %s recovered %d rows on the second try, want 500", tbl.id, n)
		}
	}
}
