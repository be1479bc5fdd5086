package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/leaktest"
	"sistream/internal/lsm"
)

// This file checks that a protocol's commit entry points are one path:
// CommitState and Commit are chains of one, so per-table CommitState,
// Commit and CommitChain windows must decide the same script the same way.

// TestBOCCChainRegistersEveryCommittedMember: a chain member whose flag set
// completes before the last listed table commits with verdicts [nil,
// ErrFinished]. It must enter the validation history like any committed
// writer — registration follows the coordinating column's verdict — or a
// reader of what it wrote validates clean.
func TestBOCCChainRegistersEveryCommittedMember(t *testing.T) {
	leaktest.Check(t)
	e := newEnv(t)
	p := NewBOCC(e.ctx)
	a, b := e.t1, e.t2

	r, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Read(r, a, "x"); err != nil {
		t.Fatal(err)
	}
	w, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(w, a, "x", []byte("w")); err != nil {
		t.Fatal(err)
	}
	errs := p.CommitChain([]*Txn{w}, []*Table{a, b})
	if errs[0][0] != nil || !errors.Is(errs[0][1], ErrFinished) {
		t.Fatalf("chain verdicts = %v, want [nil ErrFinished]", errs[0])
	}
	if n := e.ctx.recent.Len(); n != 1 {
		t.Fatalf("validation history holds %d records after the chain committed a writer, want 1", n)
	}
	if err := p.Write(r, b, "y", []byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(r); !errors.Is(err, ErrValidation) {
		t.Fatalf("reader of a chain-committed key: Commit = %v, want ErrValidation", err)
	}
}

// entryTxn is one scripted transaction over tables 0 (a) and 1 (b). A
// read-only one has no state entry, so admission is its whole commit; any
// other declares its tables at Begin — the columns it is flagged on — and
// writes only to them, or not at all (an empty transaction: entries, no
// writes).
type entryTxn struct {
	readOnly bool
	declare  []int
	reads    []sweepOp
	writes   []sweepOp
}

// entryStep is one unit of the script: its members begin and run in
// order, each to completion before the next begins; then the interloper,
// if any, begins, runs and commits; then the members commit. A
// transaction runs its operations only while it is the youngest one begun,
// so under S2PL a collision is a wait-die kill, never a wait a single
// driver could not serve.
type entryStep struct {
	members    []entryTxn
	interloper *entryTxn
}

func makeEntryScript(rng *rand.Rand, steps int) []entryStep {
	op := func(tbl int) sweepOp { return sweepOp{tbl: tbl, key: fmt.Sprintf("k%d", rng.Intn(4))} }
	txn := func() entryTxn {
		var tx entryTxn
		kind := rng.Intn(6) // 0: read-only, 1: empty, otherwise a writer
		if kind == 0 {
			tx.readOnly = true
		} else {
			tx.declare = [][]int{{0}, {1}, {0, 1}}[rng.Intn(3)]
		}
		for n := rng.Intn(3); n > 0; n-- {
			tx.reads = append(tx.reads, op(rng.Intn(2)))
		}
		for n := 1 + rng.Intn(2); kind > 1 && n > 0; n-- {
			w := op(tx.declare[rng.Intn(len(tx.declare))])
			if rng.Intn(4) == 0 {
				w.del = true
			} else {
				w.val = fmt.Sprintf("v%d", rng.Intn(100))
			}
			tx.writes = append(tx.writes, w)
		}
		return tx
	}
	script := make([]entryStep, steps)
	for i := range script {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			script[i].members = append(script[i].members, txn())
		}
		if rng.Intn(2) == 0 {
			in := txn()
			script[i].interloper = &in
		}
	}
	return script
}

// entryResult is everything the entry points must agree on.
type entryResult struct {
	verdicts   []string
	contents   map[string]string
	published  []bool      // per step and group: the step moved the group's LastCTS
	lastCTS    []Timestamp // per group, after the script
	registered int         // BOCC validation-history registrations
}

// runEntryScript drives script under proto against tables a and b, in one
// group or two, committing through one entry point: "CommitState" flags
// each declared table in turn, "Commit" flags them all at once, and
// "CommitChain" commits consecutive members with the same tables as one
// window of 1–4 (sized by windows) over every table, declared ones first.
// A transaction without tables commits with Commit in every mode.
func runEntryScript(t *testing.T, proto string, split bool, mode string, windows *rand.Rand, script []entryStep) entryResult {
	t.Helper()
	store := kv.NewMem()
	defer store.Close()
	ctx := NewContext()
	a, _ := ctx.CreateTable("a", store, TableOptions{})
	b, _ := ctx.CreateTable("b", store, TableOptions{})
	tbls := []*Table{a, b}
	var groups []*Group
	for _, members := range map[bool][][]*Table{false: {{a, b}}, true: {{a}, {b}}}[split] {
		g, err := ctx.CreateGroup(GroupID(fmt.Sprintf("g%d", len(groups))), members...)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	p := sweepProtocol(proto, ctx)
	var res entryResult
	// pipelined counts, per group, the committed transactions with a state
	// entry in it: exactly these must have passed its commit pipeline.
	pipelined := make([]uint64, len(groups))

	declared := func(s entryTxn) []*Table {
		out := make([]*Table, len(s.declare))
		for i, tbl := range s.declare {
			out[i] = tbls[tbl]
		}
		return out
	}
	// chained lists a chain's columns for members declaring s's tables:
	// those tables, then the others. A member's set completes at its last
	// declared column, and the columns after it report ErrFinished.
	chained := func(s entryTxn) []*Table {
		cols := declared(s)
		for _, tbl := range tbls {
			if !slices.Contains(cols, tbl) {
				cols = append(cols, tbl)
			}
		}
		return cols
	}
	// start begins a transaction and runs its operations, stopping at the
	// first that fails (and thereby decides the transaction).
	start := func(s entryTxn) (*Txn, error) {
		begin := p.Begin
		if s.readOnly {
			begin = p.BeginReadOnly
		}
		tx, err := begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Declare(declared(s)...); err != nil {
			t.Fatal(err)
		}
		for _, op := range s.reads {
			if _, _, err := p.Read(tx, tbls[op.tbl], op.key); err != nil {
				return tx, err
			}
		}
		for _, op := range s.writes {
			if op.del {
				err = p.Delete(tx, tbls[op.tbl], op.key)
			} else {
				err = p.Write(tx, tbls[op.tbl], op.key, []byte(op.val))
			}
			if err != nil {
				return tx, err
			}
		}
		return tx, nil
	}
	record := func(s entryTxn, opErr, verdict error) {
		res.verdicts = append(res.verdicts, verdictClass(opErr)+" / "+verdictClass(verdict))
		if opErr != nil || verdict != nil {
			return
		}
		for gi, g := range groups {
			if slices.ContainsFunc(declared(s), func(tbl *Table) bool { return tbl.Group() == g }) {
				pipelined[gi]++
			}
		}
	}
	// commit decides one transaction through the mode's entry point; the
	// verdict is the result of the flag that completed its set.
	commit := func(s entryTxn, tx *Txn) error {
		cols := declared(s)
		switch {
		case len(cols) == 0 || mode == "Commit":
			return p.Commit(tx)
		case mode == "CommitState":
			var err error
			for _, tbl := range cols {
				err = p.CommitState(tx, tbl)
			}
			return err
		}
		return p.CommitChain([]*Txn{tx}, chained(s))[0][len(cols)-1]
	}

	for si, st := range script {
		before := make([]Timestamp, len(groups))
		for gi, g := range groups {
			before[gi] = g.LastCTS()
		}
		txs := make([]*Txn, len(st.members))
		opErrs := make([]error, len(st.members))
		for i, m := range st.members {
			txs[i], opErrs[i] = start(m)
		}
		if in := st.interloper; in != nil {
			tx, err := start(*in)
			record(*in, err, commit(*in, tx))
		}
		for i := 0; i < len(st.members); {
			j := i + 1
			if cols := declared(st.members[i]); mode == "CommitChain" && len(cols) > 0 {
				for w := 1 + windows.Intn(4); j < len(st.members) && j-i < w && slices.Equal(st.members[j].declare, st.members[i].declare); j++ {
				}
				errs := p.CommitChain(txs[i:j], chained(st.members[i]))
				for k := i; k < j; k++ {
					row := errs[k-i]
					for _, err := range row[len(cols):] {
						if !errors.Is(err, ErrFinished) {
							t.Fatalf("step %d member %d: chain verdicts %v, want ErrFinished after its last table", si, k, row)
						}
					}
					record(st.members[k], opErrs[k], row[len(cols)-1])
				}
			} else {
				record(st.members[i], opErrs[i], commit(st.members[i], txs[i]))
			}
			i = j
		}
		if n := ctx.ActiveCount(); n != 0 {
			t.Fatalf("%s, step %d: %d transactions left active", mode, si, n)
		}
		for gi, g := range groups {
			res.published = append(res.published, g.LastCTS() != before[gi])
		}
	}

	if s2, ok := p.(*S2PL); ok && s2.LockCount() != 0 {
		t.Fatalf("%s: %d lock entries left after the script", mode, s2.LockCount())
	}
	// The empty-entry rule: a transaction with a state entry — even an
	// empty one — commits through the pipeline, one without finishes right
	// after its admission.
	for gi, g := range groups {
		if txns := g.CommitProfile().Txns; txns != pipelined[gi] {
			t.Fatalf("%s: group %s committed %d transactions through its pipeline, %d committed with a state entry in it", mode, g.ID(), txns, pipelined[gi])
		}
		res.lastCTS = append(res.lastCTS, g.LastCTS())
	}
	ctx.recent.mu.Lock()
	res.registered = ctx.recent.commits
	ctx.recent.mu.Unlock()
	res.contents = map[string]string{}
	for i, tbl := range tbls {
		tbl.SnapshotScan(ctx.Now(), func(key string, value []byte) bool {
			res.contents[sweepKey(i, key)] = string(value)
			return true
		})
	}
	return res
}

// TestPropertyProtocolEntryPoints runs each seeded script under every
// protocol and both group layouts through the three commit entry points
// and requires identical verdicts, contents, publishes and BOCC
// registrations. LastCTS itself is compared too, except for BOCC windows:
// a window registers its members after the whole run is installed, where
// one-by-one commits interleave each registration's clock tick with the
// next commit timestamp.
func TestPropertyProtocolEntryPoints(t *testing.T) {
	leaktest.Check(t)
	for _, proto := range []string{"mvcc", "s2pl", "bocc"} {
		for _, split := range []bool{false, true} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/split=%t/seed=%d", proto, split, seed), func(t *testing.T) {
					script := makeEntryScript(rand.New(rand.NewSource(seed)), 30)
					ref := runEntryScript(t, proto, split, "CommitState", nil, script)
					for _, mode := range []string{"Commit", "CommitChain"} {
						got := runEntryScript(t, proto, split, mode, rand.New(rand.NewSource(seed)), script)
						if len(got.verdicts) != len(ref.verdicts) {
							t.Fatalf("%d verdicts through %s, %d through CommitState", len(got.verdicts), mode, len(ref.verdicts))
						}
						for i, v := range ref.verdicts {
							if got.verdicts[i] != v {
								t.Fatalf("verdict %d of %d: %q through %s, %q through CommitState", i, len(ref.verdicts), got.verdicts[i], mode, v)
							}
						}
						if !reflect.DeepEqual(got.contents, ref.contents) {
							t.Fatalf("contents through %s:\n %v\nthrough CommitState:\n %v", mode, got.contents, ref.contents)
						}
						if !slices.Equal(got.published, ref.published) {
							t.Fatalf("groups publishing per step through %s: %v, through CommitState: %v", mode, got.published, ref.published)
						}
						if got.registered != ref.registered {
							t.Fatalf("%d BOCC registrations through %s, %d through CommitState", got.registered, mode, ref.registered)
						}
						if (proto != "bocc" || mode != "CommitChain") && !slices.Equal(got.lastCTS, ref.lastCTS) {
							t.Fatalf("LastCTS through %s: %v, through CommitState: %v", mode, got.lastCTS, ref.lastCTS)
						}
					}
				})
			}
		}
	}
}

// BenchmarkCommitEntry commits one 100-row SI transaction per operation
// through each commit entry point over mem — the allocation budget of the
// one commit path (run with -benchmem): a one-member CommitChain costs
// what CommitState costs, plus the verdict matrix it returns.
func BenchmarkCommitEntry(b *testing.B) {
	const rows = 100
	val := []byte("a-payload-of-some-bytes")
	ops := make([]WriteOp, rows)
	for i := range ops {
		ops[i] = WriteOp{Key: fmt.Sprintf("k%03d", i), Value: val}
	}
	entries := []struct {
		name   string
		commit func(p Protocol, txs []*Txn, tbls []*Table) error
	}{
		{"CommitState", func(p Protocol, txs []*Txn, tbls []*Table) error { return p.CommitState(txs[0], tbls[0]) }},
		{"CommitChain1", func(p Protocol, txs []*Txn, tbls []*Table) error { return p.CommitChain(txs, tbls)[0][0] }},
		{"Commit", func(p Protocol, txs []*Txn, _ []*Table) error { return p.Commit(txs[0]) }},
	}
	for _, en := range entries {
		b.Run(en.name, func(b *testing.B) {
			e := newEnv(b)
			p := NewSI(e.ctx)
			txs, tbls := make([]*Txn, 1), []*Table{e.t1}
			b.ReportAllocs()
			for b.Loop() {
				tx, err := p.Begin()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.WriteBatch(tx, e.t1, ops); err != nil {
					b.Fatal(err)
				}
				txs[0] = tx
				if err := en.commit(p, txs, tbls); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCommitColdRows commits 100-row SI transactions into a
// 100 000-row table over mem, visiting the keys in one shuffled cycle, so
// a row is written again only after every other row was — its index slot,
// row, version object and store entry are out of cache by then, as on a
// large table under a stream. BenchmarkCommitEntry's 100 hot keys never
// miss. Reports ns per written row. The indexed case adds one bucket
// index (valueBucket) and flips the value's bucket on every pass over the
// keys, so every write moves its row between two cold candidate sets, as
// mixed-index-mem's writes do about every second time. The
// indexed-roaming case moves each write's row to a random one of 64
// buckets instead, so a row's memo of its two most recent candidate sets
// (Index.add) rarely names the next one: the write then probes and joins
// the new set and takes the row out of the set its memo forgot.
func BenchmarkCommitColdRows(b *testing.B) {
	b.Run("plain", func(b *testing.B) { benchCommitColdRows(b, 0) })
	b.Run("indexed", func(b *testing.B) { benchCommitColdRows(b, 2) })
	b.Run("indexed-roaming", func(b *testing.B) { benchCommitColdRows(b, 64) })
}

// benchCommitColdRows runs BenchmarkCommitColdRows with the values in
// buckets buckets: 0 is the plain table, 2 flips every row's bucket once
// per pass, more draw each write's bucket at random.
func benchCommitColdRows(b *testing.B, buckets int) {
	const tableRows, txnRows = 100_000, 100
	keys := make([]string, tableRows)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	vals := make([][]byte, max(buckets, 1))
	for i := range vals {
		vals[i] = []byte(fmt.Sprintf("%c-payload-of-some-bytes", '0'+i))
	}
	e := newEnv(b)
	p := NewSI(e.ctx)
	if buckets > 0 {
		if _, err := e.t1.CreateIndex("bucket", valueBucket); err != nil {
			b.Fatal(err)
		}
	}
	ops := make([]WriteOp, txnRows)
	next, pass := 0, 0
	commit := func() {
		for i := range ops {
			v := vals[0]
			switch {
			case buckets == 2:
				v = vals[pass%2]
			case buckets > 2:
				v = vals[rng.Intn(buckets)]
			}
			ops[i] = WriteOp{Key: keys[next], Value: v}
			if next = (next + 1) % tableRows; next == 0 {
				pass++
			}
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
	for range tableRows / txnRows {
		commit()
	}
	b.ReportAllocs()
	for b.Loop() {
		commit()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*txnRows), "ns/row")
}

// BenchmarkRecovery times the restart path: CreateGroup rebuilding rows
// from the base table, and CreateIndex backfilling an index over them.
// /mem-2x100k recovers a group of two 100 000-row tables from one mem
// store, the shape of mixed-index-mem's set-up; /lsm-100k one such table
// from an LSM store reopened after the preload; /index-100k builds a
// 64-bucket index over a freshly recovered 100 000-row table (only
// CreateIndex is timed). The rows are 8-byte keys with 28-byte values.
// Reports ns and allocations per recovered (or indexed) row.
func BenchmarkRecovery(b *testing.B) {
	const rows = 100_000
	b.Run("mem-2x100k", func(b *testing.B) {
		store := kv.NewMem()
		defer store.Close()
		preloadRecovery(b, store, rows, "a", "b")
		benchRecovery(b, 2*rows, func() {
			recoverTables(b, store, "a", "b")
		}, nil)
	})
	b.Run("lsm-100k", func(b *testing.B) {
		dir := b.TempDir()
		db, err := lsm.Open(dir, lsm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		preloadRecovery(b, db, rows, "a")
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		if db, err = lsm.Open(dir, lsm.Options{}); err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		benchRecovery(b, rows, func() { recoverTables(b, db, "a") }, nil)
	})
	b.Run("index-100k", func(b *testing.B) {
		store := kv.NewMem()
		defer store.Close()
		preloadRecovery(b, store, rows, "a")
		var tbl *Table
		benchRecovery(b, rows, func() {
			if _, err := tbl.CreateIndex("bucket", recoveryBucket); err != nil {
				b.Fatal(err)
			}
		}, func() { tbl = recoverTables(b, store, "a")[0] })
	})
}

// benchRecovery runs op b.N times, each after an untimed setup when one
// is given, and reports ns and allocations per row.
func benchRecovery(b *testing.B, rows int, op, setup func()) {
	var ms runtime.MemStats
	var mallocs uint64
	b.ResetTimer()
	for range b.N {
		if setup != nil {
			b.StopTimer()
			setup()
			runtime.GC()
			b.StartTimer()
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		op()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
	}
	b.StopTimer()
	n := float64(b.N) * float64(rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
	b.ReportMetric(float64(mallocs)/n, "allocs/row")
}

// preloadRecovery commits rows rows into each named table of store, a
// thousand per SI transaction, and syncs the store.
func preloadRecovery(b *testing.B, store kv.Store, rows int, tables ...StateID) {
	ctx := NewContext()
	var tbls []*Table
	for _, id := range tables {
		t, err := ctx.CreateTable(id, store, TableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tbls = append(tbls, t)
	}
	if _, err := ctx.CreateGroup("g", tbls...); err != nil {
		b.Fatal(err)
	}
	p := NewSI(ctx)
	ops := make([]WriteOp, 0, 1000)
	for lo := 0; lo < rows; lo += cap(ops) {
		ops = ops[:0]
		for k := lo; k < min(lo+cap(ops), rows); k++ {
			v := make([]byte, 28)
			v[0] = byte(k)
			ops = append(ops, WriteOp{Key: fmt.Sprintf("k%07d", k), Value: v})
		}
		tx, err := p.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tbls {
			if _, err := p.WriteBatch(tx, t, ops); err != nil {
				b.Fatal(err)
			}
		}
		if err := p.Commit(tx); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Sync(); err != nil {
		b.Fatal(err)
	}
}

// recoverTables recovers the named tables of store as one group of a new
// context.
func recoverTables(b *testing.B, store kv.Store, tables ...StateID) []*Table {
	ctx := NewContext()
	var tbls []*Table
	for _, id := range tables {
		t, err := ctx.CreateTable(id, store, TableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tbls = append(tbls, t)
	}
	if _, err := ctx.CreateGroup("g", tbls...); err != nil {
		b.Fatal(err)
	}
	return tbls
}

// recoveryBucket indexes a row by its value's first byte, 64 buckets.
func recoveryBucket(_ string, v []byte) (string, bool) {
	if len(v) == 0 {
		return "", false
	}
	return recoveryBuckets[v[0]%64], true
}

var recoveryBuckets = func() (out [64]string) {
	for i := range out {
		out[i] = fmt.Sprintf("b%02d", i)
	}
	return out
}()
