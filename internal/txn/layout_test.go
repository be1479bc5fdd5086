package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sistream/internal/kv"
)

// This file is the group-layout equivalence property: how tables are
// partitioned into topology groups decides only which commit latches a
// transaction takes — never what it does. The same seeded script, run
// against two tables in ONE group and against the same tables in TWO
// groups (where every transaction touching both becomes a spanning
// commit), must produce the same verdict for every transaction, the same
// final contents, an index that equals the filtered scan at every commit
// timestamp, and — in the two-group layout — one LastCTS across both
// groups after every spanning commit.

// layoutTxn is one scripted transaction: reads first, then writes, over
// tables 0 (a, indexed) and 1 (b).
type layoutTxn struct {
	reads  []sweepOp
	writes []sweepOp
}

func (tx layoutTxn) writesTo(tbl int) bool {
	for _, op := range tx.writes {
		if op.tbl == tbl {
			return true
		}
	}
	return false
}

// layoutStep is one unit of the script. Its members begin and run their
// operations first; then the interloper (when it has operations) begins,
// runs and commits; then the members commit — with Commit when there is
// one, as a chain window through CommitChain when there are several. The
// interloper is what makes verdicts interesting: it is younger than the
// members and decided before them, so where it overlaps a member it dies
// at the lock under S2PL, makes the member lose First-Committer-Wins
// under SI, and fails the member's validation under BOCC.
type layoutStep struct {
	members    []layoutTxn
	interloper layoutTxn
}

// makeLayoutScript builds the seeded script. Members of one window use
// keys private to their slot (S2PL locks at write time, and a single
// driver cannot wait), so only the interloper overlaps anyone. Windows
// carry a spanning member between members confined to table a: in the
// two-group layout it breaks the window's same-group run in the middle.
func makeLayoutScript(rng *rand.Rand, steps int) []layoutStep {
	op := func(slot, tbl int) sweepOp {
		o := sweepOp{tbl: tbl, key: fmt.Sprintf("k%d-%d", slot, rng.Intn(3))}
		if rng.Intn(5) == 0 {
			o.del = true
		} else {
			// The first byte is a's index key; 'x' rows leave the index.
			o.val = fmt.Sprintf("%c%d", "abx"[rng.Intn(3)], rng.Intn(100))
		}
		return o
	}
	member := func(slot int, tbls []int) layoutTxn {
		var tx layoutTxn
		if rng.Intn(3) == 0 {
			tx.reads = append(tx.reads, sweepOp{tbl: tbls[rng.Intn(len(tbls))], key: fmt.Sprintf("k%d-%d", slot, rng.Intn(3))})
		}
		for _, tbl := range tbls {
			for n := 1 + rng.Intn(2); n > 0; n-- {
				tx.writes = append(tx.writes, op(slot, tbl))
			}
		}
		return tx
	}
	layouts := [][]int{{0}, {1}, {0, 1}}
	script := make([]layoutStep, steps)
	for i := range script {
		st := &script[i]
		if i%2 == 0 {
			st.members = []layoutTxn{member(0, layouts[rng.Intn(3)])}
		} else {
			// a, a, a+b, a [, random]: the spanning member sits mid-run.
			for slot, tbls := range [][]int{{0}, {0}, {0, 1}, {0}} {
				st.members = append(st.members, member(slot, tbls))
			}
			if rng.Intn(2) == 0 {
				st.members = append(st.members, member(4, layouts[rng.Intn(3)]))
			}
		}
		if rng.Intn(2) == 0 {
			slot := rng.Intn(len(st.members))
			for _, tbl := range layouts[rng.Intn(3)] {
				st.interloper.writes = append(st.interloper.writes, op(slot, tbl))
			}
		}
	}
	return script
}

// verdictClass reduces a commit (or operation) error to what a caller
// acts on: retry classes, fail-stop, or something that must not happen.
func verdictClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrGroupFailed):
		return "failed"
	case errors.Is(err, ErrConflict):
		return "conflict"
	case errors.Is(err, ErrValidation):
		return "validation"
	case errors.Is(err, ErrDeadlock):
		return "deadlock"
	}
	return "other: " + err.Error()
}

// layoutResult is everything the two layouts must agree on.
type layoutResult struct {
	verdicts []string
	contents map[string]string
}

// runLayoutScript drives script under proto against tables a and b, in
// one group or in two, checking the per-commit invariants as it goes.
func runLayoutScript(t *testing.T, proto string, split bool, script []layoutStep) layoutResult {
	t.Helper()
	inner := kv.NewMem()
	defer inner.Close()
	store := &failingStore{Store: inner}
	ctx := NewContext()
	a, _ := ctx.CreateTable("a", store, TableOptions{})
	b, _ := ctx.CreateTable("b", store, TableOptions{})
	tbls := []*Table{a, b}
	if split {
		if _, err := ctx.CreateGroup("ga", a); err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.CreateGroup("gb", b); err != nil {
			t.Fatal(err)
		}
	} else if _, err := ctx.CreateGroup("g", a, b); err != nil {
		t.Fatal(err)
	}
	ix, err := a.CreateIndex("bucket", valueBucket)
	if err != nil {
		t.Fatal(err)
	}
	p := sweepProtocol(proto, ctx)
	var res layoutResult

	// run begins a transaction and performs its operations, stopping at
	// the first that fails (and thereby decides the transaction).
	run := func(s layoutTxn, ch *Chain) (*Txn, error) {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if ch != nil {
			tx.SetChain(ch)
			// a is the table CommitChain flags; declared up front, flagging
			// b first (below) cannot complete a spanning member's set.
			if err := tx.Declare(a); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range s.reads {
			if _, _, err = p.Read(tx, tbls[op.tbl], op.key); err != nil {
				break
			}
		}
		for _, op := range s.writes {
			if err != nil {
				break
			}
			if op.del {
				err = p.Delete(tx, tbls[op.tbl], op.key)
			} else {
				err = p.Write(tx, tbls[op.tbl], op.key, []byte(op.val))
			}
		}
		return tx, err
	}
	// decided records the verdict of the commit that ran last and, when it
	// committed a transaction holding both tables, checks the spanning
	// publish: one timestamp, in every group it latched.
	decided := func(spans bool, err error) {
		res.verdicts = append(res.verdicts, verdictClass(err))
		if ga, gb := a.Group().LastCTS(), b.Group().LastCTS(); err == nil && spans && ga != gb {
			t.Fatalf("spanning commit left LastCTS %d on a's group, %d on b's", ga, gb)
		}
	}

	var checked Timestamp
	for si, st := range script {
		var ch *Chain
		if len(st.members) > 1 {
			ch = NewChain()
		}
		txs := make([]*Txn, len(st.members))
		for i, m := range st.members {
			// Nothing a member touches is held by anyone: it cannot fail.
			if txs[i], err = run(m, ch); err != nil {
				t.Fatalf("step %d member %d: %v", si, i, err)
			}
		}
		if in := st.interloper; len(in.writes) > 0 {
			tx, err := run(in, nil)
			if err == nil {
				err = p.Commit(tx)
			}
			decided(in.writesTo(0) && in.writesTo(1), err)
		}
		if ch == nil {
			m := st.members[0]
			decided(m.writesTo(0) && m.writesTo(1), p.Commit(txs[0]))
		} else {
			for i, tx := range txs {
				if st.members[i].writesTo(1) {
					if err := p.CommitState(tx, b); err != nil {
						t.Fatalf("step %d: flagging b on member %d: %v", si, i, err)
					}
				}
			}
			errs := p.CommitChain(txs, []*Table{a})
			for i, m := range st.members {
				// Every member holds a (declared); only the window's last
				// commit can be checked against the groups' current LastCTS.
				decided(i == len(txs)-1 && m.writesTo(1), errs[i][0])
			}
		}
		if n := ctx.ActiveCount(); n != 0 {
			t.Fatalf("step %d: %d transactions left active", si, n)
		}

		// Index lookup ≡ filtered scan at every timestamp this step
		// published on a's group (a superset of its commit timestamps).
		for cts := checked + 1; cts <= a.Group().LastCTS(); cts++ {
			want := map[string]map[string]string{}
			scanStripe(a, cts, 0, 1, func(key string, value []byte) bool {
				if ikey, ok := valueBucket(key, value); ok {
					if want[ikey] == nil {
						want[ikey] = map[string]string{}
					}
					want[ikey][key] = string(value)
				}
				return true
			})
			for _, ikey := range []string{"a", "b", "x"} {
				if got := lookupAll(t, ix, cts, ikey); len(got) != len(want[ikey]) || (len(got) > 0 && !reflect.DeepEqual(got, want[ikey])) {
					t.Fatalf("step %d cts %d: index bucket %q = %v, filtered scan = %v", si, cts, ikey, got, want[ikey])
				}
			}
		}
		checked = a.Group().LastCTS()
	}

	res.contents = map[string]string{}
	for i, tbl := range tbls {
		scanStripe(tbl, ctx.Now(), 0, 1, func(key string, value []byte) bool {
			res.contents[sweepKey(i, key)] = string(value)
			return true
		})
	}

	// The error class of a durability failure is part of the contract: the
	// commit that hits it — spanning or not — and every commit after it
	// report the fail-stop class.
	store.fail.Store(true)
	doomed := layoutTxn{writes: []sweepOp{{tbl: 0, key: "z", val: "a0"}, {tbl: 1, key: "z", val: "a0"}}}
	for i := 0; i < 2; i++ {
		tx, err := run(doomed, nil)
		if err != nil {
			t.Fatal(err)
		}
		res.verdicts = append(res.verdicts, verdictClass(p.Commit(tx)))
	}
	return res
}

// TestPropertyGroupLayoutEquivalence runs each seeded script under every
// protocol against both layouts and requires identical results.
func TestPropertyGroupLayoutEquivalence(t *testing.T) {
	for _, proto := range []string{"mvcc", "s2pl", "bocc"} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", proto, seed), func(t *testing.T) {
				script := makeLayoutScript(rand.New(rand.NewSource(seed)), 40)
				one := runLayoutScript(t, proto, false, script)
				two := runLayoutScript(t, proto, true, script)
				if len(one.verdicts) != len(two.verdicts) {
					t.Fatalf("%d verdicts with one group, %d with two", len(one.verdicts), len(two.verdicts))
				}
				for i, v := range one.verdicts {
					if two.verdicts[i] != v {
						t.Fatalf("verdict %d of %d: %q with one group, %q with two", i, len(one.verdicts), v, two.verdicts[i])
					}
				}
				if !reflect.DeepEqual(one.contents, two.contents) {
					t.Fatalf("final contents differ:\none group:  %v\ntwo groups: %v", one.contents, two.contents)
				}
				if tail := one.verdicts[len(one.verdicts)-2:]; tail[0] != "failed" || tail[1] != "failed" {
					t.Fatalf("durability failure verdicts = %v, want failed, failed", tail)
				}
			})
		}
	}
}

// TestSpanningCommitsRaceGroupPipelines runs the pipeline under both latch
// sets at once: committers confined to either group lead batches on their
// group's queue while spanning committers take both latches around them.
// The spanning pair ("pair" in a and b, always bumped together) must read
// equal at every cross-group snapshot, and no increment may be lost. Run
// under -race.
func TestSpanningCommitsRaceGroupPipelines(t *testing.T) {
	store := kv.NewMem()
	defer store.Close()
	ctx := NewContext()
	a, _ := ctx.CreateTable("a", store, TableOptions{})
	b, _ := ctx.CreateTable("b", store, TableOptions{})
	if _, err := ctx.CreateGroup("ga", a); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("gb", b); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	write(t, p, a, "pair", string(encodeU64(0)))
	write(t, p, b, "pair", string(encodeU64(0)))

	const writers, commits = 2, 150
	var wg sync.WaitGroup
	// commit retries body until it commits; FCW losses are expected.
	commit := func(body func(tx *Txn) error) {
		for {
			tx, err := p.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			if err = body(tx); err == nil {
				err = p.Commit(tx)
			}
			if err == nil {
				return
			}
			_ = p.Abort(tx) // ErrFinished after a failed commit
			if !IsAbort(err) {
				t.Error(err)
				return
			}
		}
	}
	for w := 0; w < writers; w++ {
		for _, tbl := range []*Table{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				key := fmt.Sprintf("solo%d", w)
				for i := 0; i < commits; i++ {
					commit(func(tx *Txn) error { return p.Write(tx, tbl, key, encodeU64(uint64(i))) })
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				commit(func(tx *Txn) error {
					v, _, err := p.Read(tx, a, "pair")
					if err != nil {
						return err
					}
					next := encodeU64(decodeU64(v) + 1)
					if err := p.Write(tx, a, "pair", next); err != nil {
						return err
					}
					return p.Write(tx, b, "pair", next)
				})
			}
		}()
	}
	h := newHammer(t)
	h.spawn(2, func(int) bool {
		snap, err := ctx.Snapshot(a, b)
		if err != nil {
			t.Error(err)
			return false
		}
		defer snap.Release()
		va, _, _ := snap.Get(a, "pair")
		vb, _, _ := snap.Get(b, "pair")
		if decodeU64(va) != decodeU64(vb) {
			t.Errorf("snapshot at %d tore a spanning commit: a=%d b=%d", snap.CTS(), decodeU64(va), decodeU64(vb))
			return false
		}
		return true
	})
	wg.Wait()
	h.finish()
	if v, _ := readOne(t, p, a, "pair"); decodeU64([]byte(v)) != writers*commits {
		t.Fatalf("pair = %d after %d spanning increments", decodeU64([]byte(v)), writers*commits)
	}
}

// splitGroups returns a context with tables a and b on one mem store, each
// in a group of its own (ga, gb).
func splitGroups(t *testing.T) (*Context, *Table, *Table) {
	t.Helper()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	ctx := NewContext()
	a, _ := ctx.CreateTable("a", store, TableOptions{})
	b, _ := ctx.CreateTable("b", store, TableOptions{})
	if _, err := ctx.CreateGroup("ga", a); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("gb", b); err != nil {
		t.Fatal(err)
	}
	return ctx, a, b
}

// TestSIReadsOneCutAcrossDeclaredGroups: an SI transaction that declared
// tables of two groups reads both groups at one cut, pinned at its first
// access. A commit spanning the groups that lands between its two reads
// is in neither of them. Pinned one group at a time, the second read saw
// the commit the first had missed.
func TestSIReadsOneCutAcrossDeclaredGroups(t *testing.T) {
	ctx, a, b := splitGroups(t)
	p := NewSI(ctx)
	span := func(v string) {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(tx, a, "k", []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := p.Write(tx, b, "k", []byte(v)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, p, tx)
	}
	span("1")

	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Declare(a, b); err != nil {
		t.Fatal(err)
	}
	va, _, err := p.Read(tx, a, "k")
	if err != nil {
		t.Fatal(err)
	}
	span("2")
	vb, _, err := p.Read(tx, b, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(va) != string(vb) {
		t.Fatalf("torn: a=%q b=%q", va, vb)
	}
	mustCommit(t, p, tx)
}

// TestSpanningCommitsRaceSIReaders is TestSpanningCommitsRaceGroupPipelines
// with SI transactions as the readers: each declares both tables, so its
// two reads of the spanning pair share one cut and must agree. Run under
// -race.
func TestSpanningCommitsRaceSIReaders(t *testing.T) {
	ctx, a, b := splitGroups(t)
	p := NewSI(ctx)
	write(t, p, a, "pair", string(encodeU64(0)))
	write(t, p, b, "pair", string(encodeU64(0)))

	const writers, commits = 2, 150
	h := newHammer(t)
	// commit retries body until it commits; FCW losses are expected.
	commit := func(body func(tx *Txn) error) bool {
		for {
			tx, err := p.Begin()
			if err != nil {
				t.Error(err)
				return false
			}
			if err = body(tx); err == nil {
				err = p.Commit(tx)
			}
			if err == nil {
				return true
			}
			_ = p.Abort(tx) // ErrFinished after a failed commit
			if !IsAbort(err) {
				t.Error(err)
				return false
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		for _, tbl := range []*Table{a, b} {
			h.spawn(1, func(int) bool {
				return commit(func(tx *Txn) error { return p.Write(tx, tbl, fmt.Sprintf("solo%d", w), encodeU64(1)) })
			})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				if !commit(func(tx *Txn) error {
					v, _, err := p.Read(tx, a, "pair")
					if err != nil {
						return err
					}
					next := encodeU64(decodeU64(v) + 1)
					if err := p.Write(tx, a, "pair", next); err != nil {
						return err
					}
					return p.Write(tx, b, "pair", next)
				}) {
					return
				}
			}
		}()
	}
	h.spawn(2, func(int) bool {
		tx, err := p.BeginReadOnly()
		if err != nil {
			t.Error(err)
			return false
		}
		defer p.Abort(tx)
		if err := tx.Declare(a, b); err != nil {
			t.Error(err)
			return false
		}
		va, _, errA := p.Read(tx, a, "pair")
		vb, _, errB := p.Read(tx, b, "pair")
		if errA != nil || errB != nil {
			t.Error(errA, errB)
			return false
		}
		if decodeU64(va) != decodeU64(vb) {
			t.Errorf("SI reader tore a spanning commit: a=%d b=%d", decodeU64(va), decodeU64(vb))
			return false
		}
		return true
	})
	wg.Wait()
	h.finish()
	if v, _ := readOne(t, p, a, "pair"); decodeU64([]byte(v)) != writers*commits {
		t.Fatalf("pair = %d after %d spanning increments", decodeU64([]byte(v)), writers*commits)
	}
}
