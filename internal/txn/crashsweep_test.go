package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sistream/internal/kv"
)

// This file is the crash-recovery property harness of the fail-stop
// durability layer: for random transaction scripts, every protocol, both
// commit-window shapes and both group layouts (one table in one group;
// two tables of one store in two groups, written by spanning
// transactions), it crashes the base store at EVERY write boundary,
// reopens, and asserts PREFIX DURABILITY — the recovered table contents
// equal the effects of exactly the acknowledged-and-durable prefix of the
// committed-transaction sequence, with the per-table watermark
// (Table.metaKey) consistent with that prefix. It is the
// robustness analogue of the spine-equivalence property tests: "recovery
// works" becomes an enforced invariant.

// sweepOp is one scripted write to table tbl of the shape.
type sweepOp struct {
	tbl int
	key string
	val string
	del bool
}

// sweepTxn is one scripted transaction (its ops, applied in order).
type sweepTxn []sweepOp

// makeSweepScript builds a deterministic pseudo-random script of n
// transactions. Keys are partitioned by window position (txns that can
// share a chain window touch disjoint keys — S2PL acquires its locks at
// write time, so same-window overlap would self-deadlock a single-driver
// harness) while txns at the same position across windows overwrite and
// delete each other's keys, exercising version overwrite and tombstones
// in recovery. With tables > 1 every op picks its table at random.
func makeSweepScript(rng *rand.Rand, n, window, tables int) []sweepTxn {
	script := make([]sweepTxn, n)
	for i := range script {
		slot := i % window
		nops := 1 + rng.Intn(3)
		tx := make(sweepTxn, 0, nops)
		for j := 0; j < nops; j++ {
			op := sweepOp{key: fmt.Sprintf("k%02d-%d", slot, rng.Intn(3))}
			if rng.Intn(5) == 0 && i > 0 {
				op.del = true
			} else {
				op.val = fmt.Sprintf("v%d.%d", i, j)
			}
			if tables > 1 {
				op.tbl = rng.Intn(tables)
			}
			tx = append(tx, op)
		}
		script[i] = tx
	}
	return script
}

func sweepProtocol(name string, ctx *Context) Protocol {
	switch name {
	case "mvcc":
		return NewSI(ctx)
	case "s2pl":
		return NewS2PL(ctx)
	case "bocc":
		return NewBOCC(ctx)
	}
	panic("unknown protocol " + name)
}

// sweepTables registers the shape's tables on store, each in a group of
// its own ("sweep0" in "g0", "sweep1" in "g1", ...), recovering whatever
// the store holds.
func sweepTables(t *testing.T, ctx *Context, store kv.Store, tables int) (tbls []*Table, groups []*Group) {
	t.Helper()
	for i := 0; i < tables; i++ {
		tbl, err := ctx.CreateTable(StateID(fmt.Sprintf("sweep%d", i)), store, TableOptions{SyncCommits: true})
		if err != nil {
			t.Fatal(err)
		}
		g, err := ctx.CreateGroup(GroupID(fmt.Sprintf("g%d", i)), tbl)
		if err != nil {
			t.Fatal(err)
		}
		tbls, groups = append(tbls, tbl), append(groups, g)
	}
	return tbls, groups
}

// runSweepScript drives the script against the fault store and reports
// which transactions were acknowledged as committed, in commit order.
// With window > 1 it uses the chain-commit path (CommitChain batches of
// up to window transactions — the fused spine's shape); otherwise plain
// Commit per transaction. Driving continues after a crash so the sweep
// also verifies fail-fast behavior of every post-crash commit. Every
// transaction declares all the shape's tables, as a stream query's
// transactions do (so with several groups every commit spans them all,
// and a chain member's verdict sits in the last table's column).
func runSweepScript(t *testing.T, proto string, window, tables int, script []sweepTxn, fault *kv.Fault) (committed []int, groups []*Group, p Protocol) {
	t.Helper()
	ctx := NewContext()
	tbls, groups := sweepTables(t, ctx, fault, tables)
	p = sweepProtocol(proto, ctx)

	apply := func(tx *Txn, s sweepTxn) error {
		if err := tx.Declare(tbls...); err != nil {
			return err
		}
		for _, op := range s {
			var err error
			if op.del {
				err = p.Delete(tx, tbls[op.tbl], op.key)
			} else {
				err = p.Write(tx, tbls[op.tbl], op.key, []byte(op.val))
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	sawFailure := false
	noteErr := func(idx int, err error) {
		if err == nil {
			committed = append(committed, idx)
			if sawFailure {
				t.Fatalf("txn %d acknowledged AFTER a durability failure", idx)
			}
			return
		}
		if sawFailure && !errors.Is(err, ErrGroupFailed) {
			t.Fatalf("txn %d post-failure error = %v, want sticky ErrGroupFailed", idx, err)
		}
		sawFailure = true
	}

	if window <= 1 {
		for i, s := range script {
			tx, err := p.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := apply(tx, s); err != nil {
				t.Fatalf("txn %d write: %v", i, err)
			}
			noteErr(i, p.Commit(tx))
		}
		return committed, groups, p
	}

	ch := NewChain()
	for start := 0; start < len(script); start += window {
		end := start + window
		if end > len(script) {
			end = len(script)
		}
		txs := make([]*Txn, 0, end-start)
		for i := start; i < end; i++ {
			tx, err := p.Begin()
			if err != nil {
				t.Fatal(err)
			}
			tx.SetChain(ch)
			if err := apply(tx, script[i]); err != nil {
				t.Fatalf("txn %d write: %v", i, err)
			}
			txs = append(txs, tx)
		}
		errs := p.CommitChain(txs, tbls)
		for i := range errs {
			noteErr(start+i, errs[i][len(tbls)-1])
		}
	}
	return committed, groups, p
}

// sweepKey names a row across the shape's tables in the flat effect maps.
func sweepKey(tbl int, key string) string { return fmt.Sprintf("%d/%s", tbl, key) }

// sweepEffects replays the committed prefix into a flat map.
func sweepEffects(script []sweepTxn, committed []int) map[string]string {
	want := map[string]string{}
	for _, idx := range committed {
		for _, op := range script[idx] {
			if op.del {
				delete(want, sweepKey(op.tbl, op.key))
			} else {
				want[sweepKey(op.tbl, op.key)] = op.val
			}
		}
	}
	return want
}

// recoverSweep reopens the crashed store into a fresh context and
// returns the recovered watermark (the newest across the shape's groups)
// and the contents of all its tables.
func recoverSweep(t *testing.T, fault *kv.Fault, tables int) (Timestamp, map[string]string) {
	t.Helper()
	re, err := fault.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	ctx := NewContext()
	tbls, groups := sweepTables(t, ctx, re, tables)
	var recovered Timestamp
	got := map[string]string{}
	for i, tbl := range tbls {
		if cts := groups[i].LastCTS(); cts > recovered {
			recovered = cts
		}
		scanStripe(tbl, ctx.Now(), 0, 1, func(key string, value []byte) bool {
			got[sweepKey(i, key)] = string(value)
			return true
		})
	}
	return recovered, got
}

// TestPropertyCrashRecoveryPrefixDurability is the sweep: for each
// protocol × window shape × group layout, first a fault-free counting run
// fixes the
// number of write boundaries, then one run per boundary crashes the
// store exactly there, reopens, and asserts the prefix-durability
// invariant plus post-crash fail-stop behavior.
func TestPropertyCrashRecoveryPrefixDurability(t *testing.T) {
	const nTxns = 16
	shapes := []struct{ window, tables int }{{1, 1}, {8, 1}, {1, 2}, {8, 2}}
	for _, proto := range []string{"mvcc", "s2pl", "bocc"} {
		for _, shape := range shapes {
			window, tables := shape.window, shape.tables
			t.Run(fmt.Sprintf("%s/window=%d/groups=%d", proto, window, tables), func(t *testing.T) {
				script := makeSweepScript(rand.New(rand.NewSource(0xC0FFEE)), nTxns, window, tables)

				// Counting run: no faults; fixes the number of Apply
				// boundaries and the full committed sequence.
				clean := kv.NewFault(kv.NewMem())
				committedAll, groupsAll, _ := runSweepScript(t, proto, window, tables, script, clean)
				if len(committedAll) != nTxns {
					t.Fatalf("fault-free run committed %d/%d txns", len(committedAll), nTxns)
				}
				for _, g := range groupsAll[1:] {
					// Spanning commits publish one timestamp to every group
					// they latched.
					if g.LastCTS() != groupsAll[0].LastCTS() {
						t.Fatalf("groups diverged: LastCTS %d vs %d", g.LastCTS(), groupsAll[0].LastCTS())
					}
				}
				boundaries := int(clean.Stats().Applies)
				clean.Close()
				if boundaries == 0 {
					t.Fatal("no write boundaries to sweep")
				}

				// The sweep: crash at every boundary (and one past the
				// end — no crash — as a control).
				for k := 1; k <= boundaries+1; k++ {
					fault := kv.NewFault(kv.NewMem())
					fault.CrashAtApply(k)
					committed, groups, p := runSweepScript(t, proto, window, tables, script, fault)

					if k <= boundaries {
						if !fault.Crashed() {
							t.Fatalf("crash=%d: store did not crash", k)
						}
						// Fail-stop: every group on the crashed store is
						// poisoned and a fresh commit fails fast while reads
						// still serve the acknowledged in-memory state.
						for _, group := range groups {
							if group.Err() == nil {
								t.Fatalf("crash=%d: group %s not poisoned", k, group.ID())
							}
							tx, err := p.Begin()
							if err != nil {
								t.Fatal(err)
							}
							tbl := group.Tables()[0]
							if err := p.Write(tx, tbl, "post", []byte("x")); err != nil {
								t.Fatalf("crash=%d: buffered write failed: %v", k, err)
							}
							if err := p.Commit(tx); !errors.Is(err, ErrGroupFailed) {
								t.Fatalf("crash=%d: post-crash commit = %v, want ErrGroupFailed", k, err)
							}
							ro, _ := p.BeginReadOnly()
							if _, _, err := p.Read(ro, tbl, "k00-0"); err != nil {
								t.Fatalf("crash=%d: post-crash read = %v", k, err)
							}
							_ = p.Abort(ro)
						}
					} else if len(committed) != nTxns {
						t.Fatalf("control run committed %d/%d", len(committed), nTxns)
					}

					// Prefix durability: what the reopened store recovers
					// is exactly the effects of the acknowledged commits —
					// the acknowledged sequence IS the durable prefix,
					// because acknowledgment follows the synced Apply.
					recovered, got := recoverSweep(t, fault, tables)
					want := sweepEffects(script, committed)
					if len(got) != len(want) {
						t.Fatalf("crash=%d: recovered %d keys (%v), want %d (%v)", k, len(got), got, len(want), want)
					}
					for key, val := range want {
						if got[key] != val {
							t.Fatalf("crash=%d: recovered %q=%q, want %q", k, key, got[key], val)
						}
					}
					// Watermark consistency: zero with no durable commit,
					// otherwise it must not precede any acknowledged commit
					// (the last acked commit's batch carried it).
					if len(committed) == 0 && recovered != 0 {
						t.Fatalf("crash=%d: watermark %d with no committed txn", k, recovered)
					}
					if len(committed) > 0 && recovered == 0 {
						t.Fatalf("crash=%d: watermark lost (%d commits acked)", k, recovered)
					}
					fault.Close()
				}
			})
		}
	}
}

// TestCrashSweepTornBatchDetectable: the harness's store-level batch
// atomicity is what the commit protocol relies on (a WAL record is
// atomic via its CRC framing). A store that tears a batch violates the
// contract, and the watermark makes the violation observable: the torn
// prefix excludes the trailing watermark op, so recovery sees rows newer
// than the watermark claims. This test documents that the tear is NOT
// silently absorbed — the recovered contents differ from every prefix.
func TestCrashSweepTornBatchDetectable(t *testing.T) {
	script := makeSweepScript(rand.New(rand.NewSource(7)), 4, 1, 1)
	fault := kv.NewFault(kv.NewMem())
	// Tear the 3rd commit's batch after a single op: rows of txn 2 leak
	// without its watermark bump.
	fault.TearApplyAt(3, 1)
	committed, _, _ := runSweepScript(t, "mvcc", 1, 1, script, fault)

	_, got := recoverSweep(t, fault, 1)
	want := sweepEffects(script, committed)
	match := len(got) == len(want)
	if match {
		for key, val := range want {
			if got[key] != val {
				match = false
				break
			}
		}
	}
	if match {
		// The torn op happened to coincide with the acknowledged prefix
		// (e.g. it overwrote an existing value identically) — that would
		// make this test vacuous; the fixed seed avoids it.
		t.Fatal("torn batch was indistinguishable from a clean prefix; pick a different seed")
	}
}
