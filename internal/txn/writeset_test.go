package txn

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/leaktest"
)

// dedupeOp is one step of a scripted transaction: a write to table a or b
// (a put, or a delete), or a read.
type dedupeOp struct {
	tbl  int
	key  string
	val  string
	del  bool
	read bool
}

// makeDedupeScript builds n transactions. Keys are partitioned by window
// position — members of one chain window touch disjoint keys, as S2PL's
// write-time locks require of a single driver — and each transaction
// draws from four keys, so it writes keys twice, deletes then puts, puts
// then deletes, and reads between its writes.
func makeDedupeScript(rng *rand.Rand, n, window int) [][]dedupeOp {
	script := make([][]dedupeOp, n)
	for i := range script {
		slot := i % window
		for j := 1 + rng.Intn(10); j > 0; j-- {
			op := dedupeOp{tbl: rng.Intn(2), key: fmt.Sprintf("k%d-%d", slot, rng.Intn(4))}
			switch r := rng.Intn(10); {
			case r < 3:
				op.read = true
			case r < 5:
				op.del = true
			default:
				op.val = fmt.Sprintf("v%d-%d", i, j)
			}
			script[i] = append(script[i], op)
		}
	}
	return script
}

// dedupeModel is the write-set semantics the property checks against:
// each key once, at its first-write position, with its last operation.
type dedupeModel struct {
	order [2][]string
	last  [2]map[string]dedupeOp
}

func (m *dedupeModel) write(op dedupeOp) {
	if m.last[op.tbl] == nil {
		m.last[op.tbl] = map[string]dedupeOp{}
	}
	if _, seen := m.last[op.tbl][op.key]; !seen {
		m.order[op.tbl] = append(m.order[op.tbl], op.key)
	}
	m.last[op.tbl][op.key] = op
}

// TestPropertyWriteSetDedupe runs seeded scripts under mvcc, s2pl and
// bocc, committing chain windows of 1 and 4, with and without a change
// feed, and checks them against the model: every read between writes sees
// the transaction's own latest write (or the committed state), every
// commit succeeds, the tables end up holding the model's contents, and the
// feed delivers each commit's keys of table a once, in first-write order.
func TestPropertyWriteSetDedupe(t *testing.T) {
	leaktest.Check(t)
	for _, proto := range []string{"mvcc", "s2pl", "bocc"} {
		for _, window := range []int{1, 4} {
			for _, fed := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/window=%d/feed=%t/seed=%d", proto, window, fed, seed)
					t.Run(name, func(t *testing.T) {
						runDedupeScript(t, proto, window, fed, makeDedupeScript(rand.New(rand.NewSource(seed)), 60, window))
					})
				}
			}
		}
	}
}

func runDedupeScript(t *testing.T, proto string, window int, fed bool, script [][]dedupeOp) {
	store := kv.NewMem()
	defer store.Close()
	ctx := NewContext()
	a, _ := ctx.CreateTable("a", store, TableOptions{})
	b, _ := ctx.CreateTable("b", store, TableOptions{})
	tbls := []*Table{a, b}
	if _, err := ctx.CreateGroup("g", a, b); err != nil {
		t.Fatal(err)
	}
	var feed *PartitionedFeed
	if fed {
		var err error
		if feed, err = a.WatchPartitioned(1, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	p := sweepProtocol(proto, ctx)
	committed := [2]map[string]string{{}, {}}
	var wantFeed [][]string
	ch := NewChain()

	for lo := 0; lo < len(script); lo += window {
		members := script[lo:min(lo+window, len(script))]
		txs := make([]*Txn, len(members))
		models := make([]dedupeModel, len(members))
		for i, ops := range members {
			tx, err := p.Begin()
			if err != nil {
				t.Fatal(err)
			}
			tx.SetChain(ch)
			if err := tx.Declare(a, b); err != nil {
				t.Fatal(err)
			}
			txs[i] = tx
			m := &models[i]
			for _, op := range ops {
				tbl := tbls[op.tbl]
				if op.read {
					v, ok, err := p.Read(tx, tbl, op.key)
					if err != nil {
						t.Fatal(err)
					}
					want, wantOK := committed[op.tbl][op.key]
					if own, written := m.last[op.tbl][op.key]; written {
						want, wantOK = own.val, !own.del
					}
					if ok != wantOK || string(v) != want {
						t.Fatalf("txn %d reads %s/%s = %q, %v; want %q, %v", lo+i, tbl.ID(), op.key, v, ok, want, wantOK)
					}
					continue
				}
				if op.del {
					err = p.Delete(tx, tbl, op.key)
				} else {
					err = p.Write(tx, tbl, op.key, []byte(op.val))
				}
				if err != nil {
					t.Fatal(err)
				}
				m.write(op)
			}
		}
		for i, row := range p.CommitChain(txs, tbls) {
			if row[len(row)-1] != nil {
				t.Fatalf("txn %d: verdicts %v, want a commit", lo+i, row)
			}
			m := &models[i]
			for ti := range tbls {
				for _, k := range m.order[ti] {
					if op := m.last[ti][k]; op.del {
						delete(committed[ti], k)
					} else {
						committed[ti][k] = op.val
					}
				}
			}
			if len(m.order[0]) > 0 {
				wantFeed = append(wantFeed, m.order[0])
			}
		}
	}

	for ti, tbl := range tbls {
		got := map[string]string{}
		tbl.SnapshotScan(ctx.Now(), func(k string, v []byte) bool {
			got[k] = string(v)
			return true
		})
		if !reflect.DeepEqual(got, committed[ti]) {
			t.Fatalf("table %s holds %v, want %v", tbl.ID(), got, committed[ti])
		}
	}
	if feed != nil {
		feed.Stop()
		var gotFeed [][]string
		for ev := range feed.Partitions()[0] {
			gotFeed = append(gotFeed, ev.Keys)
			feed.Ack(0)
		}
		if !slices.EqualFunc(gotFeed, wantFeed, slices.Equal) {
			t.Fatalf("feed delivered %v, want %v", gotFeed, wantFeed)
		}
	}
}
