package stream

import (
	"fmt"
	"testing"

	"sistream/internal/txn"
)

func seedTable(t *testing.T, e *streamEnv, tbl *txn.Table, kvs map[string]string) {
	t.Helper()
	tx, err := e.p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range kvs {
		if err := e.p.Write(tx, tbl, k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.p.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

func TestTableJoinEnriches(t *testing.T) {
	e := newStreamEnv(t)
	seedTable(t, e, e.t1, map[string]string{"a": "limit=5", "b": "limit=9"})

	top := New("t")
	out := top.SliceSource("src", tuples("a", "b", "c")).
		TableJoin("join", e.p, e.t1, func(j Joined) (Tuple, bool) {
			tp := j.Stream
			if j.Matched {
				tp.Value = append(append([]byte(nil), tp.Value...), ' ')
				tp.Value = append(tp.Value, j.TableValue...)
			} else {
				tp.Value = []byte("unmatched")
			}
			return tp, true
		}).
		Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, el := range <-out {
		got = append(got, fmt.Sprintf("%s:%s", el.Tuple.Key, el.Tuple.Value))
	}
	want := "[a:v-a limit=5 b:v-b limit=9 c:unmatched]"
	if fmt.Sprint(got) != want {
		t.Fatalf("join output %v, want %v", got, want)
	}
}

func TestTableJoinInner(t *testing.T) {
	e := newStreamEnv(t)
	seedTable(t, e, e.t1, map[string]string{"a": "x"})
	top := New("t")
	out := top.SliceSource("src", tuples("a", "b")).
		TableJoin("inner", e.p, e.t1, func(j Joined) (Tuple, bool) {
			return j.Stream, j.Matched // inner join
		}).
		Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if got := dataKeys(<-out); fmt.Sprint(got) != "[a]" {
		t.Fatalf("inner join kept %v", got)
	}
}

// TestTableJoinUnderQueryTransaction: a join placed upstream of the
// query's commit point reads under the query's own transaction (one
// snapshot per batch rather than per element).
func TestTableJoinUnderQueryTransaction(t *testing.T) {
	e := newStreamEnv(t)
	seedTable(t, e, e.t1, map[string]string{"a": "spec-a", "b": "spec-b"})
	top := New("t")
	var joined []string
	q := top.SliceSource("src", tuples("a", "b")).
		Punctuate(2).
		Transactions(e.p, e.t2).
		TableJoin("lookup", e.p, e.t1, func(j Joined) (Tuple, bool) {
			joined = append(joined, fmt.Sprintf("%s=%s", j.Stream.Key, j.TableValue))
			tp := j.Stream
			tp.Value = j.TableValue
			return tp, j.Matched
		})
	q, stats := q.ToTable(e.p, e.t2)
	q.Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(joined) != "[a=spec-a b=spec-b]" {
		t.Fatalf("join saw %v", joined)
	}
	if stats.Commits.Load() != 1 || stats.Writes.Load() != 2 {
		t.Fatalf("downstream table: commits=%d writes=%d", stats.Commits.Load(), stats.Writes.Load())
	}
	// The joined values were persisted into t2 within the same txn.
	vals, err := QueryKeys(e.p, []TableKey{{e.t2, "a"}, {e.t2, "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "spec-a" || string(vals[1]) != "spec-b" {
		t.Fatalf("persisted join results: %q %q", vals[0], vals[1])
	}
}

func TestTableJoinPunctuationsPass(t *testing.T) {
	e := newStreamEnv(t)
	top := New("t")
	out := top.SliceSource("src", tuples("a")).
		Punctuate(1).
		TableJoin("join", e.p, e.t1, func(j Joined) (Tuple, bool) { return j.Stream, true }).
		Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if k := kinds(<-out); k != "BDC" {
		t.Fatalf("punctuations mangled: %q", k)
	}
}

// TestTableJoinReadsUpstreamToTableWrites: a ToTable applies a
// transaction's writes before the transaction's elements leave the
// operator, so a TableJoin consuming its output under the same transaction
// reads the transaction's own new values, never the committed ones they
// replace. Punctuate(100) over the source's 128-tuple batches makes every
// other transaction span two input batches: its first elements reach the
// join before its COMMIT has passed the ToTable, so only the end-of-batch
// flush puts their writes in the write set in time.
func TestTableJoinReadsUpstreamToTableWrites(t *testing.T) {
	e := newStreamEnv(t)
	const n = 1000
	committed := make(map[string]string, n)
	in := make([]Tuple, n)
	for i := range in {
		k := fmt.Sprintf("k%04d", i)
		committed[k] = "old-" + k
		in[i] = Tuple{Key: k, Value: []byte("new-" + k)}
	}
	seedTable(t, e, e.t1, committed)

	top := New("t")
	s, _ := top.SliceSource("src", in).
		Punctuate(100).
		Transactions(e.p, e.t1, e.t2).
		ToTable(e.p, e.t1)
	var stale []string // the join's goroutine appends; read after Run
	s = s.TableJoin("join", e.p, e.t1, func(j Joined) (Tuple, bool) {
		if string(j.TableValue) != string(j.Stream.Value) {
			stale = append(stale, fmt.Sprintf("%s=%s", j.Stream.Key, j.TableValue))
		}
		tp := j.Stream
		tp.Value = j.TableValue
		return tp, j.Matched
	})
	s, stats := s.ToTable(e.p, e.t2)
	s.Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if len(stale) > 0 {
		t.Fatalf("the join read %d values other than its transaction's own writes, first %v", len(stale), stale[0])
	}
	if c, w := stats.Commits.Load(), stats.Writes.Load(); c != n/100 || w != n {
		t.Fatalf("downstream table: commits=%d writes=%d, want %d and %d", c, w, n/100, n)
	}
	rows, err := TableSnapshot(e.p, e.t2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if string(r.Value) != "new-"+r.Key {
			t.Fatalf("%s joined %q into the second table, want new-%s", r.Key, r.Value, r.Key)
		}
	}
	if len(rows) != n {
		t.Fatalf("second table holds %d rows, want %d", len(rows), n)
	}
}
