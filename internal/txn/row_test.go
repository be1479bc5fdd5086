package txn

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// checkRowShard compares sh against model, the rows it must hold by key,
// under hash: every key is found as its own row, the listing holds each
// row once, and the slot array is at most three quarters full.
func checkRowShard(t *testing.T, sh *rowShard, model map[string]*row, hash func(string) uint64) {
	t.Helper()
	for k, r := range model {
		if got := sh.find(hash(k), k); got != r {
			t.Fatalf("find(%q) = %p, want %p", k, got, r)
		}
	}
	rows := sh.appendRows(nil)
	if len(rows) != len(model) || sh.n != len(model) {
		t.Fatalf("shard lists %d rows, counts %d, want %d", len(rows), sh.n, len(model))
	}
	for _, r := range rows {
		if model[r.key] != r {
			t.Fatalf("listed row %q is not the model's", r.key)
		}
	}
	if 4*sh.n > 3*len(sh.slots) {
		t.Fatalf("%d rows in %d slots: over three quarters full", sh.n, len(sh.slots))
	}
}

// TestRowIndexModel drives one row-index shard and a map with the same
// keys — the empty key, keys around the inline length and far longer ones
// — through enough inserts to grow the slot array many times, under the
// real hash, under hashes that collide outright, and under hashes that
// all start probing at the same slot.
func TestRowIndexModel(t *testing.T) {
	hashes := []struct {
		name string
		hash func(string) uint64
	}{
		{"keyHash", keyHash},
		{"colliding", func(k string) uint64 { return uint64(len(k) % 3) }},
		{"one-first-slot", func(k string) uint64 { return keyHash(k) &^ (1<<40 - 1) }},
	}
	for _, hc := range hashes {
		t.Run(hc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			key := func() string {
				switch rng.Intn(5) {
				case 0:
					return ""
				case 1:
					return fmt.Sprintf("k%d", rng.Intn(500))
				case 2:
					return fmt.Sprintf("%016d", rng.Intn(500)) // exactly inline
				case 3:
					return fmt.Sprintf("%017d", rng.Intn(500)) // one past inline
				}
				return strings.Repeat("long-", 8) + fmt.Sprint(rng.Intn(500))
			}
			var sh rowShard
			model := map[string]*row{}
			for i := 0; i < 3000; i++ {
				k := key()
				h := hc.hash(k)
				if got := sh.find(h, k); got != model[k] {
					t.Fatalf("op %d: find(%q) = %p, want %p", i, k, got, model[k])
				}
				if model[k] == nil {
					r := newRow(k)
					sh.insert(h, r)
					model[k] = r
				}
				if i%500 == 0 {
					checkRowShard(t, &sh, model, hc.hash)
				}
			}
			checkRowShard(t, &sh, model, hc.hash)
			for i := 0; i < 100; i++ {
				if k := fmt.Sprintf("absent-%d", i); sh.find(hc.hash(k), k) != nil {
					t.Fatalf("found absent key %q", k)
				}
			}
		})
	}
}

// FuzzRowIndex checks the row index against a map on fuzzed key sequences.
// The first byte picks the hash — the real one, four bits of it (mass
// collisions), a constant, or one whose low bits are zero (every probe
// starts at slot 0); each following op is a length byte and that many key
// bytes, looked up and inserted when absent.
func FuzzRowIndex(f *testing.F) {
	f.Add([]byte("\x00\x01a\x00\x02bb\x01a\x14long-key-past-inline"))
	f.Add([]byte("\x02\x00\x01x\x01y\x00\x01x"))
	f.Add([]byte("\x03\x03abc\x03abd\x03abc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		hash := [...]func(string) uint64{
			keyHash,
			func(k string) uint64 { return keyHash(k) & 0xf },
			func(string) uint64 { return 7 },
			func(k string) uint64 { return keyHash(k) << 32 },
		}[data[0]%4]
		data = data[1:]
		var sh rowShard
		model := map[string]*row{}
		for len(data) > 0 {
			n := min(int(data[0])%40, len(data)-1)
			k := string(data[1 : 1+n])
			data = data[1+n:]
			h := hash(k)
			if got := sh.find(h, k); got != model[k] {
				t.Fatalf("find(%q) = %p, want %p", k, got, model[k])
			}
			if model[k] == nil {
				r := newRow(k)
				sh.insert(h, r)
				model[k] = r
			}
		}
		checkRowShard(t, &sh, model, hash)
	})
}

// TestRowSize pins the row at 160 bytes, one Go size class: rows of 128,
// 176 and 192 bytes each read a slower ingest-mem p50 (DESIGN.md "Row
// size and GC probes"). A field added to the row must find its room in
// the ones it has.
func TestRowSize(t *testing.T) {
	if got := unsafe.Sizeof(row{}); got != 160 {
		t.Fatalf("row is %d bytes, want 160", got)
	}
}

// TestRowMemoIsRecentCandidateSets: a row's memo names the candidate sets
// it was most recently added to, newest first and across the table's
// indexes; a row moving between two buckets and back adds nothing once
// both are remembered, and a sweep that drops the row from a set drops
// its memo of that set too.
func TestRowMemoIsRecentCandidateSets(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	ix, err := e.t1.CreateIndex("bucket", valueBucket)
	if err != nil {
		t.Fatal(err)
	}
	r := func() *row { return e.t1.row(keyHash("k"), "k") }
	memo := func() string {
		var out []string
		for _, c := range r().memo {
			if c != nil {
				out = append(out, c.ix.name+":"+c.ikey)
			}
		}
		return strings.Join(out, " ")
	}
	write(t, p, e.t1, "k", "a1")
	write(t, p, e.t1, "k", "b1")
	if got := memo(); got != "bucket:b bucket:a" {
		t.Fatalf("memo %q after a then b, want b then a", got)
	}
	puts := ix.Stats().Puts
	for i := range 6 {
		write(t, p, e.t1, "k", fmt.Sprintf("%c%d", "ab"[i%2], i))
	}
	if got := ix.Stats().Puts; got != puts {
		t.Fatalf("%d puts moving between two remembered buckets, want none", got-puts)
	}
	if got := memo(); got != "bucket:b bucket:a" {
		t.Fatalf("memo %q after ending on b, want b then a", got)
	}

	// With no reader a sweep reclaims every version but the live one, b5,
	// and drops the row from bucket a — and the memo of a with it.
	e.t1.GC()
	if got := memo(); got != "bucket:b" {
		t.Fatalf("memo %q after the sweep dropped the row from bucket a, want bucket:b alone", got)
	}

	// A second index shares the row's memo: both of its sets are
	// remembered, newest first.
	if _, err := e.t1.CreateIndex("second", func(_ string, v []byte) (string, bool) { return "all", len(v) > 0 }); err != nil {
		t.Fatal(err)
	}
	write(t, p, e.t1, "k", "a7")
	if got := memo(); got != "second:all bucket:a" {
		t.Fatalf("memo %q with two indexes, want second:all then bucket:a", got)
	}
	for _, c := range r().memo {
		if _, in := c.rows[r()]; !in {
			t.Fatalf("memo names %s:%s, which does not hold the row", c.ix.name, c.ikey)
		}
	}
}
