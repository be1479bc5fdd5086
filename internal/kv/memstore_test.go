package kv

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// memShardBound checks every shard of s against the bound compact keeps —
// at most max(2·live, live+memChunk) entries stored — and that its live
// count is the live entries it holds, and returns the live total.
func memShardBound(t *testing.T, s *Mem) int {
	t.Helper()
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		live := 0
		for pos := range sh.n {
			e := sh.chunks.at(uint32(pos))
			if !e.dead {
				live++
				if e.owner != s || int(e.shard) != i {
					t.Fatalf("shard %d: entry %q claims store %p shard %d", i, e.key, e.owner, e.shard)
				}
			}
		}
		if live != sh.live {
			t.Fatalf("shard %d: %d live entries, counted %d", i, live, sh.live)
		}
		if sh.n > max(2*sh.live, sh.live+memChunk) {
			t.Fatalf("shard %d: %d entries stored for %d live", i, sh.n, sh.live)
		}
		total += live
	}
	return total
}

// FuzzMemModel runs op scripts against a Mem and a map model: puts and
// deletes with or without a key's held handle, gets, scans over random
// bounds, a flood of short-lived keys that makes every shard rebuild (so
// the held handles outlive their entries), and puts into a second Mem
// through the same handles. After every op the store must read as the
// model, each shard must keep its entry bound, and a handle that holds a
// live entry must hold its own key's.
func FuzzMemModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 3, 2, 1, 0, 4, 0, 0, 3, 1, 0, 6, 0, 0, 1, 1, 7})
	f.Add([]byte{0, 5, 9, 1, 5, 0, 0, 5, 8, 5, 0, 0, 0, 5, 7, 4, 2, 9})
	f.Add([]byte{6, 3, 3, 0, 3, 1, 1, 3, 0, 4, 0, 0, 0, 3, 2, 3, 3, 2})
	floodKeys := make([][]byte, 4096)
	for i := range floodKeys {
		floodKeys[i] = fmt.Appendf(nil, "f/%d", i)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		const nkeys = 24
		keys := make([][]byte, nkeys)
		for i := range keys {
			switch i % 3 {
			case 0:
				keys[i] = fmt.Appendf(nil, "s/t/%d", i)
			case 1:
				keys[i] = fmt.Appendf(nil, "s/t/%s%d", strings.Repeat("long", 8), i)
			default:
				keys[i] = fmt.Appendf(nil, "s/%c", 'a'+i)
			}
		}
		keys[nkeys-1] = []byte{} // the empty key
		s, other := NewMem(), NewMem()
		defer s.Close()
		defer other.Close()
		model := map[string]string{}
		var handles [nkeys]Handle
		floods := 0
		at := func(i int) int {
			if i < len(script) {
				return int(script[i])
			}
			return 0
		}
		apply := func(st *Mem, b *Batch) {
			t.Helper()
			if err := st.Apply(b, false); err != nil {
				t.Fatal(err)
			}
		}
		for pc, step := 0, 0; pc < len(script); pc, step = pc+3, step+1 {
			op, k, arg := at(pc)%8, at(pc+1)%nkeys, at(pc+2)
			key := keys[k]
			var h *Handle
			if arg&1 != 0 {
				h = &handles[k]
			}
			b := NewBatch(1)
			switch op {
			case 0, 1: // put
				v := fmt.Sprintf("v%d", step)
				b.PutHandle(key, []byte(v), h)
				apply(s, b)
				model[string(key)] = v
			case 2: // delete
				b.DeleteHandle(key, h)
				apply(s, b)
				delete(model, string(key))
			case 3: // two ops on one key in one batch
				v := fmt.Sprintf("w%d", step)
				b.PutHandle(key, []byte("first"), h)
				if arg&2 != 0 {
					b.DeleteHandle(key, h)
					delete(model, string(key))
				} else {
					b.PutHandle(key, []byte(v), h)
					model[string(key)] = v
				}
				apply(s, b)
			case 4: // scan
				var start, end []byte
				if arg&2 != 0 {
					start = keys[at(pc+3)%nkeys]
				}
				if arg&4 != 0 {
					end = keys[at(pc+4)%nkeys]
				}
				var want, got []string
				for mk := range model {
					if (start == nil || mk >= string(start)) && (end == nil || mk < string(end)) {
						want = append(want, mk)
					}
				}
				slices.Sort(want)
				for i, mk := range want {
					want[i] = mk + "=" + model[mk]
				}
				if err := s.Scan(start, end, func(k, v []byte) bool {
					got = append(got, string(k)+"="+string(v))
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: Scan(%q, %q) = %q, want %q", step, start, end, got, want)
				}
			case 5: // a put into another store through the same handle
				b.PutHandle(key, []byte("foreign"), &handles[k])
				apply(other, b)
				if v, ok, _ := other.Get(key); !ok || string(v) != "foreign" {
					t.Fatalf("step %d: other store reads %q, %v", step, v, ok)
				}
			case 6: // a flood of short-lived keys: every shard rebuilds
				if floods++; floods > 3 {
					break // a few are enough, and each takes a while
				}
				flood := NewBatch(len(floodKeys))
				for _, fk := range floodKeys {
					flood.PutHandle(fk, nil, nil)
				}
				apply(s, flood)
				flood.Reset()
				for _, fk := range floodKeys {
					flood.DeleteHandle(fk, nil)
				}
				apply(s, flood)
			default: // get
			}
			v, ok, err := s.Get(key)
			if want, wok := model[string(key)]; err != nil || ok != wok || string(v) != want {
				t.Fatalf("step %d: Get(%q) = %q, %v, %v; want %q, %v", step, key, v, ok, err, want, wok)
			}
			if n := memShardBound(t, s); n != len(model) {
				t.Fatalf("step %d: %d live entries, model has %d keys", step, n, len(model))
			}
			for i := range handles {
				if e := handles[i].mem; e != nil && !e.dead && !bytes.Equal(e.key, keys[i]) {
					t.Fatalf("step %d: handle of %q holds the live entry of %q", step, keys[i], e.key)
				}
			}
		}
	})
}

// TestMemDeleteChurnBounded: deleting and re-inserting the same 10 000
// keys for 50 rounds leaves every shard within its entry bound after
// every batch, and after a rebuild a handle to the key's old entry finds
// it dead, looks the key up and writes that key, adding no entry.
func TestMemDeleteChurnBounded(t *testing.T) {
	const keys, rounds = 10_000, 50
	s := NewMem()
	defer s.Close()
	key := func(i int) []byte { return fmt.Appendf(nil, "s/churn/%05d", i) }
	handles := make([]Handle, keys)
	b := NewBatch(keys)
	for round := range rounds {
		b.Reset()
		for i := range keys {
			b.PutHandle(key(i), fmt.Appendf(nil, "r%d", round), &handles[i])
		}
		if err := s.Apply(b, false); err != nil {
			t.Fatal(err)
		}
		if n := memShardBound(t, s); n != keys {
			t.Fatalf("round %d: %d live entries, want %d", round, n, keys)
		}
		b.Reset()
		for i := range keys {
			b.Delete(key(i))
		}
		if err := s.Apply(b, false); err != nil {
			t.Fatal(err)
		}
		if n := memShardBound(t, s); n != 0 {
			t.Fatalf("round %d: %d live entries after deleting every key", round, n)
		}
	}

	// Refill, take the handles, then delete 60 % of the keys without
	// them: every shard's dead entries outnumber its live ones, so it
	// rebuilds and retires the entries the kept keys' handles hold.
	b.Reset()
	for i := range keys {
		b.PutHandle(key(i), []byte("before"), &handles[i])
	}
	if err := s.Apply(b, false); err != nil {
		t.Fatal(err)
	}
	held := slices.Clone(handles)
	b.Reset()
	const kept = keys * 2 / 5
	for i := kept; i < keys; i++ {
		b.Delete(key(i))
	}
	if err := s.Apply(b, false); err != nil {
		t.Fatal(err)
	}
	memShardBound(t, s)
	b.Reset()
	for i := range kept {
		if !held[i].mem.dead {
			t.Fatalf("key %q: its entry outlived the rebuild", key(i))
		}
		b.PutHandle(key(i), fmt.Appendf(nil, "after%d", i), &held[i])
	}
	if err := s.Apply(b, false); err != nil {
		t.Fatal(err)
	}
	if n := memShardBound(t, s); n != kept {
		t.Fatalf("%d live entries after writing through the held handles, want %d", n, kept)
	}
	for i := range kept {
		if v, ok, _ := s.Get(key(i)); !ok || string(v) != fmt.Sprintf("after%d", i) {
			t.Fatalf("key %q reads %q, %v after the write through its old handle", key(i), v, ok)
		}
		if e := held[i].mem; e.dead || !bytes.Equal(e.key, key(i)) {
			t.Fatalf("handle of %q holds entry %q (dead %v)", key(i), e.key, e.dead)
		}
	}
}

// TestMemRebuildRacesHandleWrites: one writer floods the store with
// short-lived keys, so its shards rebuild again and again, while another
// writes its own keys through their handles, which rebuilds keep
// retiring, and a reader scans; under -race nothing may race, and every
// key ends with its last value.
func TestMemRebuildRacesHandleWrites(t *testing.T) {
	s := NewMem()
	defer s.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		b := NewBatch(2048)
		for range 20 {
			b.Reset()
			for i := range 2048 {
				b.Put(fmt.Appendf(nil, "f/%d", i), nil)
			}
			if err := s.Apply(b, false); err != nil {
				t.Error(err)
				return
			}
			b.Reset()
			for i := range 2048 {
				b.Delete(fmt.Appendf(nil, "f/%d", i))
			}
			if err := s.Apply(b, false); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const keys = 64
	key := func(i int) []byte { return fmt.Appendf(nil, "k/%d", i) }
	go func() {
		defer wg.Done()
		var handles [keys]Handle
		b := NewBatch(keys)
		for round := range 500 {
			b.Reset()
			for i := range keys {
				b.PutHandle(key(i), fmt.Appendf(nil, "%d", round), &handles[i])
			}
			if err := s.Apply(b, false); err != nil {
				t.Error(err)
				return
			}
			if round%50 == 0 {
				if err := s.Scan(nil, nil, func(_, _ []byte) bool { return true }); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	for i := range keys {
		if v, ok, _ := s.Get(key(i)); !ok || string(v) != "499" {
			t.Fatalf("key %q reads %q, %v, want \"499\"", key(i), v, ok)
		}
	}
	if n := memShardBound(t, s); n != keys {
		t.Fatalf("%d live entries, want %d", n, keys)
	}
}
