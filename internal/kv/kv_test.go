package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// putKey writes one key through Apply, the store's one write.
func putKey(s Store, key, value []byte) error {
	b := NewBatch(1)
	b.Put(key, value)
	return s.Apply(b, false)
}

// deleteKey deletes one key through Apply.
func deleteKey(s Store, key []byte) error {
	b := NewBatch(1)
	b.Delete(key)
	return s.Apply(b, false)
}

func TestMemBasicCRUD(t *testing.T) {
	s := NewMem()
	defer s.Close()

	if _, ok, err := s.Get([]byte("a")); err != nil || ok {
		t.Fatalf("get on empty store: ok=%v err=%v", ok, err)
	}
	if err := putKey(s, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get([]byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if err := putKey(s, []byte("a"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Get([]byte("a")); string(v) != "2" {
		t.Fatalf("overwrite failed: %q", v)
	}
	if err := deleteKey(s, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get([]byte("a")); ok {
		t.Fatal("delete failed")
	}
	if err := deleteKey(s, []byte("missing")); err != nil {
		t.Fatal("delete of missing key must not error")
	}
}

func TestMemValueIsolation(t *testing.T) {
	s := NewMem()
	defer s.Close()
	val := []byte("hello")
	if err := putKey(s, []byte("k"), val); err != nil {
		t.Fatal(err)
	}
	val[0] = 'X' // caller mutates its buffer after Put
	got, _, _ := s.Get([]byte("k"))
	if string(got) != "hello" {
		t.Fatalf("store aliased caller's buffer: %q", got)
	}
}

func TestMemBatchAtomicPerKey(t *testing.T) {
	s := NewMem()
	defer s.Close()
	b := NewBatch(3)
	b.Put([]byte("x"), []byte("1"))
	b.Put([]byte("y"), []byte("2"))
	b.Delete([]byte("z"))
	if b.Len() != 3 {
		t.Fatalf("batch len = %d", b.Len())
	}
	if err := s.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Get([]byte("x")); string(v) != "1" {
		t.Fatalf("x = %q", v)
	}
	if v, _, _ := s.Get([]byte("y")); string(v) != "2" {
		t.Fatalf("y = %q", v)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("reset did not clear batch")
	}
}

func TestMemScanOrderAndBounds(t *testing.T) {
	s := NewMem()
	defer s.Close()
	keys := []string{"b", "a", "d", "c", "e"}
	for _, k := range keys {
		if err := putKey(s, []byte(k), []byte("v"+k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := s.Scan([]byte("b"), []byte("e"), func(k, v []byte) bool {
		got = append(got, string(k))
		if string(v) != "v"+string(k) {
			t.Errorf("value mismatch for %q: %q", k, v)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"b", "c", "d"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}

	// Early stop.
	n := 0
	if err := s.Scan(nil, nil, func(_, _ []byte) bool { n++; return n < 2 }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestMemLenHelper(t *testing.T) {
	s := NewMem()
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := putKey(s, []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n, err := Len(s)
	if err != nil || n != 10 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

func TestMemClosed(t *testing.T) {
	s := NewMem()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != ErrClosed {
		t.Fatalf("double close: %v", err)
	}
	if _, _, err := s.Get([]byte("a")); err != ErrClosed {
		t.Fatalf("get after close: %v", err)
	}
	if err := putKey(s, []byte("a"), nil); err != ErrClosed {
		t.Fatalf("put after close: %v", err)
	}
	if err := deleteKey(s, []byte("a")); err != ErrClosed {
		t.Fatalf("delete after close: %v", err)
	}
	if err := s.Apply(NewBatch(0), false); err != ErrClosed {
		t.Fatalf("apply after close: %v", err)
	}
	if err := s.Sync(); err != ErrClosed {
		t.Fatalf("sync after close: %v", err)
	}
	if err := s.Scan(nil, nil, nil); err != ErrClosed {
		t.Fatalf("scan after close: %v", err)
	}
}

func TestMemConcurrent(t *testing.T) {
	s := NewMem()
	defer s.Close()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < 2000; i++ {
				k := []byte(fmt.Sprintf("key-%d", rng.Intn(500)))
				switch rng.Intn(3) {
				case 0:
					if err := putKey(s, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, _, err := s.Get(k); err != nil {
						t.Error(err)
						return
					}
				default:
					if err := deleteKey(s, k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPropertyMemMatchesModel runs random batches against Mem and a plain
// map model and checks they agree.
func TestPropertyMemMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewMem()
		defer s.Close()
		model := map[string]string{}
		for step := 0; step < 300; step++ {
			k := fmt.Sprintf("k%d", rng.Intn(40))
			switch rng.Intn(4) {
			case 0, 1:
				v := fmt.Sprintf("v%d", rng.Int())
				if err := putKey(s, []byte(k), []byte(v)); err != nil {
					return false
				}
				model[k] = v
			case 2:
				if err := deleteKey(s, []byte(k)); err != nil {
					return false
				}
				delete(model, k)
			default:
				got, ok, err := s.Get([]byte(k))
				if err != nil {
					return false
				}
				want, wok := model[k]
				if ok != wok || (ok && string(got) != want) {
					return false
				}
			}
		}
		n, err := Len(s)
		return err == nil && n == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareKeys(t *testing.T) {
	if CompareKeys([]byte("a"), []byte("b")) >= 0 {
		t.Fatal("a should sort before b")
	}
	if !bytes.Equal([]byte("a"), []byte("a")) || CompareKeys([]byte("a"), []byte("a")) != 0 {
		t.Fatal("equal keys must compare 0")
	}
}

func TestBatchClonesInputs(t *testing.T) {
	b := NewBatch(1)
	k := []byte("k")
	v := []byte("v")
	b.Put(k, v)
	k[0], v[0] = 'X', 'Y'
	op := b.Ops()[0]
	if string(op.Key) != "k" || string(op.Value) != "v" {
		t.Fatalf("batch aliased caller buffers: %q %q", op.Key, op.Value)
	}
}

// TestMemIssuesAndRevokesHandles: a put fills its handle with the key's
// entry and the next put through it writes that entry; a delete empties
// it; another Mem never writes through it, and fills it with its own.
func TestMemIssuesAndRevokesHandles(t *testing.T) {
	s, other := NewMem(), NewMem()
	defer s.Close()
	defer other.Close()
	apply := func(st *Mem, del bool, h *Handle, val string) {
		t.Helper()
		b := NewBatch(1)
		if del {
			b.DeleteHandle([]byte("k"), h)
		} else {
			b.PutHandle([]byte("k"), []byte(val), h)
		}
		if err := st.Apply(b, false); err != nil {
			t.Fatal(err)
		}
	}
	var h Handle
	apply(s, false, &h, "v1")
	e := h.mem
	if e == nil || e.owner != s {
		t.Fatalf("put left handle %+v, want the store's entry", h)
	}
	apply(s, false, &h, "v2")
	if h.mem != e || string(e.v) != "v2" {
		t.Fatalf("overwrite through the handle: entry %p value %q, want %p \"v2\"", h.mem, e.v, e)
	}
	apply(other, false, &h, "x")
	if string(e.v) != "v2" || h.mem == e || h.mem.owner != other {
		t.Fatalf("a foreign store wrote through the handle (value %q) or did not reissue it", e.v)
	}
	apply(other, true, &h, "")
	if h.mem != nil {
		t.Fatal("delete left the handle filled")
	}
}

func BenchmarkMemPut(b *testing.B) {
	s := NewMem()
	defer s.Close()
	key := make([]byte, 8)
	val := make([]byte, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		key[1] = byte(i >> 8)
		if err := putKey(s, key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemGet(b *testing.B) {
	s := NewMem()
	defer s.Close()
	for i := 0; i < 1000; i++ {
		if err := putKey(s, []byte(fmt.Sprintf("key-%d", i)), make([]byte, 20)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Get([]byte(fmt.Sprintf("key-%d", i%1000))); err != nil {
			b.Fatal(err)
		}
	}
}
