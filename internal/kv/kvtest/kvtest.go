// Package kvtest is the conformance suite for kv.Store implementations:
// the executable form of the interface contract in internal/kv/store.go.
// Every registered backend spec — terminal stores and chained adapters
// alike — is run through the same battery: no key/value aliasing after
// calls return, Apply atomicity and in-batch ordering, Scan bounds,
// ordering and early stop, Sync durability where the backend declares
// Durable, ErrClosed after Close, and ops carrying kv.Handles behaving
// exactly as ops without.
//
// New adapters get conformance coverage by adding one Harness to the
// table in conformance_test.go.
package kvtest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sistream/internal/kv"
)

// Harness describes how to exercise one backend spec.
type Harness struct {
	// Spec is the backend spec under test, for diagnostics.
	Spec string
	// Open returns a fresh, empty store chain. The suite closes it.
	Open func(t *testing.T) *kv.OpenedStore
	// Reopen, when non-nil, simulates a crash-and-recover cycle on a
	// chain previously opened by Open: it must return a store seeing
	// exactly the data that was durable in prev, taking ownership of
	// prev (crashing or closing it as the simulation requires). The
	// suite closes the returned store. Durability tests are skipped
	// when nil.
	Reopen func(t *testing.T, prev *kv.OpenedStore) kv.Store
}

// Run executes the conformance suite against one harness.
func Run(t *testing.T, h Harness) {
	t.Run("Aliasing", func(t *testing.T) { testAliasing(t, h) })
	t.Run("ApplyAtomicity", func(t *testing.T) { testApplyAtomicity(t, h) })
	t.Run("ScanOrder", func(t *testing.T) { testScanOrder(t, h) })
	t.Run("ScanEarlyStop", func(t *testing.T) { testScanEarlyStop(t, h) })
	t.Run("SyncDurability", func(t *testing.T) { testSyncDurability(t, h) })
	t.Run("ErrClosed", func(t *testing.T) { testErrClosed(t, h) })
	t.Run("Handles", func(t *testing.T) { testHandles(t, h) })
}

// testAliasing: implementations copy what they retain — mutating a key
// or value buffer after the call returns must not change stored state,
// and a Get-returned value must stay stable across later writes to the
// same key.
func testAliasing(t *testing.T, h Harness) {
	st := h.Open(t)
	defer st.Close()

	key := []byte("alias-key")
	val := []byte("alias-val")
	if err := st.Put(key, val); err != nil {
		t.Fatal(err)
	}
	key[0], val[0] = 'X', 'X'
	got, found, err := st.Get([]byte("alias-key"))
	if err != nil || !found {
		t.Fatalf("Get after buffer mutation: %v, %v", found, err)
	}
	if !bytes.Equal(got, []byte("alias-val")) {
		t.Fatalf("stored value aliased the caller's buffer: %q", got)
	}

	// The same rule for batch ops built with the copying constructors.
	bkey := []byte("batch-key")
	bval := []byte("batch-val")
	b := kv.NewBatch(1)
	b.Put(bkey, bval)
	bkey[0], bval[0] = 'Y', 'Y' // Batch.Put copied already
	if err := st.Apply(b, false); err != nil {
		t.Fatal(err)
	}
	got, found, err = st.Get([]byte("batch-key"))
	if err != nil || !found || !bytes.Equal(got, []byte("batch-val")) {
		t.Fatalf("batch value aliased: %q, %v, %v", got, found, err)
	}

	// A value handed out by Get must survive later writes to its key.
	held, _, err := st.Get([]byte("alias-key"))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), held...)
	if err := st.Put([]byte("alias-key"), []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, snapshot) {
		t.Fatalf("value returned by Get mutated by a later Put: %q", held)
	}
}

// testApplyAtomicity: every op of an applied batch is visible, in-batch
// same-key ops resolve last-wins, and put-then-delete deletes.
func testApplyAtomicity(t *testing.T, h Harness) {
	st := h.Open(t)
	defer st.Close()

	if err := st.Put([]byte("pre"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	b := kv.NewBatch(6)
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Put([]byte("dup"), []byte("first"))
	b.Put([]byte("dup"), []byte("second")) // last-wins
	b.Put([]byte("gone"), []byte("temp"))
	b.Delete([]byte("gone")) // put-then-delete deletes
	b.Delete([]byte("pre"))  // delete of pre-existing key
	if err := st.Apply(b, false); err != nil {
		t.Fatal(err)
	}

	want := map[string]string{"a": "1", "b": "2", "dup": "second"}
	for k, v := range want {
		got, found, err := st.Get([]byte(k))
		if err != nil || !found || string(got) != v {
			t.Errorf("Get(%s) = %q, %v, %v; want %q", k, got, found, err, v)
		}
	}
	for _, k := range []string{"gone", "pre"} {
		if _, found, err := st.Get([]byte(k)); err != nil || found {
			t.Errorf("Get(%s) = found=%v, err=%v; want deleted", k, found, err)
		}
	}
	if n, err := kv.Len(st); err != nil || n != len(want) {
		t.Errorf("Len = %d, %v; want %d", n, err, len(want))
	}
}

// testScanOrder: ascending key order, [start, end) bounds, nil bounds
// meaning the ends.
func testScanOrder(t *testing.T, h Harness) {
	st := h.Open(t)
	defer st.Close()
	for i := 9; i >= 0; i-- { // inserted out of order on purpose
		if err := st.Put([]byte(fmt.Sprintf("k%d", i)), []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	collect := func(start, end []byte) []string {
		var keys []string
		if err := st.Scan(start, end, func(k, v []byte) bool {
			keys = append(keys, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	all := collect(nil, nil)
	if len(all) != 10 {
		t.Fatalf("full scan saw %d keys, want 10", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatalf("scan out of order: %q before %q", all[i-1], all[i])
		}
	}
	if got := fmt.Sprint(collect([]byte("k3"), []byte("k6"))); got != "[k3 k4 k5]" {
		t.Errorf("bounded scan = %v, want [k3 k4 k5]", got)
	}
	if got := collect([]byte("k999"), nil); len(got) != 0 {
		t.Errorf("past-the-end scan = %v, want empty", got)
	}
}

// testScanEarlyStop: fn returning false stops the scan.
func testScanEarlyStop(t *testing.T, h Harness) {
	st := h.Open(t)
	defer st.Close()
	for i := 0; i < 10; i++ {
		if err := st.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	if err := st.Scan(nil, nil, func(k, v []byte) bool {
		calls++
		return calls < 3
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("fn called %d times after returning false at call 3", calls)
	}
}

// testSyncDurability: data covered by Apply(sync=true) survives a
// crash-and-recover cycle; runs only where the spec declares Durable
// and the harness can simulate the crash.
func testSyncDurability(t *testing.T, h Harness) {
	caps, err := kv.SpecCaps(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !caps.Durable {
		t.Skipf("spec %q is not durable", h.Spec)
	}
	if h.Reopen == nil {
		t.Skipf("harness for %q cannot simulate a crash", h.Spec)
	}
	st := h.Open(t)
	b := kv.NewBatch(2)
	b.Put([]byte("durable-a"), []byte("1"))
	b.Put([]byte("durable-b"), []byte("2"))
	if err := st.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	re := h.Reopen(t, st)
	defer re.Close()
	for _, k := range []string{"durable-a", "durable-b"} {
		got, found, err := re.Get([]byte(k))
		if err != nil || !found {
			t.Fatalf("after crash: Get(%s) = %v, %v — synced write lost", k, found, err)
		}
		_ = got
	}
}

// testHandles: an op's kv.Handle never changes what a batch does. The
// same handle carries one key through overwrites, a batch delete, a plain
// Delete behind its back, a second store it was not issued by (which must
// not write into the first), the first store's Close, and — where the
// harness can — a crash and recovery.
func testHandles(t *testing.T, h Harness) {
	var hd kv.Handle
	key := []byte("handle-key")
	put := func(st kv.Store, val string) {
		t.Helper()
		b := kv.NewBatch(1)
		b.PutHandle(key, []byte(val), &hd)
		if err := st.Apply(b, true); err != nil {
			t.Fatal(err)
		}
	}
	del := func(st kv.Store) {
		t.Helper()
		b := kv.NewBatch(1)
		b.DeleteHandle(key, &hd)
		if err := st.Apply(b, true); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(st kv.Store, what, want string) {
		t.Helper()
		got, found, err := st.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if want == "" && found {
			t.Fatalf("%s: Get = %q, want no value", what, got)
		}
		if want != "" && (!found || string(got) != want) {
			t.Fatalf("%s: Get = %q, %v; want %q", what, got, found, want)
		}
		n := 0
		if err := st.Scan(key, append(key, 0), func(_, _ []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if want != "" && n != 1 || want == "" && n != 0 {
			t.Fatalf("%s: Scan sees the key %d times", what, n)
		}
	}

	first := h.Open(t)
	put(first, "v1")
	put(first, "v2")
	expect(first, "overwrite through the handle", "v2")
	del(first)
	expect(first, "delete through the handle", "")
	put(first, "v3")
	expect(first, "put after a batch delete", "v3")
	if err := first.Delete(key); err != nil {
		t.Fatal(err)
	}
	put(first, "v4")
	expect(first, "put after a plain Delete", "v4")

	second := h.Open(t)
	defer second.Close()
	put(second, "other")
	expect(second, "a handle issued by another store", "other")
	expect(first, "the issuing store after another store used its handle", "v4")
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	put(second, "after-close")
	expect(second, "a handle of a closed store", "after-close")

	if h.Reopen == nil {
		return
	}
	third := h.Open(t)
	put(third, "durable")
	re := h.Reopen(t, third)
	defer re.Close()
	expect(re, "after crash and recovery", "durable")
	put(re, "recovered")
	expect(re, "a handle used across a crash", "recovered")
}

// testErrClosed: every operation on a closed store reports kv.ErrClosed.
func testErrClosed(t *testing.T, h Harness) {
	st := h.Open(t)
	if err := st.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(op string, err error) {
		if !errors.Is(err, kv.ErrClosed) {
			t.Errorf("%s after Close = %v, want kv.ErrClosed", op, err)
		}
	}
	_, _, err := st.Get([]byte("k"))
	check("Get", err)
	check("Put", st.Put([]byte("k"), []byte("v")))
	check("Delete", st.Delete([]byte("k")))
	b := kv.NewBatch(1)
	b.Put([]byte("k"), []byte("v"))
	check("Apply", st.Apply(b, false))
	check("Scan", st.Scan(nil, nil, func(_, _ []byte) bool { return true }))
	check("Sync", st.Sync())
}
