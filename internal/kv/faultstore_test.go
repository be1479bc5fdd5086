package kv

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func faultPairs(t *testing.T, s Store) map[string]string {
	t.Helper()
	got := map[string]string{}
	if err := s.Scan(nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return got
}

func applyPut(t *testing.T, s Store, sync bool, kvs ...string) error {
	t.Helper()
	if len(kvs)%2 != 0 {
		t.Fatal("odd kv list")
	}
	b := NewBatch(len(kvs) / 2)
	for i := 0; i < len(kvs); i += 2 {
		b.Put([]byte(kvs[i]), []byte(kvs[i+1]))
	}
	return s.Apply(b, sync)
}

func TestFaultPassthrough(t *testing.T) {
	f := NewFault(NewMem())
	if err := applyPut(t, f, true, "a", "1", "b", "2"); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := putKey(f, []byte("c"), []byte("3")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := deleteKey(f, []byte("b")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	want := map[string]string{"a": "1", "c": "3"}
	if got := faultPairs(t, f); len(got) != len(want) || got["a"] != "1" || got["c"] != "3" {
		t.Fatalf("merged view = %v, want %v", got, want)
	}
	v, ok, err := f.Get([]byte("c"))
	if err != nil || !ok || string(v) != "3" {
		t.Fatalf("get c = %q %v %v", v, ok, err)
	}
	if _, ok, _ := f.Get([]byte("b")); ok {
		t.Fatal("deleted key b still visible")
	}
}

func TestFaultCrashDropsUnsynced(t *testing.T) {
	f := NewFault(NewMem())
	if err := applyPut(t, f, true, "durable", "1"); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := applyPut(t, f, false, "volatile", "2"); err != nil {
		t.Fatalf("apply: %v", err)
	}
	f.Crash()
	if _, _, err := f.Get([]byte("durable")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("get after crash: %v, want ErrCrashed", err)
	}
	if err := applyPut(t, f, true, "x", "y"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("apply after crash: %v, want ErrCrashed", err)
	}
	re, err := f.Reopen()
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got := faultPairs(t, re)
	if len(got) != 1 || got["durable"] != "1" {
		t.Fatalf("reopened image = %v, want only durable=1", got)
	}
}

func TestFaultFailApplyAtIsTransient(t *testing.T) {
	f := NewFault(NewMem())
	boom := errors.New("boom")
	f.FailApplyAt(2, boom)
	if err := applyPut(t, f, true, "a", "1"); err != nil {
		t.Fatalf("apply 1: %v", err)
	}
	if err := applyPut(t, f, true, "b", "2"); !errors.Is(err, boom) {
		t.Fatalf("apply 2: %v, want boom", err)
	}
	if _, ok, _ := f.Get([]byte("b")); ok {
		t.Fatal("failed apply leaked its batch")
	}
	if err := applyPut(t, f, true, "c", "3"); err != nil {
		t.Fatalf("apply 3 (after transient fault): %v", err)
	}
	st := f.Stats()
	if st.InjectedApplyFailures != 1 {
		t.Fatalf("InjectedApplyFailures = %d, want 1", st.InjectedApplyFailures)
	}
}

func TestFaultStickySyncError(t *testing.T) {
	f := NewFault(NewMem())
	badDisk := errors.New("EIO")
	if err := applyPut(t, f, true, "a", "1"); err != nil {
		t.Fatalf("apply: %v", err)
	}
	f.FailSyncAt(1, badDisk)
	if err := applyPut(t, f, true, "b", "2"); !errors.Is(err, badDisk) {
		t.Fatalf("first failed sync: %v, want EIO", err)
	}
	// Sticky: every later durability point keeps failing.
	if err := applyPut(t, f, true, "c", "3"); !errors.Is(err, badDisk) {
		t.Fatalf("second sync after failure: %v, want EIO", err)
	}
	if err := f.Sync(); !errors.Is(err, badDisk) {
		t.Fatalf("bare Sync after failure: %v, want EIO", err)
	}
	// Reads still serve the merged (page-cache) view.
	if _, ok, _ := f.Get([]byte("b")); !ok {
		t.Fatal("page-cache write invisible to reads")
	}
	st := f.Stats()
	if st.SyncFailures != 3 {
		t.Fatalf("stats = %+v, want 3 sync failures", st)
	}
	// A crash loses everything after the last successful sync.
	re, err := f.Reopen()
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got := faultPairs(t, re)
	if len(got) != 1 || got["a"] != "1" {
		t.Fatalf("durable image after sticky-sync crash = %v, want only a=1", got)
	}
}

func TestFaultTornBatch(t *testing.T) {
	f := NewFault(NewMem())
	f.TearApplyAt(1, 1)
	b := NewBatch(3)
	b.Put([]byte("t1"), []byte("x"))
	b.Put([]byte("t2"), []byte("y"))
	b.Put([]byte("t3"), []byte("z"))
	if err := f.Apply(b, true); !errors.Is(err, ErrTornBatch) {
		t.Fatalf("torn apply: %v, want ErrTornBatch", err)
	}
	re, err := f.Reopen()
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got := faultPairs(t, re)
	if len(got) != 1 || got["t1"] != "x" {
		t.Fatalf("torn image = %v, want exactly the 1-op prefix", got)
	}
}

func TestFaultCrashAtApplySweep(t *testing.T) {
	// Crashing at apply k must leave exactly the first k-1 batches.
	for crash := 1; crash <= 4; crash++ {
		f := NewFault(NewMem())
		f.CrashAtApply(crash)
		applied := 0
		for i := 1; i <= 4; i++ {
			err := applyPut(t, f, true, fmt.Sprintf("k%d", i), "v")
			if err != nil {
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("crash=%d apply %d: %v", crash, i, err)
				}
				break
			}
			applied++
		}
		if applied != crash-1 {
			t.Fatalf("crash=%d: %d applies succeeded, want %d", crash, applied, crash-1)
		}
		re, err := f.Reopen()
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := faultPairs(t, re); len(got) != crash-1 {
			t.Fatalf("crash=%d: reopened image has %d keys (%v), want %d", crash, len(got), got, crash-1)
		}
	}
}

func TestFaultLatency(t *testing.T) {
	f := NewFault(NewMem())
	f.SetLatency(20 * time.Millisecond)
	start := time.Now()
	if err := applyPut(t, f, true, "a", "1"); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("apply returned in %v, want injected latency >= 20ms", d)
	}
}
