package lsm

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/leaktest"
)

// TestWALWriterStickyError: after a failed write or sync the WAL writer
// must keep returning the original error — the file's durable contents
// are unknown, so reporting success later would be a lie.
func TestWALWriterStickyError(t *testing.T) {
	dir := t.TempDir()
	w, err := newWALWriter(filepath.Join(dir, "000001.wal"), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the fd so the next write fails like a dying disk.
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}
	first := w.append([]byte("payload"), true)
	if first == nil {
		t.Fatal("append on closed fd succeeded")
	}
	// Sticky: subsequent appends and syncs return the SAME error without
	// touching the file.
	if err := w.append([]byte("more"), false); !errors.Is(err, first) && err.Error() != first.Error() {
		t.Fatalf("second append = %v, want the latched %v", err, first)
	}
	if err := w.sync(); err == nil || err.Error() != first.Error() {
		t.Fatalf("sync after failure = %v, want the latched %v", err, first)
	}
}

// TestWALWriterStickySyncError: a failed fsync (not just a failed write)
// must latch too — the fsyncgate shape, where the write itself succeeded
// into the page cache.
func TestWALWriterStickySyncError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "000001.wal")
	w, err := newWALWriter(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append([]byte("ok"), false); err != nil {
		t.Fatal(err)
	}
	// Swap the fd for a read-only one: writes hit EBADF, and so does
	// fsync on some platforms; either way the first failure must latch.
	w.f.Close()
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	w.f = ro
	first := w.append([]byte("doomed"), true)
	if first == nil {
		t.Fatal("append through read-only fd succeeded")
	}
	if err := w.sync(); err == nil || err.Error() != first.Error() {
		t.Fatalf("sync after failure = %v, want latched %v", err, first)
	}
	if w.err == nil {
		t.Fatal("writer error not latched")
	}
}

// TestDBFailStopOnWALError: a WAL failure poisons the DB — writes fail
// fast with a wrapped ErrDBFailed, reads keep serving.
func TestDBFailStopOnWALError(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if err := applyPut(d, []byte("k"), []byte("v"), false); err != nil {
		t.Fatal(err)
	}
	// Kill the WAL fd underneath the DB: the next write must fail and
	// enter the sticky failed state.
	d.mu.Lock()
	d.wal.f.Close()
	d.mu.Unlock()

	first := applyPut(d, []byte("k2"), []byte("v2"), false)
	if first == nil {
		t.Fatal("write on dead WAL succeeded")
	}
	if errors.Is(first, ErrDBFailed) {
		t.Fatalf("first error should be the raw cause, got wrapped: %v", first)
	}
	if err := d.Err(); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("DB.Err() = %v, want ErrDBFailed", err)
	}

	// Subsequent writes fail fast with the wrapped sticky error.
	if err := applyPut(d, []byte("k3"), []byte("v3"), false); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("write on failed DB = %v, want ErrDBFailed", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("Sync on failed DB = %v, want ErrDBFailed", err)
	}
	if err := d.Flush(); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("Flush on failed DB = %v, want ErrDBFailed", err)
	}
	if err := d.Compact(); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("Compact on failed DB = %v, want ErrDBFailed", err)
	}

	// Graceful degradation: reads still serve the pre-failure state.
	if v, ok, err := d.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("read on failed DB: %q %v %v", v, ok, err)
	}
	n := 0
	if err := d.Scan(nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatalf("scan on failed DB: %v", err)
	}
	if n != 1 {
		t.Fatalf("scan saw %d keys, want 1", n)
	}
	_ = d.Stats()

	// The failed write must not be visible (it never reached the WAL).
	if _, ok, _ := d.Get([]byte("k2")); ok {
		t.Fatal("failed write visible to reads")
	}
}

// TestDBFailStopViaFaultStore: the kv.Fault wrapper drives the same
// fail-stop path from outside — an injected sticky sync error on the
// inner store makes Apply fail; the DB is the inner store here, so this
// exercises Fault over lsm (the tentpole requires both backends).
func TestDBFailStopViaFaultStore(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := kv.NewFault(d)
	defer f.Close()

	b := kv.NewBatch(1)
	b.Put([]byte("a"), []byte("1"))
	if err := f.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	badDisk := errors.New("EIO")
	f.FailSyncAt(1, badDisk)
	b2 := kv.NewBatch(1)
	b2.Put([]byte("b"), []byte("2"))
	if err := f.Apply(b2, true); !errors.Is(err, badDisk) {
		t.Fatalf("apply = %v, want injected EIO", err)
	}
	// Crash + reopen: only the synced prefix survives in the LSM.
	re, err := f.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := re.Get([]byte("b")); ok {
		t.Fatal("unsynced write survived the crash")
	}
	if v, ok, _ := re.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("synced write lost: %q %v", v, ok)
	}
}
