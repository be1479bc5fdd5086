package lsm

import (
	"errors"
	"os"
	"strings"
	"testing"

	"sistream/internal/leaktest"
)

// These tests reconstruct the on-disk footprints a crash leaves at each
// window of the flush/compaction sequence — SSTable written but manifest
// not yet appended, manifest appended but the old WAL not yet unlinked,
// WAL append torn mid-record — and assert that Open recovers exactly the
// committed data: orphans ignored and removed, stale logs not replayed,
// torn tails classified as expected tails rather than corruption.

// crashPut opens a DB, applies the puts durably and closes it — leaving
// the data in the WAL (Close never flushes), the canonical pre-crash
// state for the scenarios below.
func crashPut(t *testing.T, dir string, kvs map[string]string) {
	t.Helper()
	d, err := Open(dir, Options{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range kvs {
		if err := d.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// expectAll asserts that the DB serves exactly the committed map.
func expectAll(t *testing.T, d *DB, want map[string]string) {
	t.Helper()
	got := map[string]string{}
	if err := d.Scan(nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("recovered %q=%q, want %q", k, got[k], v)
		}
	}
}

// TestCrashBetweenSSTableWriteAndManifest: a crash after flushLocked has
// fully written (and synced) the new SSTable but before the manifest edit
// leaves an orphan .sst next to a WAL that still holds the data. Recovery
// must take the WAL as truth: replay it, ignore the orphan and remove it.
func TestCrashBetweenSSTableWriteAndManifest(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	want := map[string]string{"a": "1", "b": "2", "c": "3"}
	crashPut(t, dir, want)

	// Forge the orphan: a real, well-formed SSTable under a file number the
	// manifest has never heard of, with DIFFERENT (uncommitted) contents —
	// exactly what a half-completed flush of a later memtable would leave.
	orphan := sstPath(dir, 99)
	b, err := newTableBuilder(orphan, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.add([]byte("zz-uncommitted"), []byte("ghost"), kindPut)
	if _, _, _, _, err := b.finish(); err != nil {
		t.Fatal(err)
	}

	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	expectAll(t, d, want)
	if _, ok, _ := d.Get([]byte("zz-uncommitted")); ok {
		t.Fatal("orphan SSTable's uncommitted data leaked into recovery")
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan SSTable not garbage-collected: %v", err)
	}
}

// TestCrashBeforeOldWALRemoval: a crash after the manifest records the
// new log number but before the obsolete WAL is unlinked leaves a stale
// lower-numbered log on disk. Its contents are already in an SSTable (or
// were superseded); recovery must NOT replay it — double-applying old
// deletes or resurrecting overwritten values — and must remove it.
func TestCrashBeforeOldWALRemoval(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	d, err := Open(dir, Options{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	// Flush moves "k"="old" into an SSTable, rotates the WAL and unlinks
	// the old one; the overwrite below lives only in the new WAL.
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("k"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	d.mu.RLock()
	liveWAL := d.walNum
	d.mu.RUnlock()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Resurrect a stale log OLDER than the manifest's recorded LogNum,
	// holding a value that must not come back.
	stale, err := newWALWriter(walPath(dir, liveWAL-1), liveWAL-1)
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.append(encodeBatchPayload(nil, []walOp{
		{kind: kindPut, key: []byte("k"), value: []byte("resurrected")},
		{kind: kindPut, key: []byte("ghost"), value: []byte("x")},
	}), true); err != nil {
		t.Fatal(err)
	}
	stale.close()

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	expectAll(t, d2, map[string]string{"k": "new"})
	if _, err := os.Stat(walPath(dir, liveWAL-1)); !os.IsNotExist(err) {
		t.Fatalf("stale WAL not garbage-collected: %v", err)
	}
	if st := d2.Stats(); st.WALTornTails != 0 {
		t.Fatalf("clean logs misclassified: %d torn tails", st.WALTornTails)
	}
}

// TestCrashTornWALAfterFlush: the full sequence — flushed history in
// SSTables, then fresh commits in the live WAL, then a crash that tears
// the final append. Recovery must keep the tables AND the durable WAL
// prefix, discard only the torn record, and classify it as a torn tail
// (expected crash shape), not corruption.
func TestCrashTornWALAfterFlush(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	d, err := Open(dir, Options{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("flushed"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("walled"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	d.mu.RLock()
	liveWAL := d.walNum
	d.mu.RUnlock()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear: append a record and chop it mid-payload.
	path := walPath(dir, liveWAL)
	w := reopenWAL(t, path)
	if err := w.append(encodeBatchPayload(nil, []walOp{
		{kind: kindPut, key: []byte("torn"), value: []byte("never-acked")},
	}), true); err != nil {
		t.Fatal(err)
	}
	w.close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	expectAll(t, d2, map[string]string{"flushed": "1", "walled": "2"})
	st := d2.Stats()
	if st.WALTornTails != 1 {
		t.Fatalf("torn tail not classified: %d", st.WALTornTails)
	}
	if st.WALRecordsRecovered == 0 {
		t.Fatal("durable WAL prefix not replayed")
	}
}

// TestCrashDuringCompactionLeavesOrphans: a crash mid-compaction leaves
// fully written output tables that the manifest never adopted. They are
// byte-identical duplicates of live data under unreferenced numbers;
// recovery must ignore and remove them without disturbing the inputs.
func TestCrashDuringCompactionLeavesOrphans(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	want := map[string]string{}
	d, err := Open(dir, Options{SyncWrites: true, DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		k, v := string(rune('a'+i)), string(rune('0'+i))
		want[k] = v
		if err := d.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil { // three L0 tables
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The orphaned compaction output: a merged table of all live data,
	// written under a fresh number but never installed.
	b, err := newTableBuilder(sstPath(dir, 500), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		b.add([]byte(k), []byte(want[k]), kindPut)
	}
	if _, _, _, _, err := b.finish(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	expectAll(t, d2, want)
	if _, err := os.Stat(sstPath(dir, 500)); !os.IsNotExist(err) {
		t.Fatalf("orphan compaction output not removed: %v", err)
	}
	// And the survivor still compacts cleanly afterwards.
	if err := d2.Compact(); err != nil {
		t.Fatal(err)
	}
	expectAll(t, d2, want)
}

// TestBlockCorruptionSurfacesOnRead: a flipped bit inside a data block
// must turn reads of that block into errCorrupt — never a silently wrong
// value — while the DB still opens (the damage is found lazily, exactly
// like a real latent sector error).
func TestBlockCorruptionSurfacesOnRead(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("key"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	var sstNum uint64
	d.mu.RLock()
	sstNum = d.cur.levels[0][0].num
	d.mu.RUnlock()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the first data block (offset 0 is inside it).
	path := sstPath(dir, sstNum)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, _, err := d2.Get([]byte("key")); !errors.Is(err, errCorrupt) {
		t.Fatalf("read of corrupt block = %v, want errCorrupt", err)
	}
}

// TestVerifyDirCleanAndCorrupt: the offline verifier passes a healthy
// directory (reporting its shape) and pinpoints a corrupted data block,
// an orphaned table and mid-WAL corruption without ever opening the DB.
func TestVerifyDirCleanAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := d.Put([]byte{byte('a' + i%26), byte(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("in-wal"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	var sstNum uint64
	d.mu.RLock()
	sstNum = d.cur.levels[0][0].num
	d.mu.RUnlock()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("clean dir failed verify: %v", err)
	}
	if rep.Tables != 1 || rep.Blocks == 0 || rep.Entries != 50 {
		t.Fatalf("unexpected report %+v", rep)
	}
	if rep.WALRecords == 0 {
		t.Fatal("live WAL records not counted")
	}
	if len(rep.OrphanTables) != 0 {
		t.Fatalf("phantom orphans: %v", rep.OrphanTables)
	}

	// An orphan is reported, not failed.
	if err := os.WriteFile(sstPath(dir, 777), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OrphanTables) != 1 || rep.OrphanTables[0] != 777 {
		t.Fatalf("orphan not reported: %+v", rep)
	}
	os.Remove(sstPath(dir, 777))

	// Corrupt one byte of the live table's first data block: verify must
	// fail and name the block.
	path := sstPath(dir, sstNum)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), "block") {
		t.Fatalf("verify of corrupt block = %v, want errCorrupt naming the block", err)
	}
	data[1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Mid-WAL corruption (records after the damage) must fail strictly.
	wals, _, _, err := listFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	wal := walPath(dir, wals[len(wals)-1])
	wdata, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	w := reopenWAL(t, wal)
	if err := w.append(encodeBatchPayload(nil, []walOp{{kind: kindPut, key: []byte("after"), value: []byte("y")}}), true); err != nil {
		t.Fatal(err)
	}
	w.close()
	wdata2, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	wdata2[len(wdata)-1] ^= 0xff // damage the previously-last record's payload
	if err := os.WriteFile(wal, wdata2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); !errors.Is(err, errCorrupt) {
		t.Fatalf("verify of mid-corrupt WAL = %v, want errCorrupt", err)
	}
}
