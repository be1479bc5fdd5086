package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"sistream/internal/kv"
)

func TestEmptyAndLargeValues(t *testing.T) {
	d := testDB(t, Options{})
	if err := applyPut(d, []byte("empty"), []byte{}, false); err != nil {
		t.Fatal(err)
	}
	v, ok, err := d.Get([]byte("empty"))
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value: %v %v %v", v, ok, err)
	}
	big := bytes.Repeat([]byte("x"), 1<<20) // 1 MiB value, spans many blocks
	if err := applyPut(d, []byte("big"), big, false); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	got, ok, err := d.Get([]byte("big"))
	if err != nil || !ok || !bytes.Equal(got, big) {
		t.Fatalf("big value corrupted: len=%d ok=%v err=%v", len(got), ok, err)
	}
}

func TestBinaryKeys(t *testing.T) {
	d := testDB(t, smallOpts())
	keys := [][]byte{
		{0},
		{0, 0},
		{0, 1},
		{0xff},
		{0xff, 0xff},
		[]byte("mixed\x00key"),
	}
	for i, k := range keys {
		if err := applyPut(d, k, []byte{byte(i)}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, ok, err := d.Get(k)
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("binary key %x: %v %v %v", k, v, ok, err)
		}
	}
	var got [][]byte
	if err := d.Scan(nil, nil, func(k, _ []byte) bool {
		got = append(got, append([]byte(nil), k...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("binary keys out of order: %x then %x", got[i-1], got[i])
		}
	}
}

func TestManifestRotationOnReopen(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 4; round++ {
		d, err := Open(dir, smallOpts())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 0; i < 300; i++ {
			if err := applyPut(d, []byte(fmt.Sprintf("r%d-k%03d", round, i)), []byte("v"), false); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		// Exactly one manifest and one CURRENT must remain.
		_, _, manifests, err := listFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(manifests) != 1 {
			t.Fatalf("round %d: %d manifests on disk", round, len(manifests))
		}
	}
	d, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	n, err := kv.Len(d)
	if err != nil || n != 1200 {
		t.Fatalf("final count %d, %v", n, err)
	}
}

func TestCurrentFileCorruption(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	applyPut(d, []byte("k"), []byte("v"), false)
	d.Close()
	if err := os.WriteFile(currentPath(dir), []byte("GARBAGE\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt CURRENT accepted")
	}
}

func TestOrphanFilesCleanedOnOpen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	applyPut(d, []byte("k"), []byte("v"), false)
	d.Flush()
	d.Close()
	// Drop an orphan SSTable and WAL that no manifest references.
	orphanSST := sstPath(dir, 999999)
	if err := os.WriteFile(orphanSST, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphanWAL := walPath(dir, 999998)
	if err := os.WriteFile(orphanWAL, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := os.Stat(orphanSST); !os.IsNotExist(err) {
		t.Fatal("orphan sstable survived open")
	}
	if _, err := os.Stat(orphanWAL); !os.IsNotExist(err) {
		t.Fatal("orphan wal survived open")
	}
	if v, ok, _ := d2.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatal("cleanup destroyed live data")
	}
}

// TestPropertyIteratorSeek: table iterator seek agrees with a sorted
// reference for random key sets and probes.
func TestPropertyIteratorSeek(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "t.sst")
		b, err := newTableBuilder(path, 128)
		if err != nil {
			return false
		}
		n := rng.Intn(200) + 1
		keys := make([]string, 0, n)
		seen := map[string]bool{}
		for len(keys) < n {
			k := fmt.Sprintf("key-%04d", rng.Intn(5000))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		sortStrings(keys)
		for _, k := range keys {
			b.add([]byte(k), []byte("v"), kindPut)
		}
		if _, _, _, _, err := b.finish(); err != nil {
			return false
		}
		r, err := openTable(path, 0)
		if err != nil {
			return false
		}
		defer r.close()
		it := r.iterator()
		for probe := 0; probe < 30; probe++ {
			target := fmt.Sprintf("key-%04d", rng.Intn(5200))
			it.seek([]byte(target))
			// Reference: first key >= target.
			var want string
			for _, k := range keys {
				if k >= target {
					want = k
					break
				}
			}
			if want == "" {
				if it.next() {
					t.Logf("seek(%q) found %q, want exhausted", target, it.key())
					return false
				}
				continue
			}
			if !it.next() || string(it.key()) != want {
				t.Logf("seek(%q) -> %q, want %q", target, it.key(), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestDeleteHeavyCompaction: tombstones dominate and must be dropped at
// the bottom level, shrinking the store.
func TestDeleteHeavyCompaction(t *testing.T) {
	d := testDB(t, smallOpts())
	for i := 0; i < 2000; i++ {
		if err := applyPut(d, []byte(fmt.Sprintf("k%05d", i)), bytes.Repeat([]byte("v"), 32), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := applyDelete(d, []byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	n, err := kv.Len(d)
	if err != nil || n != 0 {
		t.Fatalf("store not empty after delete+compact: %d, %v", n, err)
	}
	st := d.Stats()
	var total uint64
	for _, b := range st.LevelBytes {
		total += b
	}
	// A couple of nearly-empty tables may remain but the bulk must be gone.
	if total > 64<<10 {
		t.Fatalf("tombstones not reclaimed: %d bytes on disk", total)
	}
}

func TestWALSyncDurabilityBoundary(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Unsynced write followed by synced write: both must be in the WAL
	// (sync flushes everything before it).
	if err := applyPut(d, []byte("unsynced"), []byte("1"), false); err != nil {
		t.Fatal(err)
	}
	b := kv.NewBatch(1)
	b.Put([]byte("synced"), []byte("2"))
	if err := d.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	d.wal.f.Close() // crash
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, k := range []string{"unsynced", "synced"} {
		if _, ok, _ := d2.Get([]byte(k)); !ok {
			t.Fatalf("%s lost despite preceding fsync", k)
		}
	}
}
