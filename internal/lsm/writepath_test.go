package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/leaktest"
)

// Tests of the write path's boundaries: the memtable hand-over to the
// flush worker, recycled WAL segments, the sync ahead of the memtable
// insert, and what a crash or a failure at each of them leaves behind.

// The tests here call leaktest.Check first, before any Open: an open DB
// owns exactly one goroutine (the flush worker), a closed one none.

// applyPuts applies one synced batch of puts and records it in model.
func applyPuts(t *testing.T, d *DB, model map[string]string, kvs ...string) {
	t.Helper()
	b := kv.NewBatch(len(kvs) / 2)
	for i := 0; i < len(kvs); i += 2 {
		b.Put([]byte(kvs[i]), []byte(kvs[i+1]))
	}
	if err := d.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(kvs); i += 2 {
		model[kvs[i]] = kvs[i+1]
	}
}

// fillMemtable applies synced single-put batches until the next Apply will
// switch memtables, and returns how many it applied.
func fillMemtable(t *testing.T, d *DB, model map[string]string, prefix string) int {
	t.Helper()
	n := 0
	for ; d.Stats().MemBytes < d.opts.MemtableBytes; n++ {
		applyPuts(t, d, model, fmt.Sprintf("%s%04d", prefix, n), fmt.Sprintf("value-of-%s%04d", prefix, n))
	}
	return n
}

func liveWALs(t *testing.T, dir string) []uint64 {
	t.Helper()
	wals, _, _, err := listFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	return wals
}

// TestRecycledSegmentsCarryAckedWritesAcrossReopen: a writer crossing
// several flushes runs on recycled log files from the third generation
// on, never holds more than the two live logs plus the retired one, and a
// reopen — replaying a recycled segment with a previous life behind its
// records — finds exactly what was acknowledged.
func TestRecycledSegmentsCarryAckedWritesAcrossReopen(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	d, err := Open(dir, Options{MemtableBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	for gen := 0; gen < 6; gen++ {
		fillMemtable(t, d, model, fmt.Sprintf("g%d-", gen%3)) // later generations overwrite earlier ones
		applyPuts(t, d, model, "switch", fmt.Sprint(gen))
		if n := len(liveWALs(t, dir)); n > 3 {
			t.Fatalf("%d wal files on disk, want at most 3 (active, immutable, retired)", n)
		}
	}
	st := d.Stats()
	if st.WALSegmentsRecycled < 4 || st.Flushes < 5 {
		t.Fatalf("stats %+v: want 6 switches to recycle from the third on and 5 flushes done", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	expectAll(t, d2, model)
}

// TestBackgroundFlushFailureThenCrashReplaysBothLogs: a manifest failure
// in the flush worker latches the fail-stop state — the next write gets
// the wrapped ErrDBFailed, the immutable memtable keeps serving reads and
// is never flushed — and the crash that follows leaves two live logs,
// the immutable memtable's and the active one's, which recovery replays
// in that order to exactly the acknowledged writes.
func TestBackgroundFlushFailureThenCrashReplaysBothLogs(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	d, err := Open(dir, Options{MemtableBytes: 8 << 10, DisableAutoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	acked := fillMemtable(t, d, model, "k")

	// The worker is idle; break the manifest under it.
	d.mu.Lock()
	d.manifest.f.Close()
	d.mu.Unlock()

	// This Apply switches memtables and lands in the new log. It is
	// acknowledged whether or not the flush it started has failed yet, and
	// overwrites a key of the immutable memtable: replay order matters.
	applyPuts(t, d, model, "k0000", "overwritten-in-the-second-log", "tail", "1")
	acked++

	// Drain: the only thing left to wait for is the failure.
	if err := d.Flush(); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("Flush after a failed background flush = %v, want ErrDBFailed", err)
	}
	b := kv.NewBatch(1)
	b.Put([]byte("refused"), []byte("x"))
	if err := d.Apply(b, true); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("Apply after a failed background flush = %v, want wrapped ErrDBFailed", err)
	}
	if st := d.Stats(); st.Flushes != 0 {
		t.Fatalf("%d flushes installed through a dead manifest", st.Flushes)
	}
	expectAll(t, d, model) // memtable + immutable memtable still serve
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if wals := liveWALs(t, dir); len(wals) != 2 {
		t.Fatalf("wal files after the crash: %v, want the immutable memtable's and the active log", wals)
	}

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	expectAll(t, d2, model)
	if st := d2.Stats(); st.WALRecordsRecovered != acked {
		t.Fatalf("replayed %d records, %d batches were acknowledged", st.WALRecordsRecovered, acked)
	}
}

// TestCrashTwoLiveLogsTornSecond: the same two-log footprint with a crash
// mid-append in the second log, the second log being a recycled file:
// the first log replays whole, the second up to its torn record, and
// neither the torn record nor the previous life behind it comes back.
func TestCrashTwoLiveLogsTornSecond(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	crashPut(t, dir, map[string]string{"a": "first-log", "b": "first-log"})
	first := liveWALs(t, dir)
	if len(first) != 1 {
		t.Fatalf("wal files %v, want one", first)
	}
	second := first[0] + 1

	// The file the second log recycles: a retired log's records.
	old, err := newWALWriter(walPath(dir, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := old.append(putPayload(fmt.Sprintf("ghost%d", i), "previous-life"), false); err != nil {
			t.Fatal(err)
		}
	}
	old.close()
	w, err := recycleWAL(dir, 1, second)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(putPayload("a", "second-log"), false); err != nil {
		t.Fatal(err)
	}
	if err := w.append(encodeBatchPayload(nil, []walOp{{kind: kindDelete, key: []byte("b")}}), false); err != nil {
		t.Fatal(err)
	}
	tornAt := w.off
	if err := w.append(putPayload("torn", "never-acked"), true); err != nil {
		t.Fatal(err)
	}
	w.close()
	flipByte(t, walPath(dir, second), tornAt+walHeaderLen+2)

	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	expectAll(t, d, map[string]string{"a": "second-log"})
	if st := d.Stats(); st.WALRecordsRecovered != 4 || st.WALTornTails != 1 {
		t.Fatalf("recovered %d records / %d torn tails, want 4 / 1", st.WALRecordsRecovered, st.WALTornTails)
	}
}

// TestCrashBetweenRecycleRenameAndFirstRecord: the switch has renamed the
// retired file to the new log number and crashed before the first append.
// The new log is all previous life; recovery must read it as empty — not
// as data, not as corruption, not even as a torn tail.
func TestCrashBetweenRecycleRenameAndFirstRecord(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	want := map[string]string{"a": "1", "b": "2"}
	crashPut(t, dir, want)
	live := liveWALs(t, dir)

	old, err := newWALWriter(walPath(dir, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.append(putPayload("a", "previous-life"), false); err != nil {
		t.Fatal(err)
	}
	if err := old.append(putPayload("ghost", "previous-life"), true); err != nil {
		t.Fatal(err)
	}
	old.close()
	w, err := recycleWAL(dir, 1, live[len(live)-1]+1)
	if err != nil {
		t.Fatal(err)
	}
	w.close()

	if _, err := VerifyDir(dir); err != nil {
		t.Fatalf("verify reads the renamed segment as damage: %v", err)
	}
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open reads the renamed segment as damage: %v", err)
	}
	defer d.Close()
	expectAll(t, d, want)
	if st := d.Stats(); st.WALTornTails != 0 || st.WALRecordsRecovered != 2 {
		t.Fatalf("recovered %d records / %d torn tails, want 2 / 0", st.WALRecordsRecovered, st.WALTornTails)
	}
}

// TestFailStopSyncFailureLeavesMemtableUntouched: the device fails the sync
// of a written batch. The call returns the cause, the DB is failed for
// good, the batch never reaches the memtable — reads of the failed DB do
// not see it — nothing is flushed, and a reopen after the crash finds the
// synced prefix only.
func TestFailStopSyncFailureLeavesMemtableUntouched(t *testing.T) {
	leaktest.Check(t)
	const perBatch = 64
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(tag string) *kv.Batch {
		b := kv.NewBatch(perBatch)
		for i := 0; i < perBatch; i++ {
			b.Put([]byte(fmt.Sprintf("%s-%03d", tag, i)), []byte(tag))
		}
		return b
	}
	if err := d.Apply(batch("acked"), true); err != nil {
		t.Fatal(err)
	}
	synced := d.wal.off
	before := d.Stats()

	eio := errors.New("EIO")
	d.wal.datasync = func(*os.File) error { return eio }
	if err := d.Apply(batch("unacked"), true); !errors.Is(err, eio) || errors.Is(err, ErrDBFailed) {
		t.Fatalf("Apply with a failing sync = %v, want the raw cause", err)
	}
	if err := d.Err(); !errors.Is(err, ErrDBFailed) || !errors.Is(err, eio) {
		t.Fatalf("DB.Err() = %v, want ErrDBFailed wrapping the cause", err)
	}
	if err := d.Apply(batch("later"), true); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("write on the failed DB = %v, want ErrDBFailed", err)
	}
	if err := d.Flush(); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("Flush on the failed DB = %v, want ErrDBFailed", err)
	}
	if _, ok, err := d.Get([]byte("acked-000")); err != nil || !ok {
		t.Fatalf("read of the failed DB: ok=%t err=%v", ok, err)
	}
	for _, k := range []string{"unacked-000", "unacked-063", "later-000"} {
		if _, ok, err := d.Get([]byte(k)); err != nil || ok {
			t.Fatalf("the failed DB serves %s of a batch it never acknowledged (ok=%t err=%v)", k, ok, err)
		}
	}
	if st := d.Stats(); st.MemKeys != before.MemKeys || st.MemBytes != before.MemBytes {
		t.Fatalf("memtable moved under the failed sync: %d keys / %d bytes, before %d / %d",
			st.MemKeys, st.MemBytes, before.MemKeys, before.MemBytes)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ssts, _, err := listFiles(dir); err != nil || len(ssts) != 0 {
		t.Fatalf("tables on disk after the failure: %v (%v) — the failed DB flushed", ssts, err)
	}

	// The crash: what was written but never synced is gone.
	wals := liveWALs(t, dir)
	if err := os.Truncate(walPath(dir, wals[len(wals)-1]), synced); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	n, err := kv.Len(d2)
	if err != nil || n != perBatch {
		t.Fatalf("%d keys after reopen (%v), want the %d of the synced batch", n, err, perBatch)
	}
	if _, ok, _ := d2.Get([]byte("unacked-000")); ok {
		t.Fatal("the unacknowledged batch survived the reopen")
	}
}

// TestApplyNeverAliasesBatchKeys: the commit path hands Apply keys it
// "owns" (Batch.PutOwned) yet rebuilds them in one reused arena every
// tenure, so the memtable must hold copies. Every batch here is built in
// the same arena, which is scribbled over as soon as Apply returns; an
// aliased key would change under the memtable, which the flush worker
// reports as "sstable keys out of order" a few hundred batches later, or
// which reads back as a lost row after the reopen.
func TestApplyNeverAliasesBatchKeys(t *testing.T) {
	leaktest.Check(t)
	const batches, perBatch = 1200, 8
	dir := t.TempDir()
	d, err := Open(dir, Options{MemtableBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	key := func(dst []byte, i int) []byte {
		return fmt.Appendf(dst, "s/state0/key-%07d", i*7919%(batches*perBatch))
	}
	value := func(dst []byte, i int) []byte { return fmt.Appendf(dst, "value-of-%d", i) }
	arena := make([]byte, 0, perBatch*64) // never regrown: every batch aliases the same bytes
	batch := kv.NewBatch(perBatch)
	for b := 0; b < batches; b++ {
		arena = arena[:0]
		batch.Reset()
		for i := b * perBatch; i < (b+1)*perBatch; i++ {
			k := len(arena)
			arena = key(arena, i)
			v := len(arena)
			arena = value(arena, i)
			batch.PutOwned(arena[k:v:v], arena[v:len(arena):len(arena)])
		}
		if err := d.Apply(batch, b%64 == 0); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		for i := range arena {
			arena[i] = '#'
		}
	}
	if st := d.Stats(); st.Flushes < 2 {
		t.Fatalf("%d flushes, the run was meant to cross at least two", st.Flushes)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); err != nil {
		t.Fatalf("verify after close: %v", err)
	}
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for i := 0; i < batches*perBatch; i++ {
		v, ok, err := d2.Get(key(nil, i))
		if err != nil || !ok || string(v) != string(value(nil, i)) {
			t.Fatalf("key %d after reopen: %q ok=%t err=%v", i, v, ok, err)
		}
	}
	if n, err := kv.Len(d2); err != nil || n != batches*perBatch {
		t.Fatalf("%d keys after reopen (%v), want %d", n, err, batches*perBatch)
	}
}

// TestStressImmutableMemtableReadersAndClose: one writer crossing at least
// twenty flushes (and the compactions they trigger) while readers check
// that every acknowledged write is visible to Get and Scan at all times —
// through the active memtable, the immutable one and the tables it turns
// into — then a Close racing the worker's last flush, and a reopen.
func TestStressImmutableMemtableReadersAndClose(t *testing.T) {
	leaktest.Check(t)
	batches := 500
	if testing.Short() {
		batches = 200
	}
	const perBatch = 8
	dir := t.TempDir()
	opts := smallOpts()
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%07d", i)) }
	var acked atomic.Int64 // keys [0, acked) are acknowledged
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := int(acked.Load())
				if n == 0 {
					runtime.Gosched()
					continue
				}
				i := rng.Intn(n)
				v, ok, err := d.Get(key(i))
				if err != nil || !ok || string(v) != fmt.Sprint(i) {
					t.Errorf("Get of acknowledged key %d: %q ok=%t err=%v", i, v, ok, err)
					return
				}
			}
		}(int64(r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := int(acked.Load())
			seen := 0
			err := d.Scan(nil, nil, func(k, v []byte) bool {
				if seen < n && string(k) != string(key(seen)) {
					t.Errorf("Scan: key %d of %d acknowledged is %q", seen, n, k)
					return false
				}
				seen++
				return true
			})
			if err != nil || seen < n {
				t.Errorf("Scan saw %d keys with %d acknowledged (%v)", seen, n, err)
				return
			}
		}
	}()

	written := 0
	write := func() {
		batch := kv.NewBatch(perBatch)
		for j := 0; j < perBatch; j++ {
			batch.Put(key(written+j), []byte(fmt.Sprint(written+j)))
		}
		if err := d.Apply(batch, written%(16*perBatch) == 0); err != nil {
			t.Fatal(err)
		}
		written += perBatch
		acked.Store(int64(written))
	}
	for b := 0; b < batches; b++ {
		write()
	}
	close(stop)
	wg.Wait()
	st := d.Stats()
	if st.Flushes < 20 || st.WALSegmentsRecycled == 0 {
		t.Fatalf("stats %+v: the run was meant to cross at least 20 flushes on recycled segments", st)
	}
	// Hand the worker one more memtable and close on top of its flush.
	for d.Stats().MemBytes < opts.MemtableBytes {
		write()
	}
	write()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if n, err := kv.Len(d2); err != nil || n != written {
		t.Fatalf("%d keys after reopen (%v), want %d", n, err, written)
	}
}
