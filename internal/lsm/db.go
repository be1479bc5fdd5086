package lsm

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sistream/internal/kv"
)

// ErrDBFailed is the sticky fail-stop error of a failed DB: after any
// WAL, flush, manifest, compaction or sync error the durable state is
// unknowable, so every subsequent write returns an error wrapping this
// sentinel (and the original cause) while reads keep serving — graceful
// degradation to read-only until the process restarts and recovery
// rebuilds from what actually reached disk.
var ErrDBFailed = errors.New("lsm: db failed (fail-stop)")

// dbFailure records the first fatal error; wrapped is precomputed so the
// hot-path health check stays allocation-free.
type dbFailure struct {
	cause   error
	wrapped error
}

// Options configures a DB. The zero value is usable; unset fields take the
// defaults below.
type Options struct {
	// SyncWrites makes single-op Put/Delete durable before returning.
	// Batched Apply takes an explicit per-call sync flag, matching the
	// paper's setup where transactional commits are the synchronous unit.
	SyncWrites bool
	// MemtableBytes is the flush threshold (default 4 MiB).
	MemtableBytes int
	// BlockBytes is the SSTable data-block size (default 4 KiB).
	BlockBytes int
	// L0CompactionTrigger is the L0 table count that triggers compaction
	// (default 4).
	L0CompactionTrigger int
	// BaseLevelBytes is the size budget of level 1 (default 8 MiB);
	// level l holds BaseLevelBytes * LevelMultiplier^(l-1).
	BaseLevelBytes uint64
	// LevelMultiplier is the per-level growth factor (default 10).
	LevelMultiplier int
	// MaxOutputBytes caps individual compaction output tables
	// (default 2 MiB).
	MaxOutputBytes uint64
	// DisableAutoCompaction turns off flush-triggered compaction; tests
	// use it to construct specific layouts.
	DisableAutoCompaction bool
	// BlockCacheBlocks is the capacity of the shared data-block LRU cache
	// serving point lookups, in blocks (default 256 — 1 MiB at the
	// default block size). Negative disables caching.
	BlockCacheBlocks int
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes == 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.BlockBytes == 0 {
		o.BlockBytes = defaultBlockLen
	}
	if o.L0CompactionTrigger == 0 {
		o.L0CompactionTrigger = 4
	}
	if o.BaseLevelBytes == 0 {
		o.BaseLevelBytes = 8 << 20
	}
	if o.LevelMultiplier == 0 {
		o.LevelMultiplier = 10
	}
	if o.MaxOutputBytes == 0 {
		o.MaxOutputBytes = 2 << 20
	}
	if o.BlockCacheBlocks == 0 {
		o.BlockCacheBlocks = 256
	}
	return o
}

// DB is a persistent key-value store implementing kv.Store. See the
// package comment for the on-disk architecture and the concurrency model.
type DB struct {
	dir  string
	opts Options

	// writeMu serializes the writers: Apply, Sync, Flush, Compact and
	// Close. It covers the WAL writer and the hand-over of a full memtable
	// to the flush worker; the worker itself never takes it.
	writeMu sync.Mutex

	// mu guards the fields below. Readers take RLock briefly to snapshot
	// (memtable, immutable memtable, version) and then work lock-free on
	// the snapshot; memtable inserts take it exclusively.
	mu  sync.RWMutex
	mem *memtable
	// imm is the full memtable the worker is writing to an L0 table, nil
	// when there is none; it is never modified. immLog is its log, retired
	// once the table is installed (0 for the open-time flush, whose logs
	// Open removes itself).
	imm         *memtable
	immLog      uint64
	cur         *version
	wal         *walWriter
	walNum      uint64
	retiredWAL  uint64 // a flushed generation's log file kept for recycling; 0: none
	nextFileNum uint64
	manifest    *manifestWriter
	manifestNum uint64
	compactPtr  [numLevels][]byte
	closed      bool

	// The flush worker (background) sleeps on bgCond (over mu) until imm
	// is set or the DB closes; it broadcasts when a flush is installed and
	// when it goes idle. bgBusy is set while it flushes and compacts;
	// bgDone is closed when it has exited.
	bgCond *sync.Cond
	bgBusy bool
	bgDone chan struct{}

	// failure, when non-nil, is the sticky fail-stop record: a write-path
	// error of unknowable durable effect happened and the DB refuses all
	// further writes (see ErrDBFailed). Set once via CAS; never cleared.
	failure atomic.Pointer[dbFailure]

	// cache is the shared data-block LRU (nil when disabled).
	cache *blockCache

	// Table-building scratch, kept empty between uses: flushOrder is the
	// array flushImm sorts a memtable's entries in, tableHashes the one a
	// table builder collects its keys' bloom hashes in. Only one table is
	// built at a time — by the flush worker, or by Compact while the
	// worker is idle.
	flushOrder  []memEntry
	tableHashes []uint32

	// stats
	flushes         int
	compactions     int
	flushNanos      int64
	compactionNanos int64
	walsRecycled    int
	writeStalls     int
	// Scan counts its orderings under the read latch, hence atomics.
	memOrderings  atomic.Int64
	memOrderNanos atomic.Int64
	// WAL recovery counters, set once at Open: durable records replayed
	// and logs that ended in a record failing validation.
	walRecovered int
	walTornTails int
}

var _ kv.Store = (*DB)(nil)

// Open opens (creating if necessary) a DB in dir.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &DB{dir: dir, opts: opts, mem: newMemtableSized(opts.MemtableBytes), cur: newVersion(), nextFileNum: 1,
		cache:  newBlockCache(opts.BlockCacheBlocks),
		bgDone: make(chan struct{})}
	d.bgCond = sync.NewCond(&d.mu)

	manifestNum, haveCurrent, err := readCurrent(dir)
	if err != nil {
		return nil, err
	}
	var logNum uint64
	if haveCurrent {
		logNum, err = d.recoverManifest(manifestNum)
		if err != nil {
			return nil, err
		}
	}

	// Replay the WALs at or after logNum into the memtable, oldest first:
	// after a crash with a flush under way that is two logs, the immutable
	// memtable's and then the active one's.
	wals, ssts, manifests, err := listFiles(dir)
	if err != nil {
		return nil, err
	}
	// File numbers are handed out while an edit is on its way to the
	// manifest, so the recorded NextFileNum can trail what is on disk.
	for _, nums := range [][]uint64{wals, ssts, manifests} {
		if n := len(nums); n > 0 && nums[n-1] >= d.nextFileNum {
			d.nextFileNum = nums[n-1] + 1
		}
	}
	for _, num := range wals {
		if num < logNum {
			continue
		}
		st, err := replayWAL(walPath(dir, num), func(ops []walOp) error {
			for _, op := range ops {
				d.mem.set(op.key, op.value, op.kind)
			}
			return nil
		})
		d.walRecovered += st.records
		if st.tornTail {
			d.walTornTails++
		}
		if err != nil {
			return nil, fmt.Errorf("lsm: replay wal %d: %w", num, err)
		}
	}

	// Start a fresh manifest so old edits are compacted away.
	if err := d.rotateManifest(); err != nil {
		return nil, err
	}
	// A new log for new writes: never a recycled one, so Open pays for no
	// rename and writes nothing ahead of need.
	replayed := d.mem
	d.walNum = d.nextFileNum
	d.nextFileNum++
	if d.wal, err = d.openWAL(d.walNum, 0); err != nil {
		return nil, err
	}
	if replayed.len() > 0 {
		// Persist what recovery found as an SSTable now, so the old WALs
		// can be removed and the state is clean.
		d.imm, d.mem = replayed, newMemtableSized(opts.MemtableBytes)
		if err := d.flushImm(); err != nil {
			return nil, err
		}
	} else {
		// Record the current log number so recovery ignores older WALs.
		if err := d.logEdit(&versionEdit{LogNum: d.walNum}); err != nil {
			return nil, err
		}
	}

	// Garbage-collect files that are not referenced by the live state.
	live := map[uint64]bool{}
	for _, level := range d.cur.levels {
		for _, f := range level {
			live[f.num] = true
		}
	}
	for _, num := range ssts {
		if !live[num] {
			os.Remove(sstPath(dir, num))
		}
	}
	for _, num := range wals {
		os.Remove(walPath(dir, num))
	}
	for _, num := range manifests {
		if num != d.manifestNum {
			os.Remove(manifestPath(dir, num))
		}
	}
	go d.background()
	return d, nil
}

// recoverManifest rebuilds the version from the manifest and returns the
// recorded log number.
func (d *DB) recoverManifest(num uint64) (logNum uint64, err error) {
	type slot struct {
		ef editFile
	}
	files := map[uint64]slot{}
	levelOf := map[uint64]int{}
	err = readManifest(manifestPath(d.dir, num), func(e *versionEdit) error {
		if e.LogNum > logNum {
			logNum = e.LogNum
		}
		if e.NextFileNum > d.nextFileNum {
			d.nextFileNum = e.NextFileNum
		}
		for _, ref := range e.DelFiles {
			delete(files, ref.Num)
			delete(levelOf, ref.Num)
		}
		for _, ef := range e.AddFiles {
			files[ef.Num] = slot{ef}
			levelOf[ef.Num] = ef.Level
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("lsm: recover manifest: %w", err)
	}
	for fnum, s := range files {
		reader, err := openTable(sstPath(d.dir, fnum), fnum, d.cache)
		if err != nil {
			return 0, fmt.Errorf("lsm: recover table %d: %w", fnum, err)
		}
		fm := &fileMeta{
			num: fnum, size: s.ef.Size, count: s.ef.Count,
			smallest: s.ef.Smallest, largest: s.ef.Largest,
			reader: reader, dir: d.dir,
		}
		fm.ref()
		d.cur.levels[levelOf[fnum]] = append(d.cur.levels[levelOf[fnum]], fm)
	}
	for l := range d.cur.levels {
		d.cur.sortLevel(l)
	}
	return logNum, nil
}

// rotateManifest starts a new manifest containing a full snapshot of the
// current version and repoints CURRENT at it.
func (d *DB) rotateManifest() error {
	num := d.nextFileNum
	d.nextFileNum++
	mw, err := newManifestWriter(manifestPath(d.dir, num))
	if err != nil {
		return err
	}
	snapshot := &versionEdit{Comparator: "bytes", NextFileNum: d.nextFileNum}
	for l, level := range d.cur.levels {
		for _, f := range level {
			snapshot.AddFiles = append(snapshot.AddFiles, editFile{
				Level: l, Num: f.num, Size: f.size, Count: f.count,
				Smallest: f.smallest, Largest: f.largest,
			})
		}
	}
	if err := mw.append(snapshot); err != nil {
		mw.close()
		return err
	}
	if err := writeCurrent(d.dir, num); err != nil {
		mw.close()
		return err
	}
	if d.manifest != nil {
		d.manifest.close()
		os.Remove(manifestPath(d.dir, d.manifestNum))
	}
	d.manifest = mw
	d.manifestNum = num
	return nil
}

// openWAL opens the file of log num — the retired log recycle renamed to
// it, or a new file when recycle is 0 — and makes the name durable before
// anything in the log can be acknowledged: a record synced into a file
// whose (re)name a crash forgets would be lost with it.
func (d *DB) openWAL(num, recycle uint64) (w *walWriter, err error) {
	if recycle != 0 {
		w, err = recycleWAL(d.dir, recycle, num)
	} else {
		w, err = newWALWriter(walPath(d.dir, num), num)
	}
	if err != nil {
		return nil, err
	}
	if err := syncDir(d.dir); err != nil {
		w.close()
		return nil, fmt.Errorf("lsm: sync dir for wal %d: %w", num, err)
	}
	return w, nil
}

// switchMemtable makes the active memtable the immutable one, handing it
// to the flush worker, and starts a new memtable on a new log — a
// recycled file when a flushed generation has left one. It waits first
// if the previous immutable memtable is still being flushed, the only
// stall a writer can meet. The old log stays on disk until its memtable
// is in a table; it is synced here if anything in it is not, so that
// nothing the new log acknowledges can outlive a write that preceded it.
// Caller holds writeMu.
func (d *DB) switchMemtable() error {
	d.mu.Lock()
	if d.imm != nil {
		d.writeStalls++
		for d.imm != nil && d.Err() == nil {
			d.bgCond.Wait()
		}
	}
	if err := d.Err(); err != nil {
		d.mu.Unlock()
		return err
	}
	num := d.nextFileNum
	d.nextFileNum++
	recycle := d.retiredWAL
	d.retiredWAL = 0
	old := d.wal
	d.mu.Unlock()

	if old.unsynced {
		if err := old.sync(); err != nil {
			return err
		}
	}
	w, err := d.openWAL(num, recycle)
	if err != nil {
		return err
	}
	old.close()

	d.mu.Lock()
	d.imm, d.immLog = d.mem, d.walNum
	d.mem = newMemtableSized(d.opts.MemtableBytes)
	d.wal, d.walNum = w, num
	if recycle != 0 {
		d.walsRecycled++
	}
	d.bgCond.Broadcast()
	d.mu.Unlock()
	return nil
}

func (d *DB) checkOpen() error {
	if d.closed {
		return kv.ErrClosed
	}
	return nil
}

// Err reports the DB's sticky fail-stop state: nil while healthy,
// otherwise an error wrapping both ErrDBFailed and the original cause.
// Once non-nil it never clears; reads keep serving, writes are refused.
func (d *DB) Err() error {
	if f := d.failure.Load(); f != nil {
		return f.wrapped
	}
	return nil
}

// fail latches err as the DB's fail-stop cause (first error wins) and
// returns it unchanged, so the failing operation surfaces the real error
// while every later write gets the wrapped sticky one.
func (d *DB) fail(err error) error {
	d.failure.CompareAndSwap(nil, &dbFailure{
		cause:   err,
		wrapped: fmt.Errorf("%w: %w", ErrDBFailed, err),
	})
	return err
}

// checkWrite gates the write path: closed beats failed, failed beats
// everything else. full reports a memtable at its flush threshold.
func (d *DB) checkWrite() (full bool, err error) {
	d.mu.RLock()
	err = d.checkOpen()
	full = d.mem.approximateBytes() >= d.opts.MemtableBytes
	d.mu.RUnlock()
	if err == nil {
		err = d.Err()
	}
	return full, err
}

// Get implements kv.Store: the memtable, then the immutable memtable,
// then the levels — newest data first.
func (d *DB) Get(key []byte) ([]byte, bool, error) {
	d.mu.RLock()
	if err := d.checkOpen(); err != nil {
		d.mu.RUnlock()
		return nil, false, err
	}
	value, kind, found := d.mem.get(key)
	if found {
		// Copy out under the latch: the memtable may overwrite in place.
		value = append([]byte(nil), value...)
	}
	imm := d.imm
	v := d.cur
	v.ref()
	d.mu.RUnlock()
	defer v.unref()
	if !found && imm != nil {
		if value, kind, found = imm.get(key); found {
			value = append([]byte(nil), value...)
		}
	}
	if !found {
		var err error
		if value, kind, found, err = v.get(key); err != nil {
			return nil, false, err
		}
	}
	if !found || kind == kindDelete {
		return nil, false, nil
	}
	return value, true, nil
}

// Put implements kv.Store.
func (d *DB) Put(key, value []byte) error {
	b := kv.NewBatch(1)
	b.Put(key, value)
	return d.Apply(b, d.opts.SyncWrites)
}

// Delete implements kv.Store.
func (d *DB) Delete(key []byte) error {
	b := kv.NewBatch(1)
	b.Delete(key)
	return d.Apply(b, d.opts.SyncWrites)
}

// Apply implements kv.Store: one WAL record, with sync one data-only sync
// that makes the batch durable, then the memtable — a hash probe and a
// copy per operation, on the caller's goroutine whatever the batch size.
// A full memtable is handed to the flush worker first (see
// switchMemtable), so neither a flush nor a compaction, nor putting any
// keys in order, runs inside Apply.
//
// Fail-stop: a failed WAL write and a failed sync both leave the memtable
// untouched — reads of the failed DB never see the unacknowledged batch,
// and a reopen recovers the synced prefix only.
func (d *DB) Apply(b *kv.Batch, sync bool) error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()

	full, err := d.checkWrite()
	if err != nil {
		return err
	}
	if full {
		if err := d.switchMemtable(); err != nil {
			return d.fail(err)
		}
	}

	ops := b.Ops()
	if err := d.wal.appendBatch(ops); err != nil {
		// Fail-stop: the WAL's durable contents are now unknown (the
		// writer's sticky error, see walWriter); no later write may
		// report success on top of it.
		return d.fail(err)
	}
	if sync {
		if err := d.wal.sync(); err != nil {
			return d.fail(err)
		}
	}
	d.mu.Lock()
	for _, op := range ops {
		d.mem.set(op.Key, op.Value, walKind(op.Kind))
	}
	d.mu.Unlock()
	return nil
}

// orderedIter returns an iterator over m, which puts its keys in order
// first, into buf's storage; Stats reports how often that happened and
// how long it took.
func (d *DB) orderedIter(m *memtable, buf []memEntry) *memIterator {
	start := time.Now()
	it := m.iterator(buf)
	d.memOrderings.Add(1)
	d.memOrderNanos.Add(int64(time.Since(start)))
	return it
}

// background is the flush worker: it writes each immutable memtable to an
// L0 table, installs the edit, retires the memtable's log and runs the
// compactions the new table makes due. It exits when the DB is closed
// (after flushing a memtable still waiting) or has failed.
func (d *DB) background() {
	defer close(d.bgDone)
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		for d.imm == nil && !d.closed {
			d.bgCond.Wait()
		}
		if d.imm == nil || d.Err() != nil {
			return
		}
		d.bgBusy = true
		d.mu.Unlock()
		err := d.flushImm()
		if err == nil && !d.opts.DisableAutoCompaction {
			err = d.maybeCompact()
		}
		if err != nil {
			d.fail(fmt.Errorf("lsm: flush worker: %w", err))
		}
		d.mu.Lock()
		d.bgBusy = false
		d.bgCond.Broadcast()
	}
}

// flushImm writes the immutable memtable to an L0 SSTable, installs the
// edit (which moves the manifest's log number past the memtable's log)
// and retires that log. Only the flush worker calls it, and Open before
// the worker exists.
func (d *DB) flushImm() error {
	start := time.Now()
	d.mu.Lock()
	imm, immLog, logNum := d.imm, d.immLog, d.walNum
	num := d.nextFileNum
	d.nextFileNum++
	d.mu.Unlock()

	b, err := newTableBuilder(sstPath(d.dir, num), d.opts.BlockBytes)
	if err != nil {
		return err
	}
	b.hashes = d.tableHashes
	it := d.orderedIter(imm, d.flushOrder)
	for it.seekToFirst(); it.valid(); it.next() {
		b.add(it.key(), it.value(), it.kind())
	}
	// Keep the array for the next flush, not the entries: they point into
	// this memtable's storage.
	clear(it.sorted)
	d.flushOrder = it.sorted[:0]
	count, smallest, largest, size, err := b.finish()
	d.tableHashes = b.hashes[:0]
	if err != nil {
		return err
	}
	reader, err := openTable(sstPath(d.dir, num), num, d.cache)
	if err != nil {
		return err
	}
	fm := &fileMeta{
		num: num, size: size, count: count,
		smallest: append([]byte(nil), smallest...),
		largest:  append([]byte(nil), largest...),
		reader:   reader, dir: d.dir,
	}
	// The active log cannot change while imm is set, so logNum still
	// names it: every older log is covered by the new table.
	edit := &versionEdit{
		LogNum: logNum,
		AddFiles: []editFile{{
			Level: 0, Num: num, Size: size, Count: count,
			Smallest: fm.smallest, Largest: fm.largest,
		}},
	}
	if err := d.logEdit(edit); err != nil {
		return err
	}

	d.mu.Lock()
	d.installEdit(edit, []*fileMeta{fm})
	d.imm = nil
	d.flushes++
	d.flushNanos += int64(time.Since(start))
	// The flushed memtable's log becomes the next switch's file. The slot
	// is free: the switch that made this memtable immutable emptied it.
	if immLog != 0 {
		d.retiredWAL = immLog
	}
	d.bgCond.Broadcast()
	d.mu.Unlock()
	return nil
}

// maybeCompact runs compactions until the shape invariants hold.
func (d *DB) maybeCompact() error {
	for {
		d.mu.RLock()
		level := d.pickCompaction()
		d.mu.RUnlock()
		if level < 0 {
			return nil
		}
		if err := d.compact(level); err != nil {
			return err
		}
	}
}

// drain flushes the memtable (when it holds anything) and waits until the
// flush worker has nothing left to do, reporting the sticky failure if
// the DB failed meanwhile. Caller holds writeMu, so the worker stays idle
// afterwards for as long as the caller keeps it.
func (d *DB) drain() error {
	d.mu.RLock()
	empty := d.mem.len() == 0
	d.mu.RUnlock()
	if !empty {
		if err := d.switchMemtable(); err != nil {
			return d.fail(err)
		}
	}
	d.mu.Lock()
	for (d.imm != nil || d.bgBusy) && d.Err() == nil {
		d.bgCond.Wait()
	}
	d.mu.Unlock()
	return d.Err()
}

// Flush forces the memtable to disk (and runs the compactions that makes
// due); exposed for tests and tooling.
func (d *DB) Flush() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if _, err := d.checkWrite(); err != nil {
		return err
	}
	return d.drain()
}

// Compact forces a full compaction: the memtable is flushed and every
// populated level is merged downward until all data lives in a single
// level, dropping every droppable tombstone. Exposed for tooling
// (lsmtool compact) and tests.
func (d *DB) Compact() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if _, err := d.checkWrite(); err != nil {
		return err
	}
	if err := d.drain(); err != nil {
		return err
	}
	for level := 0; level < numLevels-1; level++ {
		for {
			d.mu.RLock()
			n := len(d.cur.levels[level])
			deeper := false
			for l := level + 1; l < numLevels; l++ {
				if len(d.cur.levels[l]) > 0 {
					deeper = true
				}
			}
			d.mu.RUnlock()
			// Stop when the level is empty, or it is the bottom-most
			// populated level (nothing to merge into).
			if n == 0 || (!deeper && level > 0) {
				break
			}
			if err := d.compact(level); err != nil {
				return d.fail(err)
			}
		}
	}
	return nil
}

// Scan implements kv.Store. It merges the memtable, the immutable memtable
// and all table levels and yields live (non-tombstone) entries in
// ascending key order. The memtables are unordered, so each Scan first
// sorts a private copy of their entries (Stats.MemOrderings).
//
// The scan holds the database read lock for its whole duration, so fn must
// not call back into the DB. Transactional reads in this repository are
// served by the MVCC layer above, which maintains its own versioned view;
// base-table scans happen during recovery and tooling only.
func (d *DB) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.checkOpen(); err != nil {
		return err
	}
	var sources []*mergeSource
	age := 0
	sources = append(sources, &mergeSource{it: &memIterAdapter{it: d.orderedIter(d.mem, nil)}, age: age})
	age++
	if d.imm != nil {
		sources = append(sources, &mergeSource{it: &memIterAdapter{it: d.orderedIter(d.imm, nil)}, age: age})
		age++
	}
	for _, f := range d.cur.levels[0] {
		sources = append(sources, &mergeSource{it: f.reader.iterator(), age: age})
		age++
	}
	for l := 1; l < numLevels; l++ {
		for _, f := range d.cur.levels[l] {
			sources = append(sources, &mergeSource{it: f.reader.iterator(), age: age})
		}
		age++
	}
	merge := newMergingIterator(sources, start)
	for merge.next() {
		if end != nil && kv.CompareKeys(merge.key(), end) >= 0 {
			break
		}
		if merge.kind() == kindDelete {
			continue
		}
		if !fn(merge.key(), merge.value()) {
			break
		}
	}
	return nil
}

// Sync implements kv.Store: it syncs the active WAL (an older log still
// on disk was synced when it was switched away from). A sync failure is
// fail-stop (see ErrDBFailed) — the kernel may drop dirty pages after
// reporting it, so retrying could silently lose acknowledged writes.
func (d *DB) Sync() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if _, err := d.checkWrite(); err != nil {
		return err
	}
	if err := d.wal.sync(); err != nil {
		return d.fail(err)
	}
	return nil
}

// Close implements kv.Store. It does NOT flush the memtable: unflushed but
// WAL-durable writes are recovered on the next Open, which is exactly the
// crash-consistency path and keeps Close cheap. A flush already handed to
// the worker is finished first; the worker has exited when Close returns.
func (d *DB) Close() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return kv.ErrClosed
	}
	d.closed = true
	d.bgCond.Broadcast()
	d.mu.Unlock()
	<-d.bgDone

	d.mu.Lock()
	defer d.mu.Unlock()
	d.wal.close()
	d.manifest.close()
	if d.retiredWAL != 0 {
		os.Remove(walPath(d.dir, d.retiredWAL))
	}
	d.cur.unref()
	d.cur = newVersion() // keep pointer valid for stragglers
	return nil
}

// Stats reports operational counters for tooling and tests.
type Stats struct {
	Flushes     int
	Compactions int
	LevelFiles  [numLevels]int
	LevelBytes  [numLevels]uint64
	MemBytes    int
	MemKeys     int
	// BlockCacheHits / BlockCacheMisses count point-lookup block fetches
	// served from / missed by the shared block cache.
	BlockCacheHits   uint64
	BlockCacheMisses uint64
	// BlockCacheBlocks is the current number of cached blocks.
	BlockCacheBlocks int
	// WALRecordsRecovered counts the durable WAL records replayed into
	// the memtable by this Open; WALTornTails counts logs that ended in a
	// record failing validation (a crash mid-append, or in a recycled
	// segment the remains of its previous life — never acknowledged
	// durable either way and discarded, which is the expected
	// crash-recovery shape, surfaced here so operators can tell it apart
	// from silence). Mid-file corruption is NOT a counter: it fails the
	// Open (see lsmtool wal-dump --skip-corrupt for salvage).
	WALRecordsRecovered int
	WALTornTails        int
	// WALSegmentsRecycled counts memtable switches whose new log reused a
	// retired log file instead of creating one. WriteStalls counts
	// switches that had to wait for the previous memtable's flush — the
	// only time a writer waits for the flush worker.
	WALSegmentsRecycled int
	WriteStalls         int
	// FlushNanos and CompactionNanos are the cumulative wall time of all
	// memtable flushes and of all compactions.
	FlushNanos      int64
	CompactionNanos int64
	// MemOrderings counts the iterators built over a memtable, each of
	// which sorts the memtable's keys (one per flush, one per memtable a
	// Scan reads), and MemOrderNanos is the cumulative wall time of that
	// sorting: the work an insert leaves undone. A flush's share is part of
	// FlushNanos too.
	MemOrderings  int64
	MemOrderNanos int64
}

// Stats returns a snapshot of internal counters.
func (d *DB) Stats() Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s := Stats{
		Flushes:             d.flushes,
		Compactions:         d.compactions,
		MemBytes:            d.mem.approximateBytes(),
		MemKeys:             d.mem.len(),
		WALRecordsRecovered: d.walRecovered,
		WALTornTails:        d.walTornTails,
		WALSegmentsRecycled: d.walsRecycled,
		WriteStalls:         d.writeStalls,
		FlushNanos:          d.flushNanos,
		CompactionNanos:     d.compactionNanos,
		MemOrderings:        d.memOrderings.Load(),
		MemOrderNanos:       d.memOrderNanos.Load(),
	}
	s.BlockCacheHits, s.BlockCacheMisses = d.cache.stats()
	s.BlockCacheBlocks = d.cache.len()
	for l, level := range d.cur.levels {
		s.LevelFiles[l] = len(level)
		s.LevelBytes[l] = d.cur.levelBytes(l)
	}
	return s
}
