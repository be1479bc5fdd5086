package lsm

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

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
// package comment for the on-disk architecture.
type DB struct {
	dir  string
	opts Options

	// writeMu serializes the write path (WAL append + memtable insert +
	// flush/compaction). Held for the full duration of Apply.
	writeMu sync.Mutex

	// mu guards the fields below. Readers take RLock briefly to snapshot
	// (memtable, version) and then work lock-free on the snapshot.
	mu          sync.RWMutex
	mem         *memtable
	cur         *version
	wal         *walWriter
	walNum      uint64
	nextFileNum uint64
	manifest    *manifestWriter
	manifestNum uint64
	compactPtr  [numLevels][]byte
	closed      bool

	// failure, when non-nil, is the sticky fail-stop record: a write-path
	// error of unknowable durable effect happened and the DB refuses all
	// further writes (see ErrDBFailed). Set once via CAS; never cleared.
	failure atomic.Pointer[dbFailure]

	// cache is the shared data-block LRU (nil when disabled).
	cache *blockCache

	// stats
	flushes     int
	compactions int
	// WAL recovery counters, set once at Open: durable records replayed
	// and torn final records (partial appends from a crash) discarded.
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
	d := &DB{dir: dir, opts: opts, mem: newMemtable(), cur: newVersion(), nextFileNum: 1,
		cache: newBlockCache(opts.BlockCacheBlocks)}

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

	// Replay any WALs at or after logNum into the memtable, oldest first.
	wals, ssts, manifests, err := listFiles(dir)
	if err != nil {
		return nil, err
	}
	replayed := false
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
		replayed = true
	}

	// Start a fresh manifest so old edits are compacted away.
	if err := d.rotateManifest(); err != nil {
		return nil, err
	}
	// Fresh WAL for new writes.
	if err := d.rotateWAL(); err != nil {
		return nil, err
	}
	// If recovery found WAL data, persist it as an SSTable now so the old
	// WALs can be removed and the state is clean.
	if replayed && d.mem.len() > 0 {
		if err := d.flushLocked(); err != nil {
			return nil, err
		}
	} else {
		// Record the current log number so recovery ignores older WALs.
		if err := d.manifest.append(&versionEdit{LogNum: d.walNum, NextFileNum: d.nextFileNum}); err != nil {
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
		if num != d.walNum {
			os.Remove(walPath(dir, num))
		}
	}
	for _, num := range manifests {
		if num != d.manifestNum {
			os.Remove(manifestPath(dir, num))
		}
	}
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

// rotateWAL closes the current WAL (if any) and opens a fresh one.
func (d *DB) rotateWAL() error {
	num := d.nextFileNum
	d.nextFileNum++
	w, err := newWALWriter(walPath(d.dir, num))
	if err != nil {
		return err
	}
	if d.wal != nil {
		d.wal.close()
	}
	d.wal = w
	d.walNum = num
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
// everything else.
func (d *DB) checkWrite() error {
	d.mu.RLock()
	err := d.checkOpen()
	d.mu.RUnlock()
	if err != nil {
		return err
	}
	return d.Err()
}

// Get implements kv.Store.
func (d *DB) Get(key []byte) ([]byte, bool, error) {
	d.mu.RLock()
	if err := d.checkOpen(); err != nil {
		d.mu.RUnlock()
		return nil, false, err
	}
	if v, kind, found := d.mem.get(key); found {
		// Copy out: the memtable buffer may be overwritten in place.
		var out []byte
		if kind == kindPut {
			out = append([]byte(nil), v...)
		}
		d.mu.RUnlock()
		if kind == kindDelete {
			return nil, false, nil
		}
		return out, true, nil
	}
	v := d.cur
	v.ref()
	d.mu.RUnlock()
	defer v.unref()
	value, kind, found, err := v.get(key)
	if err != nil || !found || kind == kindDelete {
		return nil, false, err
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

// Apply implements kv.Store: one WAL record, then the memtable, then a
// flush + compaction round if the memtable is full. The batch is durable
// on return when sync is true.
func (d *DB) Apply(b *kv.Batch, sync bool) error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()

	if err := d.checkWrite(); err != nil {
		return err
	}

	if err := d.wal.appendBatch(b.Ops(), sync); err != nil {
		// Fail-stop: the WAL's durable contents are now unknown (the
		// writer's sticky error, see walWriter); no later write may
		// report success on top of it.
		return d.fail(err)
	}

	d.mu.Lock()
	for _, op := range b.Ops() {
		d.mem.set(op.Key, op.Value, walKind(op.Kind))
	}
	full := d.mem.approximateBytes() >= d.opts.MemtableBytes
	d.mu.Unlock()

	if full {
		if err := d.flushLocked(); err != nil {
			return d.fail(err)
		}
		if !d.opts.DisableAutoCompaction {
			if err := d.maybeCompact(); err != nil {
				return d.fail(err)
			}
		}
	}
	return nil
}

// flushLocked writes the memtable to an L0 SSTable, rotates the WAL and
// installs the edit. Caller must hold writeMu (or be the only goroutine,
// as during Open).
func (d *DB) flushLocked() error {
	d.mu.Lock()
	mem := d.mem
	if mem.len() == 0 {
		d.mu.Unlock()
		return nil
	}
	num := d.nextFileNum
	d.nextFileNum++
	d.mu.Unlock()

	b, err := newTableBuilder(sstPath(d.dir, num), d.opts.BlockBytes)
	if err != nil {
		return err
	}
	it := mem.iterator()
	for it.seekToFirst(); it.valid(); it.next() {
		b.add(it.key(), it.value(), it.kind())
	}
	count, smallest, largest, size, err := b.finish()
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

	d.mu.Lock()
	defer d.mu.Unlock()
	oldWAL := d.walNum
	if err := d.rotateWAL(); err != nil {
		return err
	}
	edit := &versionEdit{
		LogNum: d.walNum,
		AddFiles: []editFile{{
			Level: 0, Num: num, Size: size, Count: count,
			Smallest: fm.smallest, Largest: fm.largest,
		}},
	}
	if err := d.applyEdit(edit, []*fileMeta{fm}); err != nil {
		return err
	}
	d.mem = newMemtable()
	d.flushes++
	os.Remove(walPath(d.dir, oldWAL))
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
		d.mu.Lock()
		d.compactions++
		d.mu.Unlock()
	}
}

// Flush forces the memtable to disk; exposed for tests and tooling.
func (d *DB) Flush() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if err := d.checkWrite(); err != nil {
		return err
	}
	if err := d.flushLocked(); err != nil {
		return d.fail(err)
	}
	if !d.opts.DisableAutoCompaction {
		if err := d.maybeCompact(); err != nil {
			return d.fail(err)
		}
	}
	return nil
}

// Compact forces a full compaction: the memtable is flushed and every
// populated level is merged downward until all data lives in a single
// level, dropping every droppable tombstone. Exposed for tooling
// (lsmtool compact) and tests.
func (d *DB) Compact() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if err := d.checkWrite(); err != nil {
		return err
	}
	if err := d.flushLocked(); err != nil {
		return d.fail(err)
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
			d.mu.Lock()
			d.compactions++
			d.mu.Unlock()
		}
	}
	return nil
}

// Scan implements kv.Store. It merges the memtable with all table levels
// and yields live (non-tombstone) entries in ascending key order.
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
	sources = append(sources, &mergeSource{it: &memIterAdapter{it: d.mem.iterator()}, age: age})
	age++
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

// Sync implements kv.Store: it fsyncs the active WAL. A sync failure is
// fail-stop (see ErrDBFailed) — the kernel may drop dirty pages after
// reporting it, so retrying could silently lose acknowledged writes.
func (d *DB) Sync() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if err := d.checkWrite(); err != nil {
		return err
	}
	d.mu.RLock()
	w := d.wal
	d.mu.RUnlock()
	if err := w.sync(); err != nil {
		return d.fail(err)
	}
	return nil
}

// Close implements kv.Store. It does NOT flush the memtable: unflushed but
// WAL-durable writes are recovered on the next Open, which is exactly the
// crash-consistency path and keeps Close cheap.
func (d *DB) Close() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return kv.ErrClosed
	}
	d.closed = true
	d.wal.close()
	d.manifest.close()
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
	// the memtable by this Open; WALTornTails counts logs whose final
	// record was torn (a crash mid-append — the partial record was never
	// acknowledged durable and is discarded, which is the expected
	// crash-recovery shape, surfaced here so operators can tell it apart
	// from silence). Mid-file corruption is NOT a counter: it fails the
	// Open (see lsmtool wal-dump --skip-corrupt for salvage).
	WALRecordsRecovered int
	WALTornTails        int
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
	}
	s.BlockCacheHits, s.BlockCacheMisses = d.cache.stats()
	s.BlockCacheBlocks = d.cache.len()
	for l, level := range d.cur.levels {
		s.LevelFiles[l] = len(level)
		s.LevelBytes[l] = d.cur.levelBytes(l)
	}
	return s
}
