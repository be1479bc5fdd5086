package lsm

import (
	"bytes"
	"fmt"
	"time"
)

// Compaction policy (leveled, LevelDB-style, simplified):
//
//   - Level 0 is compacted into level 1 when it accumulates
//     opts.L0CompactionTrigger tables. All L0 tables participate (they may
//     overlap), together with the overlapping L1 tables.
//   - Level l >= 1 is compacted when its total size exceeds
//     maxBytesForLevel(l). One table is picked round-robin by key range
//     (the compaction pointer) and merged with the overlapping tables of
//     level l+1.
//   - Tombstones are dropped when the compaction writes into the deepest
//     level that contains any data for the key range — at that point no
//     older value can be shadowed.
//
// Compactions run on the flush worker right after a flush (DB.background)
// — off the writer's path, one at a time — or, for a forced full
// compaction, on the caller of DB.Compact, which drains the worker first
// and keeps writers out. Either way exactly one goroutine changes the
// table layout at any time.

// maxBytesForLevel returns the size budget of level l (l >= 1).
func (d *DB) maxBytesForLevel(l int) uint64 {
	max := d.opts.BaseLevelBytes
	for i := 1; i < l; i++ {
		max *= uint64(d.opts.LevelMultiplier)
	}
	return max
}

// pickCompaction chooses the next compaction, or level=-1 if none needed.
// Called with d.mu held.
func (d *DB) pickCompaction() (level int) {
	if len(d.cur.levels[0]) >= d.opts.L0CompactionTrigger {
		return 0
	}
	for l := 1; l < numLevels-1; l++ {
		if d.cur.levelBytes(l) > d.maxBytesForLevel(l) {
			return l
		}
	}
	return -1
}

// compact runs one compaction from the given level. Called WITHOUT d.mu,
// by the one goroutine that may change the table layout (see the policy
// comment above), so the layout cannot change under it. Readers share
// the version via refcounts.
func (d *DB) compact(level int) error {
	start := time.Now()
	d.mu.Lock()
	v := d.cur
	v.ref()

	var inputs, lowerInputs []*fileMeta
	var smallest, largest []byte
	if level == 0 {
		inputs = append(inputs, v.levels[0]...)
		for _, f := range inputs {
			smallest = minKey(smallest, f.smallest)
			largest = maxKey(largest, f.largest)
		}
	} else {
		files := v.levels[level]
		if len(files) == 0 {
			d.mu.Unlock()
			v.unref()
			return nil
		}
		// Round-robin pick: first file with smallest key after the
		// compaction pointer, wrapping around.
		idx := 0
		if ptr := d.compactPtr[level]; ptr != nil {
			for i, f := range files {
				if bytes.Compare(f.smallest, ptr) > 0 {
					idx = i
					break
				}
			}
		}
		f := files[idx]
		inputs = []*fileMeta{f}
		smallest, largest = f.smallest, f.largest
		d.compactPtr[level] = append([]byte(nil), f.smallest...)
	}
	lowerInputs = v.overlapping(level+1, smallest, largest)
	for _, f := range lowerInputs {
		smallest = minKey(smallest, f.smallest)
		largest = maxKey(largest, f.largest)
	}
	// Can tombstones be dropped? Only if no deeper level holds data
	// overlapping the compaction key range.
	dropTombstones := true
	for l := level + 2; l < numLevels; l++ {
		if len(v.overlapping(l, smallest, largest)) > 0 {
			dropTombstones = false
			break
		}
	}
	d.mu.Unlock()

	if len(inputs) == 0 {
		v.unref()
		return nil
	}

	// Build the merge: lower age shadows higher. Inputs from `level` are
	// newer than inputs from level+1. Within L0, newer file numbers are
	// newer data (version keeps them sorted newest-first already).
	var sources []*mergeSource
	age := 0
	for _, f := range inputs {
		sources = append(sources, &mergeSource{it: f.reader.iterator(), age: age})
		age++
	}
	for _, f := range lowerInputs {
		sources = append(sources, &mergeSource{it: f.reader.iterator(), age: age})
		age++
	}
	merge := newMergingIterator(sources, nil)

	outputs, err := d.writeCompactionOutputs(merge, dropTombstones)
	if err != nil {
		v.unref()
		return err
	}

	// Install the edit.
	edit := &versionEdit{}
	for _, f := range inputs {
		edit.DelFiles = append(edit.DelFiles, editFileRef{Level: level, Num: f.num})
	}
	for _, f := range lowerInputs {
		edit.DelFiles = append(edit.DelFiles, editFileRef{Level: level + 1, Num: f.num})
	}
	for _, out := range outputs {
		edit.AddFiles = append(edit.AddFiles, editFile{
			Level: level + 1, Num: out.num, Size: out.size, Count: out.count,
			Smallest: out.smallest, Largest: out.largest,
		})
	}

	err = d.logEdit(edit)
	d.mu.Lock()
	defer d.mu.Unlock()
	v.unref()
	if err != nil {
		return err
	}
	d.installEdit(edit, outputs)
	d.compactions++
	d.compactionNanos += int64(time.Since(start))
	return nil
}

// logEdit appends a flush or compaction edit to the manifest and syncs it.
// Called WITHOUT d.mu — the sync must not hold up readers and memtable
// inserts — by the one goroutine that may change the table layout, so
// appends never interleave.
func (d *DB) logEdit(edit *versionEdit) error {
	d.mu.RLock()
	edit.NextFileNum = d.nextFileNum
	d.mu.RUnlock()
	if err := d.manifest.append(edit); err != nil {
		return fmt.Errorf("lsm: manifest append: %w", err)
	}
	return nil
}

// installEdit makes a logged edit visible: swaps in the new version and
// retires replaced files. Called with d.mu.
func (d *DB) installEdit(edit *versionEdit, outputs []*fileMeta) {
	nv := d.cur.clone()
	drop := func(l int, num uint64) {
		files := nv.levels[l]
		for i, f := range files {
			if f.num == num {
				f.obsolete.Store(true)
				f.unref()
				nv.levels[l] = append(append([]*fileMeta(nil), files[:i]...), files[i+1:]...)
				return
			}
		}
	}
	for _, ref := range edit.DelFiles {
		drop(ref.Level, ref.Num)
	}
	for i, ef := range edit.AddFiles {
		fm := outputs[i]
		fm.ref() // version's reference
		nv.levels[ef.Level] = append(nv.levels[ef.Level], fm)
		nv.sortLevel(ef.Level)
	}
	old := d.cur
	d.cur = nv
	old.unref()
}

// writeCompactionOutputs drains the merge into one or more SSTables,
// splitting at opts.MaxOutputBytes.
func (d *DB) writeCompactionOutputs(merge *mergingIterator, dropTombstones bool) ([]*fileMeta, error) {
	var outputs []*fileMeta
	var b *tableBuilder
	var bNum uint64
	closeCurrent := func() error {
		if b == nil {
			return nil
		}
		count, smallest, largest, size, err := b.finish()
		if err != nil {
			return err
		}
		if count == 0 {
			// finish on an empty builder still writes a file; avoid it
			// by never creating empty builders (guarded below).
			return nil
		}
		reader, err := openTable(sstPath(d.dir, bNum), bNum)
		if err != nil {
			return err
		}
		fm := &fileMeta{
			num: bNum, size: size, count: count,
			smallest: append([]byte(nil), smallest...),
			largest:  append([]byte(nil), largest...),
			reader:   reader, dir: d.dir,
		}
		outputs = append(outputs, fm)
		b = nil
		return nil
	}
	for merge.next() {
		if dropTombstones && merge.kind() == kindDelete {
			continue
		}
		if b == nil {
			d.mu.Lock()
			bNum = d.nextFileNum
			d.nextFileNum++
			d.mu.Unlock()
			var err error
			b, err = newTableBuilder(sstPath(d.dir, bNum), d.opts.BlockBytes)
			if err != nil {
				return nil, err
			}
		}
		b.add(merge.key(), merge.value(), merge.kind())
		if b.offset+uint64(len(b.block)) >= d.opts.MaxOutputBytes {
			if err := closeCurrent(); err != nil {
				return nil, err
			}
		}
	}
	if err := closeCurrent(); err != nil {
		return nil, err
	}
	return outputs, nil
}

func minKey(a, b []byte) []byte {
	if a == nil || bytes.Compare(b, a) < 0 {
		return b
	}
	return a
}

func maxKey(a, b []byte) []byte {
	if a == nil || bytes.Compare(b, a) > 0 {
		return b
	}
	return a
}
