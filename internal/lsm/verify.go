package lsm

import (
	"bytes"
	"fmt"
	"sort"
)

// VerifyReport summarizes an offline VerifyDir pass over an LSM
// directory: what was checked and what recovery would make of it.
type VerifyReport struct {
	// ManifestNum is the manifest CURRENT points at.
	ManifestNum uint64
	// Tables is the number of live SSTables the manifest references.
	Tables int
	// Blocks is the total number of data blocks whose checksums were
	// verified across all live tables.
	Blocks int
	// Entries is the total entry count across all live tables (including
	// tombstones).
	Entries uint64
	// WALs is the number of log files recovery would replay; WALRecords
	// the durable records inside them; WALTornTails the logs ending in a
	// torn final record (a crash mid-append — discarded by recovery,
	// counted here so operators can tell expected tails from silence).
	WALs         int
	WALRecords   int
	WALTornTails int
	// OrphanTables lists .sst files present in the directory but not
	// referenced by the manifest — the footprint of a crash between
	// SSTable creation and the manifest edit. Recovery deletes them; they
	// are reported, not failed.
	OrphanTables []uint64
}

// VerifyDir checks a closed LSM directory offline — without opening the
// database, so it never replays, rotates or deletes anything. It walks
// CURRENT → manifest → every referenced SSTable (footer magic, index
// checksum, the index's block ranges, every data block's CRC, ascending
// key order, entry count and manifest bounds), checks the sorted-level
// disjointness invariant, and strictly decodes every WAL recovery would
// replay (mid-file corruption is an error; a torn tail is not). The
// first violation aborts with a descriptive error; a nil error means
// recovery from this directory cannot silently lose or invent committed
// data.
func VerifyDir(dir string) (VerifyReport, error) {
	var rep VerifyReport
	manifestNum, haveCurrent, err := readCurrent(dir)
	if err != nil {
		return rep, err
	}
	if !haveCurrent {
		return rep, fmt.Errorf("lsm: verify %s: no CURRENT file (not an initialized store)", dir)
	}
	rep.ManifestNum = manifestNum

	// Replay the manifest into a file inventory (the same fold recovery
	// performs, minus opening the tables into a live version).
	var logNum uint64
	files := map[uint64]editFile{}
	err = readManifest(manifestPath(dir, manifestNum), func(e *versionEdit) error {
		if e.LogNum > logNum {
			logNum = e.LogNum
		}
		for _, ref := range e.DelFiles {
			delete(files, ref.Num)
		}
		for _, ef := range e.AddFiles {
			files[ef.Num] = ef
		}
		return nil
	})
	if err != nil {
		return rep, fmt.Errorf("lsm: verify manifest: %w", err)
	}

	nums := make([]uint64, 0, len(files))
	for num := range files {
		nums = append(nums, num)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	byLevel := map[int][]editFile{}
	for _, num := range nums {
		ef := files[num]
		if err := verifyTable(dir, ef, &rep); err != nil {
			return rep, err
		}
		rep.Tables++
		byLevel[ef.Level] = append(byLevel[ef.Level], ef)
	}

	// Levels below L0 must hold disjoint, ordered key ranges — the
	// invariant compaction maintains and point lookups rely on.
	for level, efs := range byLevel {
		if level == 0 {
			continue
		}
		sort.Slice(efs, func(i, j int) bool {
			return bytes.Compare(efs[i].Smallest, efs[j].Smallest) < 0
		})
		for i := 1; i < len(efs); i++ {
			if bytes.Compare(efs[i].Smallest, efs[i-1].Largest) <= 0 {
				return rep, fmt.Errorf("lsm: verify: level %d tables %06d and %06d overlap (%q..%q vs %q..%q)",
					level, efs[i-1].Num, efs[i].Num,
					efs[i-1].Smallest, efs[i-1].Largest, efs[i].Smallest, efs[i].Largest)
			}
		}
	}

	// WALs recovery would replay: strict decode (errCorrupt on mid-file
	// corruption, torn tails tolerated and counted).
	wals, ssts, _, err := listFiles(dir)
	if err != nil {
		return rep, err
	}
	for _, num := range ssts {
		if _, live := files[num]; !live {
			rep.OrphanTables = append(rep.OrphanTables, num)
		}
	}
	for _, num := range wals {
		if num < logNum {
			continue
		}
		st, err := replayWAL(walPath(dir, num), func([]walOp) error { return nil })
		rep.WALs++
		rep.WALRecords += st.records
		if st.tornTail {
			rep.WALTornTails++
		}
		if err != nil {
			return rep, fmt.Errorf("lsm: verify wal %06d: %w", num, err)
		}
	}
	return rep, nil
}

// verifyTable opens one SSTable (footer magic, index CRC, block ranges
// inside the file) and walks every data block, verifying each block's
// CRC, global ascending key order, the footer's entry count and the
// manifest's key bounds. A filter block an older build wrote between the
// data and the index is skipped, not read.
func verifyTable(dir string, ef editFile, rep *VerifyReport) error {
	path := sstPath(dir, ef.Num)
	r, err := openTable(path, ef.Num)
	if err != nil {
		return err
	}
	defer r.close()
	var (
		count    uint64
		prev     []byte
		smallest []byte
		largest  []byte
	)
	for i := range r.blocks() {
		block, err := r.readBlock(i) // verifies the block CRC
		if err != nil {
			return err
		}
		rep.Blocks++
		it := blockIterator{data: block}
		for it.next() {
			if prev != nil && bytes.Compare(prev, it.curKey) >= 0 {
				return fmt.Errorf("%w: %s keys out of order: %q then %q", errCorrupt, path, prev, it.curKey)
			}
			prev = append(prev[:0], it.curKey...)
			if smallest == nil {
				smallest = append([]byte(nil), it.curKey...)
			}
			largest = append(largest[:0], it.curKey...)
			count++
		}
		if it.err != nil {
			return fmt.Errorf("%w: %s block %d entries", errCorrupt, path, i)
		}
	}
	if count != r.count {
		return fmt.Errorf("%w: %s footer claims %d entries, found %d", errCorrupt, path, r.count, count)
	}
	if count != ef.Count {
		return fmt.Errorf("%w: %s manifest claims %d entries, found %d", errCorrupt, path, ef.Count, count)
	}
	if !bytes.Equal(smallest, ef.Smallest) || !bytes.Equal(largest, ef.Largest) {
		return fmt.Errorf("%w: %s key bounds %q..%q do not match manifest %q..%q",
			errCorrupt, path, smallest, largest, ef.Smallest, ef.Largest)
	}
	rep.Entries += count
	return nil
}
