package lsm

// WAL salvage tooling (lsmtool wal-dump). Recovery (replayWAL) is
// deliberately strict: mid-file corruption fails the Open, because
// records beyond the broken one were acknowledged durable and silently
// dropping them would be data loss. DumpWAL is the operator's escape
// hatch for exactly that situation — it decodes a log read-only, without
// opening the database, and in salvage mode resynchronizes past corrupt
// records so the surviving operations can be inspected or re-applied by
// hand.

import (
	"fmt"
	"os"
	"sort"
)

// WALEntry is one decoded operation of a dumped WAL record: an update of
// Key to Value, or a deletion of Key when Delete is set. The byte slices
// alias the dump's read buffer and are only valid during the callback.
type WALEntry struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// WALDumpStats summarizes one DumpWAL pass.
type WALDumpStats struct {
	// Records and Ops count the well-formed records decoded and the
	// operations they carried.
	Records, Ops int
	// CorruptRecords counts corrupt spots: the ones skipped in salvage
	// mode, or the one that stopped a strict dump (whose offset the
	// returned error names). SkippedBytes is the log volume lost to
	// skipped spots and to a torn tail; a strict dump stopped by
	// corruption skips nothing.
	CorruptRecords int
	SkippedBytes   int64
	// TornTail reports a log ending in a record that fails validation
	// with no record of this log after it — a crash mid-append or, in a
	// recycled segment, the middle of a record of the file's previous
	// life; benign (never acknowledged as durable) and therefore not
	// counted into CorruptRecords.
	TornTail bool
	// StaleBytes is non-zero for a recycled segment whose records end at an
	// intact record of another log: the previous life's tail — not data,
	// not corruption — and its extent to the end of the file.
	StaleBytes int64
}

// DumpWAL decodes the write-ahead log at path in order, calling fn for
// each well-formed record with the record's byte offset, its log number
// and decoded operations; fn returning false stops the dump early. The
// file is read directly — no DB is opened, nothing is modified. The log
// number recovery expects in every record is the one in the file name, so
// path must be named like a log ("000042.wal").
//
// Without skipCorrupt the dump mirrors recovery (replayWAL) exactly — the
// two share the record walk: the log ends cleanly at the end of the file
// or at an intact record of another log (StaleBytes), a broken record with
// no later record of this log ends it as a torn tail, and a broken record
// with one stops the dump with an error. With skipCorrupt the dump
// salvages instead: it skips the corrupt spot, resumes at the next intact
// record of this log anywhere in the rest of the file, counts the
// corruption and continues. The whole file is read into memory, so the
// tool handles the multi-MiB logs one memtable generation produces, not
// arbitrarily large files.
func DumpWAL(path string, skipCorrupt bool, fn func(offset int64, logNum uint64, ops []WALEntry) bool) (WALDumpStats, error) {
	var st WALDumpStats
	logNum, err := walNumOf(path)
	if err != nil {
		return st, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return st, err
	}
	c := walCursor{data: data, logNum: logNum, window: walScanAhead}
	if skipCorrupt {
		c.window = int64(len(data))
	}
	out := make([]WALEntry, 0, 64)
	for {
		at := c.off
		payload, end, resume := c.next()
		switch end {
		case walEndClean:
			return st, nil
		case walEndStale:
			st.StaleBytes = int64(len(data)) - at
			return st, nil
		case walEndTorn:
			st.TornTail = true
			st.SkippedBytes += int64(len(data)) - at
			return st, nil
		case walEndCorrupt:
			st.CorruptRecords++
			if !skipCorrupt {
				return st, fmt.Errorf("%w: wal record at offset %d fails validation with an intact record of log %d at offset %d",
					errCorrupt, at, logNum, resume)
			}
			st.SkippedBytes += resume - at
			c.off = resume
			continue
		}
		ops, err := decodeBatchPayload(payload)
		if err != nil {
			// The frame is intact but the batch inside is not: recovery
			// refuses it wherever it sits.
			st.CorruptRecords++
			if !skipCorrupt {
				return st, fmt.Errorf("%w: wal record at offset %d: malformed batch payload", errCorrupt, at)
			}
			st.SkippedBytes += c.off - at
			continue
		}
		out = out[:0]
		for _, op := range ops {
			out = append(out, WALEntry{Key: op.key, Value: op.value, Delete: op.kind == kindDelete})
		}
		st.Records++
		st.Ops += len(ops)
		if fn != nil && !fn(at, logNum, out) {
			return st, nil
		}
	}
}

// WALFiles lists the write-ahead log files of a database directory,
// oldest first (by file number). It reads only the directory listing; no
// DB is opened.
func WALFiles(dir string) ([]string, error) {
	wals, _, _, err := listFiles(dir)
	if err != nil {
		return nil, err
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	paths := make([]string, len(wals))
	for i, num := range wals {
		paths[i] = walPath(dir, num)
	}
	return paths, nil
}
