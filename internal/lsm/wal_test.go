package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"testing"
)

// testLog is the log number of the logs the tests below build.
const testLog = 9

// walShapes are the two files a log can live in: one created for it, and
// a recycled one — the retired log 4, eight records long, renamed to log
// testLog and overwritten from offset 0, so the records under test are
// followed by the previous life's stale tail instead of the end of file.
var walShapes = []struct {
	name     string
	recycled bool
}{{"fresh", false}, {"recycled", true}}

// writeTestWAL writes n single-put records ("k<i>" -> "v<i>") as log
// testLog and returns the log path plus each record's start offset.
func writeTestWAL(t *testing.T, n int, recycled bool) (path string, offsets []int64) {
	t.Helper()
	dir := t.TempDir()
	path = walPath(dir, testLog)
	var w *walWriter
	var err error
	if recycled {
		old, err := newWALWriter(walPath(dir, 4), 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			payload := encodeBatchPayload(nil, []walOp{{
				kind:  kindPut,
				key:   []byte(fmt.Sprintf("stale%d", i)),
				value: []byte(fmt.Sprintf("previous-life-%d", i)),
			}})
			if err := old.append(payload, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := old.close(); err != nil {
			t.Fatal(err)
		}
		w, err = recycleWAL(dir, 4, testLog)
	} else {
		w, err = newWALWriter(path, testLog)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		payload := encodeBatchPayload(nil, []walOp{{
			kind:  kindPut,
			key:   []byte(fmt.Sprintf("k%d", i)),
			value: []byte(fmt.Sprintf("v%d", i)),
		}})
		offsets = append(offsets, w.off)
		if err := w.append(payload, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	return path, offsets
}

// replayKeys replays the log and returns the keys applied, in order.
func replayKeys(path string) ([]string, error) {
	var keys []string
	_, err := replayWAL(path, func(ops []walOp) error {
		for _, op := range ops {
			keys = append(keys, string(op.key))
		}
		return nil
	})
	return keys, err
}

// flipByte corrupts one byte of the file in place.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestReplayWALInteriorCorruption is the regression for the
// torn-tail/mid-file conflation: a corrupt record with valid,
// acknowledged-durable records AFTER it must surface errCorrupt — not be
// silently treated as a torn tail, which would drop the later records.
func TestReplayWALInteriorCorruption(t *testing.T) {
	for _, shape := range walShapes {
		t.Run(shape.name, func(t *testing.T) {
			path, offsets := writeTestWAL(t, 3, shape.recycled)
			// Flip a payload byte of the MIDDLE record (offset + header).
			flipByte(t, path, offsets[1]+walHeaderLen)
			_, err := replayKeys(path)
			if err == nil {
				t.Fatal("interior corruption replayed as a torn tail (durable records dropped silently)")
			}
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("want errCorrupt, got %v", err)
			}
		})
	}
}

// TestReplayWALInteriorBadLength: a corrupted mid-file length field
// (plausible but wrong, so framing shifts and the CRC fails) with real
// records following is corruption, not a torn tail. An IMPLAUSIBLE
// (>1 GiB) length always declares an extent past EOF and is physically
// indistinguishable from a torn header, so only the tail case below
// applies to it.
func TestReplayWALInteriorBadLength(t *testing.T) {
	for _, shape := range walShapes {
		t.Run(shape.name, func(t *testing.T) {
			path, offsets := writeTestWAL(t, 3, shape.recycled)
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			var hdr [4]byte
			if _, err := f.ReadAt(hdr[:], offsets[1]); err != nil {
				t.Fatal(err)
			}
			n := binary.LittleEndian.Uint32(hdr[:])
			binary.LittleEndian.PutUint32(hdr[:], n-1) // shift the framing by one
			if _, err := f.WriteAt(hdr[:], offsets[1]); err != nil {
				t.Fatal(err)
			}
			f.Close()
			_, err = replayKeys(path)
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("want errCorrupt for corrupted mid-file length, got %v", err)
			}
		})
	}
}

// TestReplayWALTornTail: a corrupt FINAL record is the torn-tail case the
// log must tolerate — it was never acknowledged durable. Everything
// before it replays.
func TestReplayWALTornTail(t *testing.T) {
	for _, shape := range walShapes {
		t.Run(shape.name, func(t *testing.T) {
			path, offsets := writeTestWAL(t, 3, shape.recycled)
			flipByte(t, path, offsets[2]+walHeaderLen) // corrupt the last record's payload
			keys, err := replayKeys(path)
			if err != nil {
				t.Fatalf("torn tail must be tolerated, got %v", err)
			}
			if len(keys) != 2 || keys[0] != "k0" || keys[1] != "k1" {
				t.Fatalf("replayed %v, want [k0 k1]", keys)
			}
		})
	}
}

// TestReplayWALTruncatedTail: a record physically cut short by a crash
// replays cleanly up to it.
func TestReplayWALTruncatedTail(t *testing.T) {
	path, offsets := writeTestWAL(t, 3, false)
	if err := os.Truncate(path, offsets[2]+5); err != nil { // mid-header
		t.Fatal(err)
	}
	keys, err := replayKeys(path)
	if err != nil {
		t.Fatalf("truncated tail must be tolerated, got %v", err)
	}
	if len(keys) != 2 {
		t.Fatalf("replayed %v, want [k0 k1]", keys)
	}
}

// dumpKeys runs DumpWAL and flattens the decoded keys.
func dumpKeys(t *testing.T, path string, skipCorrupt bool) ([]string, WALDumpStats) {
	t.Helper()
	var keys []string
	stats, err := DumpWAL(path, skipCorrupt, func(_ int64, logNum uint64, ops []WALEntry) bool {
		if logNum != testLog {
			t.Errorf("dumped a record of log %d from log %d", logNum, testLog)
		}
		for _, op := range ops {
			keys = append(keys, string(op.Key))
		}
		return true
	})
	if err != nil {
		t.Fatalf("DumpWAL(skipCorrupt=%t): %v", skipCorrupt, err)
	}
	return keys, stats
}

// TestDumpWALClean: a well-formed log dumps completely with zeroed
// corruption counters.
func TestDumpWALClean(t *testing.T) {
	path, _ := writeTestWAL(t, 3, false)
	keys, stats := dumpKeys(t, path, false)
	if fmt.Sprint(keys) != "[k0 k1 k2]" {
		t.Fatalf("dumped %v, want [k0 k1 k2]", keys)
	}
	if stats.Records != 3 || stats.Ops != 3 || stats.CorruptRecords != 0 || stats.TornTail {
		t.Fatalf("stats = %+v, want 3 clean records", stats)
	}
}

// TestDumpWALStrictMirrorsRecovery: without -skip-corrupt the dump stops
// at mid-file corruption with errCorrupt, exactly like replayWAL.
func TestDumpWALStrictMirrorsRecovery(t *testing.T) {
	for _, shape := range walShapes {
		t.Run(shape.name, func(t *testing.T) {
			path, offsets := writeTestWAL(t, 3, shape.recycled)
			// Intact: both see the three records and nothing of a previous
			// life.
			keys, err := replayKeys(path)
			dumped, _ := dumpKeys(t, path, false)
			if err != nil || fmt.Sprint(keys) != "[k0 k1 k2]" || fmt.Sprint(dumped) != fmt.Sprint(keys) {
				t.Fatalf("intact log: recovery %v (%v), strict dump %v, want [k0 k1 k2] from both", keys, err, dumped)
			}
			// Torn last record: both keep the prefix.
			flipByte(t, path, offsets[2]+walHeaderLen)
			keys, err = replayKeys(path)
			dumped, stats := dumpKeys(t, path, false)
			if err != nil || fmt.Sprint(keys) != "[k0 k1]" || fmt.Sprint(dumped) != fmt.Sprint(keys) || !stats.TornTail {
				t.Fatalf("torn tail: recovery %v (%v), strict dump %v %+v, want [k0 k1] from both", keys, err, dumped, stats)
			}
			flipByte(t, path, offsets[2]+walHeaderLen)
			// Interior corruption: both refuse.
			flipByte(t, path, offsets[1]+walHeaderLen)
			if _, err := replayKeys(path); !errors.Is(err, errCorrupt) {
				t.Fatalf("recovery: want errCorrupt, got %v", err)
			}
			if _, err := DumpWAL(path, false, nil); !errors.Is(err, errCorrupt) {
				t.Fatalf("strict dump: want errCorrupt, got %v", err)
			}
		})
	}
}

// TestDumpWALSalvageInterior is the salvage contract: with skipCorrupt a
// mid-file corrupt record is skipped, the dump resynchronizes on the
// next valid record, and everything durable around the corruption is
// recovered — the records recovery itself refuses to silently drop.
func TestDumpWALSalvageInterior(t *testing.T) {
	path, offsets := writeTestWAL(t, 5, false)
	flipByte(t, path, offsets[1]+walHeaderLen) // payload corruption
	flipByte(t, path, offsets[3]+2)            // length-field corruption (framing lost)
	keys, stats := dumpKeys(t, path, true)
	if fmt.Sprint(keys) != "[k0 k2 k4]" {
		t.Fatalf("salvaged %v, want [k0 k2 k4]", keys)
	}
	if stats.CorruptRecords != 2 || stats.Records != 3 || stats.SkippedBytes == 0 {
		t.Fatalf("stats = %+v, want 2 corrupt spots and 3 salvaged records", stats)
	}
	if stats.TornTail {
		t.Fatalf("interior corruption misclassified as torn tail: %+v", stats)
	}
}

// TestDumpWALSalvageTornTail: a torn final record is reported as such,
// not counted as corruption, in both modes.
func TestDumpWALSalvageTornTail(t *testing.T) {
	path, offsets := writeTestWAL(t, 3, false)
	if err := os.Truncate(path, offsets[2]+3); err != nil {
		t.Fatal(err)
	}
	for _, skip := range []bool{false, true} {
		keys, stats := dumpKeys(t, path, skip)
		if fmt.Sprint(keys) != "[k0 k1]" {
			t.Fatalf("skip=%t: dumped %v, want [k0 k1]", skip, keys)
		}
		if !stats.TornTail || stats.CorruptRecords != 0 {
			t.Fatalf("skip=%t: stats = %+v, want torn tail and no corrupt records", skip, stats)
		}
	}
}

// TestDumpWALImplausibleTornHeader: a garbage final header whose length
// field is implausible (>1 GiB) declares an extent past EOF and must be
// treated as a torn tail by BOTH recovery and the strict dump — a strict
// wal-dump exiting nonzero on a log Open accepts would be a false
// corruption report.
func TestDumpWALImplausibleTornHeader(t *testing.T) {
	path, _ := writeTestWAL(t, 2, false)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := [walHeaderLen]byte{0xff, 0xff, 0xff, 0xff, 0xde, 0xad, 0xbe, 0xef}
	if _, err := f.Write(garbage[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	keys, err := replayKeys(path)
	if err != nil || fmt.Sprint(keys) != "[k0 k1]" {
		t.Fatalf("recovery: keys=%v err=%v, want [k0 k1] and nil", keys, err)
	}
	for _, skip := range []bool{false, true} {
		keys, stats := dumpKeys(t, path, skip)
		if fmt.Sprint(keys) != "[k0 k1]" {
			t.Fatalf("skip=%t: dumped %v, want [k0 k1]", skip, keys)
		}
		if !stats.TornTail || stats.CorruptRecords != 0 {
			t.Fatalf("skip=%t: stats=%+v, want torn tail, no corruption", skip, stats)
		}
	}
}

// TestOpenSurfacesWALRecoveryCounters: DB.Stats must report the records
// replayed at Open and the torn tail a crash mid-append leaves behind.
func TestOpenSurfacesWALRecoveryCounters(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := applyPut(db, []byte(fmt.Sprintf("k%d", i)), []byte("v"), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record of the live WAL.
	wals, err := WALFiles(dir)
	if err != nil || len(wals) == 0 {
		t.Fatalf("wal files: %v (%d)", err, len(wals))
	}
	last := wals[len(wals)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st := db.Stats()
	if st.WALRecordsRecovered != 3 || st.WALTornTails != 1 {
		t.Fatalf("stats = recovered %d / torn %d, want 3 / 1", st.WALRecordsRecovered, st.WALTornTails)
	}
	// The three acknowledged records survived; the torn one is gone.
	for i := 0; i < 3; i++ {
		if _, ok, err := db.Get([]byte(fmt.Sprintf("k%d", i))); err != nil || !ok {
			t.Fatalf("k%d lost after torn-tail recovery (ok=%t err=%v)", i, ok, err)
		}
	}
	if _, ok, _ := db.Get([]byte("k3")); ok {
		t.Fatal("torn (unacknowledged) record resurrected")
	}
}

// writeLogBytes stores an in-memory log as log testLog and returns its path.
func writeLogBytes(t *testing.T, log []byte) string {
	t.Helper()
	path := walPath(t.TempDir(), testLog)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayWALRecycledStaleTail: whatever a recycled segment's previous
// life left behind the records of this one is neither data nor
// corruption, wherever this life happens to end — on a stale record's
// boundary (an intact record of another log: the clean end), inside one
// (reads as a record failing validation with nothing of this log after
// it), or before its own first record (a crash between the recycling
// rename and the first append: the whole file is the previous life).
func TestReplayWALRecycledStaleTail(t *testing.T) {
	var stale []byte
	for i := 0; i < 5; i++ {
		stale = frameRecord(stale, 4, putPayload(fmt.Sprintf("s%d", i), fmt.Sprintf("x%d", i)))
	}
	recLen := len(stale) / 5
	overwrite := func(records ...[]byte) []byte {
		log := append([]byte(nil), stale...)
		off := 0
		for _, payload := range records {
			off += copy(log[off:], frameRecord(nil, testLog, payload))
		}
		return log
	}
	cases := []struct {
		name     string
		log      []byte
		keys     string
		tornTail bool
		staleLen int64
	}{
		{"ends on a stale record boundary", overwrite(putPayload("k0", "v0"), putPayload("k1", "v1")), "[k0 k1]", false, int64(3 * recLen)},
		{"ends inside a stale record", overwrite(putPayload("k0", "v0"), putPayload("k1", "longer-v1")), "[k0 k1]", true, 0},
		{"renamed, nothing written yet", overwrite(), "[]", false, int64(5 * recLen)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeLogBytes(t, tc.log)
			var keys []string
			st, err := replayWAL(path, func(ops []walOp) error {
				for _, op := range ops {
					keys = append(keys, string(op.key))
				}
				return nil
			})
			if err != nil {
				t.Fatalf("stale tail read as corruption: %v", err)
			}
			if fmt.Sprint(keys) != tc.keys || st.tornTail != tc.tornTail {
				t.Fatalf("replayed %v (torn tail %t), want %s (torn tail %t)", keys, st.tornTail, tc.keys, tc.tornTail)
			}
			for _, skip := range []bool{false, true} {
				dumped, stats := dumpKeys(t, path, skip)
				if fmt.Sprint(dumped) != tc.keys || stats.TornTail != tc.tornTail ||
					stats.StaleBytes != tc.staleLen || stats.CorruptRecords != 0 {
					t.Fatalf("skip=%t: dumped %v %+v, want %s, torn %t, %d stale bytes",
						skip, dumped, stats, tc.keys, tc.tornTail, tc.staleLen)
				}
			}
		})
	}
}
