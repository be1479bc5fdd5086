// Command lsmtool inspects a persistent LSM store directory (the base
// table of transactional states).
//
// Usage:
//
//	lsmtool -dir data stats          # level layout and counters
//	lsmtool -dir data scan           # dump all live key-value pairs
//	lsmtool -dir data scan -prefix s/state1/   # one state's rows
//	lsmtool -dir data get -key s/state1/0001
//	lsmtool -dir data verify         # offline integrity check (no DB open)
//	lsmtool -dir data compact        # force flush + full compaction
//	lsmtool -dir data wal-dump       # decode the write-ahead logs (read-only)
//	lsmtool -dir data wal-dump -skip-corrupt   # salvage: resync past corruption
//	lsmtool -wal data/000007.wal wal-dump      # one specific log file
//
// The online commands (stats, scan, get, compact) open the store at -dir.
//
// wal-dump and verify never open the database (recovery would rotate the
// logs and delete orphans); they read the files directly, so they work on
// a directory whose Open fails — verify walks CURRENT, the manifest,
// every SSTable's block checksums and every WAL record, reporting torn
// tails and orphaned tables; wal-dump -skip-corrupt salvages corrupt logs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sistream/internal/lsm"
)

func main() {
	dir := flag.String("dir", "", "LSM data directory (required unless -wal)")
	key := flag.String("key", "", "key for get")
	prefix := flag.String("prefix", "", "key prefix filter for scan")
	limit := flag.Int("limit", 0, "max rows for scan (0 = all)")
	walFile := flag.String("wal", "", "wal-dump: one specific log file instead of -dir's logs")
	skipCorrupt := flag.Bool("skip-corrupt", false, "wal-dump: salvage mode — skip corrupt records and resynchronize")
	flag.Parse()
	// Accept flags on either side of the command (the stdlib parser stops
	// at the first positional, so `lsmtool -dir data scan -prefix x` and
	// `lsmtool -dir data wal-dump -skip-corrupt` need a second pass over
	// what follows the command).
	cmd := ""
	if args := flag.Args(); len(args) > 0 {
		cmd = args[0]
		flag.CommandLine.Parse(args[1:])
	}
	if cmd == "" || flag.NArg() != 0 || (*dir == "" && !(cmd == "wal-dump" && *walFile != "")) {
		fmt.Fprintln(os.Stderr, "usage: lsmtool -dir <path> [flags] stats|scan|get|verify|compact|wal-dump")
		os.Exit(2)
	}
	if cmd == "wal-dump" {
		// Deliberately DB-less: opening the database replays and rotates
		// the logs, and fails outright on the corruption this command is
		// for.
		walDump(*dir, *walFile, *skipCorrupt)
		return
	}
	if cmd == "verify" {
		// Also DB-less: verification must not mutate the evidence (Open
		// rotates logs, flushes recovered data and deletes orphans).
		rep, err := lsm.VerifyDir(*dir)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("manifest:  MANIFEST-%06d\n", rep.ManifestNum)
		fmt.Printf("tables:    %d (%d blocks, %d entries, all checksums ok)\n",
			rep.Tables, rep.Blocks, rep.Entries)
		fmt.Printf("wal:       %d logs, %d records", rep.WALs, rep.WALRecords)
		if rep.WALTornTails > 0 {
			fmt.Printf(", %d torn tails (expected crash shape)", rep.WALTornTails)
		}
		fmt.Println()
		for _, num := range rep.OrphanTables {
			fmt.Printf("orphan:    %06d.sst (unreferenced; recovery will remove it)\n", num)
		}
		fmt.Println("ok")
		return
	}
	db, err := lsm.Open(*dir, lsm.Options{})
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	switch cmd {
	case "stats":
		st := db.Stats()
		fmt.Printf("flushes:      %d\n", st.Flushes)
		fmt.Printf("compactions:  %d\n", st.Compactions)
		fmt.Printf("memtable:     %d keys, ~%d bytes; put in key order %d times (flush or scan) in %s\n",
			st.MemKeys, st.MemBytes, st.MemOrderings, time.Duration(st.MemOrderNanos))
		fmt.Printf("wal recovery: %d records replayed, %d torn tails discarded\n",
			st.WALRecordsRecovered, st.WALTornTails)
		fmt.Printf("write path:   %d wal segments recycled, %d write stalls, flush %s, compaction %s\n",
			st.WALSegmentsRecycled, st.WriteStalls,
			time.Duration(st.FlushNanos), time.Duration(st.CompactionNanos))
		var files, size int
		for l := range st.LevelFiles {
			if st.LevelFiles[l] == 0 {
				continue
			}
			fmt.Printf("level %d:      %d files, %d bytes\n", l, st.LevelFiles[l], st.LevelBytes[l])
			files += st.LevelFiles[l]
			size += int(st.LevelBytes[l])
		}
		fmt.Printf("total:        %d files, %d bytes\n", files, size)
	case "scan":
		start, end := scanBounds(*prefix)
		n := 0
		err := db.Scan(start, end, func(k, v []byte) bool {
			fmt.Printf("%q = %q\n", k, v)
			n++
			return *limit == 0 || n < *limit
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%d rows\n", n)
	case "get":
		if *key == "" {
			fatal(fmt.Errorf("get needs -key"))
		}
		v, ok, err := db.Get([]byte(*key))
		if err != nil {
			fatal(err)
		}
		if !ok {
			fmt.Println("(not found)")
			os.Exit(1)
		}
		fmt.Printf("%q\n", v)
	case "compact":
		if err := db.Compact(); err != nil {
			fatal(err)
		}
		fmt.Println("compacted")
	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
}

// walDump decodes one WAL file (or every log of the directory, oldest
// first) without opening the database. Without -skip-corrupt it stops at
// mid-file corruption with a nonzero exit, mirroring recovery; with it,
// corrupt spots are skipped and the salvageable records printed.
func walDump(dir, walFile string, skipCorrupt bool) {
	paths := []string{walFile}
	if walFile == "" {
		var err error
		paths, err = lsm.WALFiles(dir)
		if err != nil {
			fatal(err)
		}
		if len(paths) == 0 {
			fmt.Fprintln(os.Stderr, "no wal files")
			return
		}
	}
	for _, path := range paths {
		fmt.Printf("-- %s\n", path)
		stats, err := lsm.DumpWAL(path, skipCorrupt, func(off int64, logNum uint64, ops []lsm.WALEntry) bool {
			for _, op := range ops {
				if op.Delete {
					fmt.Printf("%08d  log %d  DEL %q\n", off, logNum, op.Key)
				} else {
					fmt.Printf("%08d  log %d  PUT %q = %q\n", off, logNum, op.Key, op.Value)
				}
			}
			return true
		})
		fmt.Fprintf(os.Stderr, "%s: %d records, %d ops", path, stats.Records, stats.Ops)
		if stats.CorruptRecords > 0 {
			fmt.Fprintf(os.Stderr, ", %d corrupt spots (%d bytes skipped)",
				stats.CorruptRecords, stats.SkippedBytes)
		}
		if stats.TornTail {
			fmt.Fprintf(os.Stderr, ", torn tail discarded")
		}
		if stats.StaleBytes > 0 {
			fmt.Fprintf(os.Stderr, ", %d bytes of a recycled segment's previous life ignored", stats.StaleBytes)
		}
		fmt.Fprintln(os.Stderr)
		if err != nil {
			fatal(err)
		}
	}
}

func scanBounds(prefix string) (start, end []byte) {
	if prefix == "" {
		return nil, nil
	}
	start = []byte(prefix)
	end = append(append([]byte(nil), start...), 0xff)
	return start, end
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsmtool:", err)
	os.Exit(1)
}
