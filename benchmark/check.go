package main

import (
	"fmt"
	"sort"
)

// The reference checks. Each takes plain recorded results and returns the
// violations it found, so the unit tests can hand it a corrupted result
// and require a failure.

// delivery is the sink's account of a run beside the engine's counters.
type delivery struct {
	emitted uint64 // elements the source emitted
	txnSize int

	delivered   int64  // data elements of committed transactions at the sink
	dups        int64  // sequence numbers that arrived more than once
	missing     uint64 // sequence numbers that never arrived
	sinkCommits int64  // COMMIT punctuations at the sink

	writes  int64 // TO_TABLE writes applied (last state)
	txns    int64 // transactions TO_TABLE committed
	aborts  int64
	ctsBack int64 // commit timestamps that went backwards
}

func (d delivery) check() []string {
	var out []string
	fail := func(format string, a ...any) { out = append(out, fmt.Sprintf(format, a...)) }
	if d.missing > 0 {
		fail("%d of %d events never reached the sink", d.missing, d.emitted)
	}
	if d.dups > 0 {
		fail("%d events reached the sink more than once", d.dups)
	}
	if d.delivered != d.writes {
		fail("sink saw %d data elements, the table committed %d writes", d.delivered, d.writes)
	}
	if d.sinkCommits != d.txns {
		fail("sink saw %d commits, the ingest side committed %d transactions", d.sinkCommits, d.txns)
	}
	if want := int64(d.emitted) / int64(d.txnSize); d.txns != want {
		fail("%d transactions committed, %d were sent", d.txns, want)
	}
	if d.aborts > 0 {
		fail("%d transactions aborted on a single-writer workload", d.aborts)
	}
	if d.ctsBack > 0 {
		fail("commit timestamps went backwards %d times", d.ctsBack)
	}
	return out
}

// checkTable compares a final scan (key -> sequence number of the value
// found) with the generator's own last write per key.
func checkTable(rows map[string]uint64, keys []string, last []uint64) []string {
	var out []string
	if len(rows) != len(keys) {
		out = append(out, fmt.Sprintf("table holds %d rows, the generator wrote %d keys", len(rows), len(keys)))
	}
	wrong := 0
	for i, k := range keys {
		if got, ok := rows[k]; !ok || got != last[i] {
			if wrong == 0 {
				out = append(out, fmt.Sprintf("key %s holds sequence %d, last written was %d", k, got, last[i]))
			}
			wrong++
		}
	}
	if wrong > 1 {
		out = append(out, fmt.Sprintf("%d keys in all hold a value that is not their last write", wrong))
	}
	return out
}

// checkLookup requires an index lookup of one bucket to return exactly
// the rows a filtered scan finds.
func checkLookup(bucket string, looked, scanned []string) []string {
	sort.Strings(looked)
	sort.Strings(scanned)
	if len(looked) == len(scanned) {
		same := true
		for i := range looked {
			same = same && looked[i] == scanned[i]
		}
		if same {
			return nil
		}
	}
	return []string{fmt.Sprintf("index bucket %s: lookup returned %d rows, filtered scan %d, and they differ", bucket, len(looked), len(scanned))}
}
