package lsm

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzLogSeeds are the shapes a crash can hand recovery: a clean log, a
// torn tail, and a recycled segment ending in its previous life's tail —
// clean, torn and with interior corruption.
func fuzzLogSeeds() [][]byte {
	var clean, stale []byte
	for i := 0; i < 3; i++ {
		clean = frameRecord(clean, testLog, putPayload("k", "value"))
	}
	for i := 0; i < 6; i++ {
		stale = frameRecord(stale, 4, putPayload("old", "previous-life"))
	}
	recycled := append(append([]byte(nil), clean...), stale[len(clean):]...)
	flip := func(log []byte, at int) []byte {
		out := append([]byte(nil), log...)
		out[at] ^= 0xff
		return out
	}
	recLen := len(clean) / 3
	return [][]byte{
		clean,
		clean[:len(clean)-3],
		flip(clean, recLen+walHeaderLen),
		stale,
		recycled,
		flip(recycled, 2*recLen+walHeaderLen), // torn last record, stale tail behind it
		flip(recycled, recLen+walHeaderLen),   // interior corruption
		flip(recycled, recLen+1),              // interior length-field corruption
	}
}

// FuzzReplayWAL: on any bytes, replay must not panic, must apply exactly
// the leading run of intact records of its own log (never one carrying
// another log's number), and must not report success when an intact
// record of its log lies beyond the spot where it stopped — checked
// against a byte-by-byte search that shares nothing with the scan-ahead
// under test.
func FuzzReplayWAL(f *testing.F) {
	for _, seed := range fuzzLogSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			t.Skip("the byte-by-byte reference search below is quadratic")
		}
		var applied [][]byte
		st, err := replayWALData(data, testLog, func(ops []walOp) error {
			applied = append(applied, encodeBatchPayload(nil, ops))
			return nil
		})

		// Reference walk: the leading intact records of this log.
		var want [][]byte
		off := int64(0)
		malformed := false
		for {
			num, payload, ok := walRecordAt(data, off)
			if !ok || num != testLog {
				break
			}
			ops, derr := decodeBatchPayload(payload)
			if derr != nil {
				malformed = true
				break
			}
			want = append(want, encodeBatchPayload(nil, ops))
			off += walHeaderLen + int64(len(payload))
		}
		if len(applied) != len(want) {
			t.Fatalf("applied %d records, the log's intact prefix has %d", len(applied), len(want))
		}
		for i := range want {
			if !bytes.Equal(applied[i], want[i]) {
				t.Fatalf("record %d applied differs from the record in the log", i)
			}
		}
		if st.records != len(want) {
			t.Fatalf("stats count %d records, %d applied", st.records, len(want))
		}

		// What stopped the walk decides the verdict.
		_, _, intact := walRecordAt(data, off)
		later := false
		if !intact && off < int64(len(data)) {
			for at := off + 1; at <= off+walScanAhead && at < int64(len(data)); at++ {
				if num, _, ok := walRecordAt(data, at); ok && num == testLog {
					later = true
					break
				}
			}
		}
		switch {
		case malformed || later:
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("replay stopped at offset %d with acknowledged data beyond it and reported %v", off, err)
			}
		case err != nil:
			t.Fatalf("replay failed on a log that merely ends at offset %d: %v", off, err)
		case st.tornTail != (!intact && off < int64(len(data))):
			t.Fatalf("torn tail = %t at offset %d of %d (intact foreign record there: %t)", st.tornTail, off, len(data), intact)
		}
	})
}

// FuzzDecodeBatchPayload: the batch decoder must not panic or over-allocate
// on any bytes, and whatever it accepts must survive a re-encode.
func FuzzDecodeBatchPayload(f *testing.F) {
	f.Add(putPayload("k", "v"))
	f.Add(encodeBatchPayload(nil, []walOp{{kind: kindDelete, key: []byte("gone")}, {kind: kindPut, key: nil, value: nil}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		ops, err := decodeBatchPayload(p)
		if err != nil {
			return
		}
		again, err := decodeBatchPayload(encodeBatchPayload(nil, ops))
		if err != nil || len(again) != len(ops) {
			t.Fatalf("re-encoded batch does not decode: %v (%d ops, want %d)", err, len(again), len(ops))
		}
		for i := range ops {
			if again[i].kind != ops[i].kind || !bytes.Equal(again[i].key, ops[i].key) || !bytes.Equal(again[i].value, ops[i].value) {
				t.Fatalf("op %d changed across a re-encode", i)
			}
		}
	})
}
