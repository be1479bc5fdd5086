package lsm

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"sistream/internal/kv"
)

// The tests inject records at the framing level — arbitrary payloads, hand
// built batches — which the production writer has no use for: DB.Apply
// only ever logs a kv.Batch (walWriter.appendBatch).

// append writes payload as one record, syncing the file when sync is true.
func (w *walWriter) append(payload []byte, sync bool) error {
	if w.err != nil {
		return w.err
	}
	var hdr [walHeaderLen]byte
	w.buf = append(append(w.buf[:0], hdr[:]...), payload...)
	if err := w.writeRecord(); err != nil || !sync {
		return err
	}
	return w.sync()
}

// reopenWAL opens an existing log file positioned at its end, the way a
// crash scenario continues a log the DB has closed.
func reopenWAL(t *testing.T, path string) *walWriter {
	t.Helper()
	num, err := walNumOf(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWALWriter(path, num)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := w.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	w.off = fi.Size()
	return w
}

// encodeBatchPayload serializes ops into buf: the reference encoding of a
// record payload, written independently of appendBatch.
func encodeBatchPayload(buf []byte, ops []walOp) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		buf = append(buf, byte(op.kind))
		buf = binary.AppendUvarint(buf, uint64(len(op.key)))
		buf = append(buf, op.key...)
		if op.kind == kindPut {
			buf = binary.AppendUvarint(buf, uint64(len(op.value)))
			buf = append(buf, op.value...)
		}
	}
	return buf
}

// TestAppendBatchBytesMatchReference: encoding a kv.Batch straight into
// the writer's buffer must put the same bytes on disk as framing the
// reference payload — across a buffer reuse, an empty batch, an empty
// value and a delete carrying a stray value.
func TestAppendBatchBytesMatchReference(t *testing.T) {
	dir := t.TempDir()
	batches := [][]kv.Op{
		{{Kind: kv.OpPut, Key: []byte("a-long-first-key"), Value: bytes.Repeat([]byte("v"), 300)}, {Kind: kv.OpDelete, Key: []byte("gone")}},
		{},
		{{Kind: kv.OpPut, Key: []byte("k"), Value: nil}, {Kind: kv.OpDelete, Key: []byte("d"), Value: []byte("ignored")}},
	}
	direct, err := newWALWriter(filepath.Join(dir, "direct.log"), 7)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newWALWriter(filepath.Join(dir, "ref.log"), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, ops := range batches {
		if err := direct.appendBatch(ops); err != nil {
			t.Fatal(err)
		}
		wops := make([]walOp, 0, len(ops))
		for _, op := range ops {
			wops = append(wops, walOp{kind: walKind(op.Kind), key: op.Key, value: op.Value})
		}
		if err := ref.append(encodeBatchPayload(nil, wops), false); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []*walWriter{direct, ref} {
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "direct.log"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "ref.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appendBatch wrote %d bytes that differ from the reference framing (%d bytes)", len(got), len(want))
	}
	// And both match the framing spelled out by hand: length, CRC over log
	// number + payload, log number, payload.
	var byHand []byte
	for _, ops := range batches {
		wops := make([]walOp, 0, len(ops))
		for _, op := range ops {
			wops = append(wops, walOp{kind: walKind(op.Kind), key: op.Key, value: op.Value})
		}
		byHand = frameRecord(byHand, 7, encodeBatchPayload(nil, wops))
	}
	if !bytes.Equal(got, byHand) {
		t.Fatalf("record framing on disk differs from the documented layout")
	}
}

// frameRecord appends payload to log as one record of log logNum: the
// reference framing, written independently of walWriter.writeRecord.
func frameRecord(log []byte, logNum uint64, payload []byte) []byte {
	body := binary.LittleEndian.AppendUint64(nil, logNum)
	body = append(body, payload...)
	log = binary.LittleEndian.AppendUint32(log, uint32(len(payload)))
	log = binary.LittleEndian.AppendUint32(log, crc32.Checksum(body, crcTable))
	return append(log, body...)
}

// putPayload is the payload of a single-put batch.
func putPayload(key, value string) []byte {
	return encodeBatchPayload(nil, []walOp{{kind: kindPut, key: []byte(key), value: []byte(value)}})
}
