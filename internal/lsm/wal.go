package lsm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"sistream/internal/kv"
)

// The write-ahead log makes batched writes durable before they are applied
// to the memtable. One log file corresponds to one memtable generation; it
// is deleted after the memtable has been flushed to an SSTable and the
// manifest records the new table.
//
// Record framing:
//
//	uint32 little-endian payload length
//	uint32 little-endian CRC-32C of the payload
//	payload
//
// The payload is a batch: varint op count, then for each op a kind byte
// (kindPut/kindDelete), varint key length, key bytes, and for puts a
// varint value length plus value bytes. Torn tails (partial records from a
// crash mid-write) are detected by length/CRC mismatch and discarded, which
// is correct because a torn record was never acknowledged as durable.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt reports a malformed WAL or SSTable structure.
var errCorrupt = errors.New("lsm: corrupt file")

// walWriter appends framed records to a log file. Its error is STICKY:
// after a failed (or short) write or a failed fsync the log's durable
// contents are unknown — the kernel may have dropped the dirty pages
// after reporting the fsync error (the fsyncgate behavior), so a later
// append or sync reporting success would be a lie. Every subsequent
// operation returns the original error; only rotating to a fresh log
// file clears the condition.
type walWriter struct {
	f   *os.File
	buf []byte
	err error // first write/sync failure; sticky (see type comment)
}

func newWALWriter(path string) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: open wal: %w", err)
	}
	return &walWriter{f: f}, nil
}

// walHeaderLen is the size of a record's length+CRC header.
const walHeaderLen = 8

// appendBatch writes ops as one record, syncing the file when sync is
// true. The payload is encoded straight into the writer's reusable buffer
// behind a placeholder for the header, so a record costs no allocation
// and no second copy.
func (w *walWriter) appendBatch(ops []kv.Op, sync bool) error {
	if w.err != nil {
		return w.err
	}
	var hdr [walHeaderLen]byte
	w.buf = append(w.buf[:0], hdr[:]...)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(ops)))
	for _, op := range ops {
		kind := walKind(op.Kind)
		w.buf = append(w.buf, byte(kind))
		w.buf = binary.AppendUvarint(w.buf, uint64(len(op.Key)))
		w.buf = append(w.buf, op.Key...)
		if kind == kindPut {
			w.buf = binary.AppendUvarint(w.buf, uint64(len(op.Value)))
			w.buf = append(w.buf, op.Value...)
		}
	}
	return w.writeRecord(sync)
}

// walKind maps a batch operation kind to the entry kind logged for it.
func walKind(k kv.OpKind) entryKind {
	if k == kv.OpDelete {
		return kindDelete
	}
	return kindPut
}

// writeRecord frames the payload sitting in w.buf behind the header
// placeholder, writes the record and optionally syncs, latching the first
// failure.
func (w *walWriter) writeRecord(sync bool) error {
	payload := w.buf[walHeaderLen:]
	binary.LittleEndian.PutUint32(w.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.f.Write(w.buf); err != nil {
		w.err = fmt.Errorf("lsm: wal write: %w", err)
		return w.err
	}
	if sync {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("lsm: wal sync: %w", err)
			return w.err
		}
	}
	return nil
}

// sync fsyncs the log, latching any failure like appendBatch does.
func (w *walWriter) sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("lsm: wal sync: %w", err)
		return w.err
	}
	return nil
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// walReplayStats summarizes one replayWAL pass: how many durable records
// were applied and whether the log ended in a torn final record (a
// partial append from a crash, discarded as never-acknowledged). DB.Open
// accumulates these into the counters DB.Stats reports.
type walReplayStats struct {
	records  int
	tornTail bool
}

// replayWAL reads records from path in order, calling apply for each
// decoded batch. It tolerates (and stops at) a torn FINAL record — a
// partial write from a crash mid-append, which was never acknowledged as
// durable — but a record that fails its CRC (or declares an implausible
// length) with more log data after it is mid-file corruption: records
// beyond it WERE acknowledged durable, so silently dropping them would be
// data loss. That case surfaces errCorrupt with the record's offset; the
// torn-tail test is purely physical — the broken record must extend to
// the end of the file. (DumpWAL is the salvage path for corrupt logs:
// it can skip the broken record and recover what follows.)
func replayWAL(path string, apply func(ops []walOp) error) (walReplayStats, error) {
	var st walReplayStats
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return st, err
	}
	size := fi.Size()
	r := bufio.NewReaderSize(f, 1<<16)
	var (
		hdr [8]byte
		off int64 // offset of the current record's header
	)
	// tornTail reports whether a record at off declaring n payload bytes
	// reaches (or overruns) the physical end of the log — the only place
	// a partial append can live.
	tornTail := func(n uint32) bool { return off+8+int64(n) >= size }
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return st, nil // clean end
			}
			if err == io.ErrUnexpectedEOF {
				st.tornTail = true // torn header: stop
				return st, nil
			}
			return st, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxWALPayload {
			// Implausible length: a torn header at the tail, or garbage in
			// the middle of the log with real records after it.
			if tornTail(n) {
				st.tornTail = true
				return st, nil
			}
			return st, fmt.Errorf("%w: wal record at offset %d: implausible length %d with %d bytes following",
				errCorrupt, off, n, size-off-8)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				st.tornTail = true // torn payload (reaches EOF by construction)
				return st, nil
			}
			return st, err
		}
		if crc32.Checksum(payload, crcTable) != want {
			if tornTail(n) {
				st.tornTail = true // torn tail; everything durable precedes it
				return st, nil
			}
			return st, fmt.Errorf("%w: wal record at offset %d: crc mismatch with %d bytes of log following",
				errCorrupt, off, size-(off+8+int64(n)))
		}
		ops, err := decodeBatchPayload(payload)
		if err != nil {
			return st, fmt.Errorf("%w: wal record at offset %d: malformed batch payload", errCorrupt, off)
		}
		if err := apply(ops); err != nil {
			return st, err
		}
		st.records++
		off += 8 + int64(n)
	}
}

// maxWALPayload bounds a plausible WAL record payload (1 GiB); larger
// declared lengths are treated as corruption.
const maxWALPayload = 1 << 30

// walOp is one decoded WAL operation.
type walOp struct {
	kind  entryKind
	key   []byte
	value []byte
}

func decodeBatchPayload(p []byte) ([]walOp, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, errCorrupt
	}
	p = p[n:]
	ops := make([]walOp, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(p) < 1 {
			return nil, errCorrupt
		}
		kind := entryKind(p[0])
		p = p[1:]
		if kind != kindPut && kind != kindDelete {
			return nil, errCorrupt
		}
		klen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < klen {
			return nil, errCorrupt
		}
		key := p[n : n+int(klen)]
		p = p[n+int(klen):]
		var val []byte
		if kind == kindPut {
			vlen, n := binary.Uvarint(p)
			if n <= 0 || uint64(len(p)-n) < vlen {
				return nil, errCorrupt
			}
			val = p[n : n+int(vlen)]
			p = p[n+int(vlen):]
		}
		ops = append(ops, walOp{kind: kind, key: key, value: val})
	}
	if len(p) != 0 {
		return nil, errCorrupt
	}
	return ops, nil
}
