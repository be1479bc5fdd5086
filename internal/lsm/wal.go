package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sistream/internal/kv"
)

// The write-ahead log makes batched writes durable before they are applied
// to the memtable. One log file corresponds to one memtable generation.
// Once that memtable has been flushed to an SSTable and the manifest
// records the table, the file is retired: kept aside (one at a time —
// with one memtable active and one being flushed, a switch always finds
// the generation before those retired) and, at the next switch, renamed
// to the new log number and overwritten from offset 0. Overwriting blocks the file
// already owns changes neither its size nor its extents, so a data-only
// sync (fdatasync) needs no file-system journal commit — that is the
// whole point of recycling. A log that is new (the first after Open, or a
// rotation that found nothing retired) grows by the same positional
// writes; there the sync also has to commit the new size.
//
// Record framing:
//
//	uint32 little-endian payload length
//	uint32 little-endian CRC-32C of the log number and the payload
//	uint64 little-endian log number (the file's number when written)
//	payload
//
// The payload is a batch: varint op count, then for each op a kind byte
// (kindPut/kindDelete), varint key length, key bytes, and for puts a
// varint value length plus value bytes.
//
// A recycled file still holds the records of its previous life behind the
// ones written so far, which is what the log number under the CRC is for.
// Replay of log N walks the records from offset 0 and ends
//
//   - cleanly at the end of the file, or at an intact record of another
//     log (the stale tail of a previous life);
//   - as a torn tail at a record that fails validation, when no intact
//     record of log N starts in the walScanAhead bytes after it — a
//     partial append from a crash, never acknowledged as durable, or the
//     middle of a stale record (the two cannot be told apart, and need
//     not be);
//   - with errCorrupt at a record that fails validation with an intact
//     record of log N after it: that later record was acknowledged, so
//     dropping it silently would be data loss.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt reports a malformed WAL or SSTable structure.
var errCorrupt = errors.New("lsm: corrupt file")

const (
	// walHeaderLen is the size of a record's length+CRC+log-number header.
	walHeaderLen = 16
	// maxWALPayload bounds a plausible WAL record payload (1 GiB); larger
	// declared lengths are treated as corruption.
	maxWALPayload = 1 << 30
	// walScanAhead is how far past a record that fails validation replay
	// looks for a later intact record of the same log before calling the
	// failure a torn tail. It bounds the recovery cost of a damaged or
	// stale tail and covers a damaged length field of any record up to
	// this size (a record whose length field is intact is probed at its
	// declared end regardless).
	walScanAhead = 4 << 20
)

// walWriter writes framed records into a log file at a tracked offset.
// Its error is STICKY: after a failed (or short) write or a failed sync
// the log's durable contents are unknown — the kernel may have dropped
// the dirty pages after reporting the sync error (the fsyncgate behavior),
// so a later write or sync reporting success would be a lie. Every
// subsequent operation returns the original error; only rotating to
// another log file clears the condition.
type walWriter struct {
	f   *os.File
	num uint64 // log number stamped into every record
	off int64  // where the next record goes
	buf []byte
	// unsynced is set by a write and cleared by a sync, so rotation can
	// make an old log durable before a newer one acknowledges anything.
	unsynced bool
	// datasync makes the file's written data durable (fdatasync where the
	// platform has it); a field so tests can inject a failing device.
	datasync func(*os.File) error
	err      error // first write/sync failure; sticky (see type comment)
}

// newWALWriter opens the log file at path for log number num, creating it
// when absent, and positions the writer at offset 0.
func newWALWriter(path string, num uint64) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: open wal: %w", err)
	}
	return &walWriter{f: f, num: num, datasync: fdatasync}, nil
}

// recycleWAL turns the retired log old into log num: the file keeps its
// blocks, and everything in it is stale from here on.
func recycleWAL(dir string, old, num uint64) (*walWriter, error) {
	if err := os.Rename(walPath(dir, old), walPath(dir, num)); err != nil {
		return nil, fmt.Errorf("lsm: recycle wal: %w", err)
	}
	return newWALWriter(walPath(dir, num), num)
}

// appendBatch writes ops as one record (without syncing; see sync). The
// payload is encoded straight into the writer's reusable buffer behind a
// placeholder for the header, so a record costs no allocation and no
// second copy.
func (w *walWriter) appendBatch(ops []kv.Op) error {
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
	return w.writeRecord()
}

// walKind maps a batch operation kind to the entry kind logged for it.
func walKind(k kv.OpKind) entryKind {
	if k == kv.OpDelete {
		return kindDelete
	}
	return kindPut
}

// writeRecord frames the payload sitting in w.buf behind the header
// placeholder and writes the record at the writer's offset, latching the
// first failure.
func (w *walWriter) writeRecord() error {
	binary.LittleEndian.PutUint32(w.buf[0:4], uint32(len(w.buf)-walHeaderLen))
	binary.LittleEndian.PutUint64(w.buf[8:16], w.num)
	binary.LittleEndian.PutUint32(w.buf[4:8], crc32.Checksum(w.buf[8:], crcTable))
	if _, err := w.f.WriteAt(w.buf, w.off); err != nil {
		w.err = fmt.Errorf("lsm: wal write: %w", err)
		return w.err
	}
	w.off += int64(len(w.buf))
	w.unsynced = true
	return nil
}

// sync makes every record written so far durable, latching any failure
// like a write does.
func (w *walWriter) sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.datasync(w.f); err != nil {
		w.err = fmt.Errorf("lsm: wal sync: %w", err)
		return w.err
	}
	w.unsynced = false
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

// walNumOf parses the log number out of a WAL file path ("000042.wal").
func walNumOf(path string) (uint64, error) {
	name := filepath.Base(path)
	num, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
	if err != nil || !strings.HasSuffix(name, ".wal") {
		return 0, fmt.Errorf("lsm: %q is not a wal file name (want <number>.wal)", name)
	}
	return num, nil
}

// walRecordAt validates the record starting at off: the header fits, the
// declared length is plausible and inside the file, and the CRC matches.
// It does not look at the log number — an intact record of another log is
// still intact.
func walRecordAt(data []byte, off int64) (logNum uint64, payload []byte, ok bool) {
	if off < 0 || off+walHeaderLen > int64(len(data)) {
		return 0, nil, false
	}
	n := binary.LittleEndian.Uint32(data[off : off+4])
	end := off + walHeaderLen + int64(n)
	if n > maxWALPayload || end > int64(len(data)) {
		return 0, nil, false
	}
	if crc32.Checksum(data[off+8:end], crcTable) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(data[off+8 : off+16]), data[off+walHeaderLen : end], true
}

// walRecordAfter returns the offset of the first intact record of log
// logNum that starts after the broken record at off, or -1: the record
// the broken one's own length field points at, else the first one that
// starts within window bytes. Candidates are found by their log-number
// bytes, so the CRC is only computed where a header could be.
func walRecordAfter(data []byte, off int64, logNum uint64, window int64) int64 {
	intact := func(at int64) bool {
		num, _, ok := walRecordAt(data, at)
		return ok && num == logNum
	}
	if off+4 <= int64(len(data)) {
		if next := off + walHeaderLen + int64(binary.LittleEndian.Uint32(data[off:off+4])); intact(next) {
			return next
		}
	}
	var pat [8]byte
	binary.LittleEndian.PutUint64(pat[:], logNum)
	// s walks log-number fields: a record starting at s-8 has its own at s.
	end := min(int64(len(data)), off+8+window+8)
	for s := off + 1 + 8; s < end; s++ {
		i := bytes.Index(data[s:end], pat[:])
		if i < 0 {
			break
		}
		s += int64(i)
		if intact(s - 8) {
			return s - 8
		}
	}
	return -1
}

// walEnd says how a pass over a log stopped.
type walEnd int

const (
	walMore       walEnd = iota // not an end: a record was returned
	walEndClean                 // end of file
	walEndStale                 // an intact record of another log: the previous life's tail
	walEndTorn                  // a broken record with no record of this log after it
	walEndCorrupt               // a broken record with acknowledged records after it
)

// walCursor walks the records of one log held in memory.
type walCursor struct {
	data   []byte
	logNum uint64
	off    int64 // where next looks
	window int64 // how far past a broken record to look for a later one
}

// next returns the payload of the intact record of this log at c.off and
// moves past it (walMore), or says how the log ends there, leaving c.off
// in place. For walEndCorrupt, resume is where the next intact record of
// this log starts.
func (c *walCursor) next() (payload []byte, end walEnd, resume int64) {
	if c.off >= int64(len(c.data)) {
		return nil, walEndClean, 0
	}
	num, payload, intact := walRecordAt(c.data, c.off)
	switch {
	case intact && num == c.logNum:
		c.off += walHeaderLen + int64(len(payload))
		return payload, walMore, 0
	case intact:
		return nil, walEndStale, 0
	}
	if resume = walRecordAfter(c.data, c.off, c.logNum, c.window); resume >= 0 {
		return nil, walEndCorrupt, resume
	}
	return nil, walEndTorn, 0
}

// walReplayStats summarizes one replayWAL pass: how many durable records
// were applied and whether the log ended in a record that failed
// validation (a partial append from a crash, or the remains of a recycled
// file's previous life — discarded as never-acknowledged either way).
// DB.Open accumulates these into the counters DB.Stats reports.
type walReplayStats struct {
	records  int
	tornTail bool
}

// replayWAL reads the records of the log at path in order, calling apply
// for each decoded batch (the ops alias the read buffer and are valid only
// during the call). The log number comes from the file name; the rules
// for where the log ends, and when a broken record is corruption instead,
// are the ones in the framing comment at the top of this file. The file
// is read into memory whole: one memtable generation's log, the same
// order of size as the memtable it rebuilds. (DumpWAL is the salvage path
// for corrupt logs: it can skip the broken record and recover what
// follows.)
func replayWAL(path string, apply func(ops []walOp) error) (walReplayStats, error) {
	logNum, err := walNumOf(path)
	if err != nil {
		return walReplayStats{}, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			err = nil
		}
		return walReplayStats{}, err
	}
	return replayWALData(data, logNum, apply)
}

// replayWALData is replayWAL over the bytes of log logNum.
func replayWALData(data []byte, logNum uint64, apply func(ops []walOp) error) (walReplayStats, error) {
	var st walReplayStats
	c := walCursor{data: data, logNum: logNum, window: walScanAhead}
	for {
		at := c.off
		payload, end, resume := c.next()
		switch end {
		case walEndClean, walEndStale:
			return st, nil
		case walEndTorn:
			st.tornTail = true
			return st, nil
		case walEndCorrupt:
			return st, fmt.Errorf("%w: wal record at offset %d fails validation with an intact record of log %d at offset %d",
				errCorrupt, at, logNum, resume)
		}
		ops, err := decodeBatchPayload(payload)
		if err != nil {
			return st, fmt.Errorf("%w: wal record at offset %d: malformed batch payload", errCorrupt, at)
		}
		if err := apply(ops); err != nil {
			return st, err
		}
		st.records++
	}
}

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
	// Every op takes at least two bytes, so a count beyond that is garbage
	// (and must not size an allocation).
	if count > uint64(len(p)) {
		return nil, errCorrupt
	}
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
