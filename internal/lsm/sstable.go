package lsm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sort"
)

// SSTable file format (all integers little-endian):
//
//	data block 0        followed by 4-byte CRC-32C of the block
//	data block 1        followed by 4-byte CRC-32C of the block
//	...
//	filter block        serialized bloom filter over all user keys,
//	                    followed by 4-byte CRC-32C of the block
//	index block         one entry per data block:
//	                      varint len(firstKey), firstKey,
//	                      uvarint offset, uvarint length
//	footer (40 bytes):
//	      8  index offset
//	      4  index length
//	      8  filter offset
//	      4  filter length
//	      8  entry count
//	      4  CRC-32C of the index block
//	      4  magic (0x5354424C "STBL")
//
// Index entries record the offset and length of the block PAYLOAD; the
// trailing CRC is read alongside and verified on every block fetch, so a
// flipped bit in a data block surfaces as errCorrupt instead of a wrong
// answer. The footer carries the index's own CRC; the magic doubles as a
// truncation check.
//
// Each data block is a sequence of entries:
//
//	1 byte kind (kindPut / kindDelete)
//	varint key length, key
//	varint value length, value        (puts only)
//
// Entries are in ascending key order across the whole table with no
// duplicates. Tombstones are retained until compaction decides they can be
// dropped (see compaction.go).

const (
	sstMagic        = 0x5354424c
	footerSize      = 40
	defaultBlockLen = 4096
	// blockTrailerLen is the per-block CRC-32C trailer appended after every
	// data and filter block.
	blockTrailerLen = 4
)

// tableBuilder writes one SSTable to disk.
type tableBuilder struct {
	f        *os.File
	w        *bufio.Writer
	path     string
	offset   uint64
	blockLen int

	block      []byte // current data block under construction
	indexKeys  [][]byte
	indexOffs  []uint64
	indexLens  []uint32
	blockFirst []byte

	hashes   []uint32
	count    uint64
	smallest []byte
	largest  []byte
	err      error
}

func newTableBuilder(path string, blockLen int) (*tableBuilder, error) {
	if blockLen <= 0 {
		blockLen = defaultBlockLen
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: create sstable: %w", err)
	}
	return &tableBuilder{f: f, w: bufio.NewWriterSize(f, 1<<16), path: path, blockLen: blockLen}, nil
}

// add appends an entry; keys must arrive in strictly ascending order.
func (b *tableBuilder) add(key []byte, value []byte, kind entryKind) {
	if b.err != nil {
		return
	}
	if b.largest != nil && bytes.Compare(key, b.largest) <= 0 {
		b.err = fmt.Errorf("lsm: sstable keys out of order: %q after %q", key, b.largest)
		return
	}
	if b.smallest == nil {
		b.smallest = append([]byte(nil), key...)
	}
	b.largest = append(b.largest[:0], key...)
	if len(b.block) == 0 {
		b.blockFirst = append(b.blockFirst[:0], key...)
	}
	b.block = append(b.block, byte(kind))
	b.block = binary.AppendUvarint(b.block, uint64(len(key)))
	b.block = append(b.block, key...)
	if kind == kindPut {
		b.block = binary.AppendUvarint(b.block, uint64(len(value)))
		b.block = append(b.block, value...)
	}
	b.hashes = append(b.hashes, bloomHash(key))
	b.count++
	if len(b.block) >= b.blockLen {
		b.flushBlock()
	}
}

func (b *tableBuilder) flushBlock() {
	if b.err != nil || len(b.block) == 0 {
		return
	}
	b.indexKeys = append(b.indexKeys, append([]byte(nil), b.blockFirst...))
	b.indexOffs = append(b.indexOffs, b.offset)
	b.indexLens = append(b.indexLens, uint32(len(b.block)))
	if err := b.writeChecksummed(b.block); err != nil {
		b.err = err
		return
	}
	b.block = b.block[:0]
}

// writeChecksummed writes block followed by its CRC-32C trailer and
// advances the offset past both.
func (b *tableBuilder) writeChecksummed(block []byte) error {
	if _, err := b.w.Write(block); err != nil {
		return err
	}
	var crc [blockTrailerLen]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(block, crcTable))
	if _, err := b.w.Write(crc[:]); err != nil {
		return err
	}
	b.offset += uint64(len(block)) + blockTrailerLen
	return nil
}

// finish flushes remaining data, writes filter, index and footer, and
// syncs the file. It returns table metadata on success.
func (b *tableBuilder) finish() (count uint64, smallest, largest []byte, size uint64, err error) {
	b.flushBlock()
	if b.err != nil {
		b.abandon()
		return 0, nil, nil, 0, b.err
	}
	// Filter block (checksummed like data blocks: a corrupt filter would
	// silently turn present keys into bloom misses — data loss, not just a
	// slow path).
	filter := buildBloom(b.hashes, bloomBitsPerKey).marshal()
	filterOff := b.offset
	if err := b.writeChecksummed(filter); err != nil {
		b.abandon()
		return 0, nil, nil, 0, err
	}
	// Index block.
	var index []byte
	for i := range b.indexKeys {
		index = binary.AppendUvarint(index, uint64(len(b.indexKeys[i])))
		index = append(index, b.indexKeys[i]...)
		index = binary.AppendUvarint(index, b.indexOffs[i])
		index = binary.AppendUvarint(index, uint64(b.indexLens[i]))
	}
	indexOff := b.offset
	if _, err := b.w.Write(index); err != nil {
		b.abandon()
		return 0, nil, nil, 0, err
	}
	b.offset += uint64(len(index))
	// Footer.
	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], indexOff)
	binary.LittleEndian.PutUint32(footer[8:12], uint32(len(index)))
	binary.LittleEndian.PutUint64(footer[12:20], filterOff)
	binary.LittleEndian.PutUint32(footer[20:24], uint32(len(filter)))
	binary.LittleEndian.PutUint64(footer[24:32], b.count)
	binary.LittleEndian.PutUint32(footer[32:36], crc32.Checksum(index, crcTable))
	binary.LittleEndian.PutUint32(footer[36:40], sstMagic)
	if _, err := b.w.Write(footer[:]); err != nil {
		b.abandon()
		return 0, nil, nil, 0, err
	}
	b.offset += footerSize
	if err := b.w.Flush(); err != nil {
		b.abandon()
		return 0, nil, nil, 0, err
	}
	if err := b.f.Sync(); err != nil {
		b.abandon()
		return 0, nil, nil, 0, err
	}
	if err := b.f.Close(); err != nil {
		return 0, nil, nil, 0, err
	}
	return b.count, b.smallest, b.largest, b.offset, nil
}

func (b *tableBuilder) abandon() {
	if b.f != nil {
		b.f.Close()
		os.Remove(b.path)
		b.f = nil
	}
}

// tableReader serves point lookups and ordered iteration over one SSTable.
// The index and bloom filter are held in memory; data blocks are read with
// pread so a reader is safe for concurrent use. Point lookups go through
// the DB's shared block cache (when one is configured); iteration reads
// blocks directly to keep streaming scans from evicting hot blocks.
type tableReader struct {
	f      *os.File
	num    uint64
	cache  *blockCache
	filter bloomFilter

	indexKeys [][]byte
	indexOffs []uint64
	indexLens []uint32
	count     uint64
}

func openTable(path string, num uint64, cache *blockCache) (*tableReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: open sstable: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < footerSize {
		f.Close()
		return nil, fmt.Errorf("%w: %s too small", errCorrupt, path)
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], st.Size()-footerSize); err != nil {
		f.Close()
		return nil, err
	}
	if binary.LittleEndian.Uint32(footer[36:40]) != sstMagic {
		f.Close()
		return nil, fmt.Errorf("%w: %s bad magic", errCorrupt, path)
	}
	indexOff := binary.LittleEndian.Uint64(footer[0:8])
	indexLen := binary.LittleEndian.Uint32(footer[8:12])
	filterOff := binary.LittleEndian.Uint64(footer[12:20])
	filterLen := binary.LittleEndian.Uint32(footer[20:24])
	count := binary.LittleEndian.Uint64(footer[24:32])
	indexCRC := binary.LittleEndian.Uint32(footer[32:36])

	index := make([]byte, indexLen)
	if _, err := f.ReadAt(index, int64(indexOff)); err != nil {
		f.Close()
		return nil, err
	}
	if crc32.Checksum(index, crcTable) != indexCRC {
		f.Close()
		return nil, fmt.Errorf("%w: %s index checksum", errCorrupt, path)
	}
	filterBuf := make([]byte, filterLen+blockTrailerLen)
	if _, err := f.ReadAt(filterBuf, int64(filterOff)); err != nil {
		f.Close()
		return nil, err
	}
	if crc32.Checksum(filterBuf[:filterLen], crcTable) != binary.LittleEndian.Uint32(filterBuf[filterLen:]) {
		f.Close()
		return nil, fmt.Errorf("%w: %s filter checksum", errCorrupt, path)
	}
	filterBuf = filterBuf[:filterLen]
	r := &tableReader{f: f, num: num, cache: cache, filter: unmarshalBloom(filterBuf), count: count}
	for len(index) > 0 {
		klen, n := binary.Uvarint(index)
		if n <= 0 || uint64(len(index)-n) < klen {
			f.Close()
			return nil, fmt.Errorf("%w: %s index entry", errCorrupt, path)
		}
		key := index[n : n+int(klen)]
		index = index[n+int(klen):]
		off, n := binary.Uvarint(index)
		if n <= 0 {
			f.Close()
			return nil, fmt.Errorf("%w: %s index offset", errCorrupt, path)
		}
		index = index[n:]
		blen, n := binary.Uvarint(index)
		if n <= 0 {
			f.Close()
			return nil, fmt.Errorf("%w: %s index length", errCorrupt, path)
		}
		index = index[n:]
		r.indexKeys = append(r.indexKeys, key)
		r.indexOffs = append(r.indexOffs, off)
		r.indexLens = append(r.indexLens, uint32(blen))
	}
	return r, nil
}

func (r *tableReader) close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// blockFor returns the index of the data block that could contain key, or
// -1 when the key precedes the table.
func (r *tableReader) blockFor(key []byte) int {
	// Last block whose first key <= key.
	i := sort.Search(len(r.indexKeys), func(i int) bool {
		return bytes.Compare(r.indexKeys[i], key) > 0
	})
	return i - 1
}

// readBlock fetches one data block into a fresh buffer and verifies its
// CRC trailer, so disk bit rot surfaces as errCorrupt instead of a
// silently wrong block.
func (r *tableReader) readBlock(i int) ([]byte, error) {
	b, err := r.readBlockInto(nil, i)
	return b[:len(b):len(b)], err
}

// readBlockInto is readBlock reading into buf's storage, grown when it is
// too small; the block returned aliases it and keeps its capacity.
func (r *tableReader) readBlockInto(buf []byte, i int) ([]byte, error) {
	n := r.indexLens[i]
	buf = slices.Grow(buf[:0], int(n+blockTrailerLen))[:n+blockTrailerLen]
	if _, err := r.f.ReadAt(buf, int64(r.indexOffs[i])); err != nil {
		return nil, err
	}
	if crc32.Checksum(buf[:n], crcTable) != binary.LittleEndian.Uint32(buf[n:]) {
		return nil, fmt.Errorf("%w: sstable %06d block %d checksum", errCorrupt, r.num, i)
	}
	return buf[:n], nil
}

// readBlockCached serves a data block through the DB's block cache.
// Cached blocks are immutable and shared between concurrent readers:
// values returned by get() alias them, which is covered by the kv.Store
// contract that values handed out by Get must not be modified — a caller
// violating it would now corrupt the block for later readers instead of
// only its own private copy.
func (r *tableReader) readBlockCached(i int) ([]byte, error) {
	k := blockKey{file: r.num, block: i}
	if b, ok := r.cache.get(k); ok {
		return b, nil
	}
	b, err := r.readBlock(i)
	if err == nil {
		r.cache.put(k, b)
	}
	return b, err
}

// get performs a point lookup. found=false means this table has no entry
// for the key (the search must continue in older tables); found=true with
// kind==kindDelete means the key is authoritatively deleted.
func (r *tableReader) get(key []byte) (value []byte, kind entryKind, found bool, err error) {
	if !r.filter.mayContain(bloomHash(key)) {
		return nil, 0, false, nil
	}
	bi := r.blockFor(key)
	if bi < 0 {
		return nil, 0, false, nil
	}
	block, err := r.readBlockCached(bi)
	if err != nil {
		return nil, 0, false, err
	}
	it := blockIterator{data: block}
	for it.next() {
		c := bytes.Compare(it.curKey, key)
		if c == 0 {
			return it.curVal, it.curKind, true, nil
		}
		if c > 0 {
			break
		}
	}
	if it.err != nil {
		return nil, 0, false, it.err
	}
	return nil, 0, false, nil
}

// blockIterator decodes entries sequentially from one data block.
type blockIterator struct {
	data    []byte
	curKey  []byte
	curVal  []byte
	curKind entryKind
	err     error
}

// next decodes the next entry, returning false at the end or on error.
func (it *blockIterator) next() bool {
	if len(it.data) == 0 || it.err != nil {
		return false
	}
	kind := entryKind(it.data[0])
	it.data = it.data[1:]
	if kind != kindPut && kind != kindDelete {
		it.err = errCorrupt
		return false
	}
	klen, n := binary.Uvarint(it.data)
	if n <= 0 || uint64(len(it.data)-n) < klen {
		it.err = errCorrupt
		return false
	}
	it.curKey = it.data[n : n+int(klen)]
	it.data = it.data[n+int(klen):]
	if kind == kindPut {
		vlen, n := binary.Uvarint(it.data)
		if n <= 0 || uint64(len(it.data)-n) < vlen {
			it.err = errCorrupt
			return false
		}
		it.curVal = it.data[n : n+int(vlen)]
		it.data = it.data[n+int(vlen):]
	} else {
		it.curVal = nil
	}
	it.curKind = kind
	return true
}

// tableIterator iterates a whole SSTable in key order. Every block it
// reads goes into its one buffer, so an entry's key and value are valid
// only until the next call to next — the contract of internalIterator;
// mergingIterator copies what it yields.
type tableIterator struct {
	r        *tableReader
	buf      []byte
	blockIdx int
	blk      blockIterator
	pending  *pendingEntry // one buffered entry produced by seek
	cur      pendingEntry
	err      error
	exhaust  bool
}

func (r *tableReader) iterator() *tableIterator {
	return &tableIterator{r: r, blockIdx: -1, exhaust: len(r.indexKeys) == 0}
}

// seekToFirst positions before the first entry; call next to advance.
func (it *tableIterator) seekToFirst() {
	it.blockIdx = -1
	it.blk = blockIterator{}
	it.exhaust = len(it.r.indexKeys) == 0
}

// seek positions so that the next call to next() yields the first entry
// with key >= k.
func (it *tableIterator) seek(k []byte) {
	it.exhaust = false
	it.pending = nil
	bi := it.r.blockFor(k)
	if bi < 0 {
		bi = 0
	}
	if bi >= len(it.r.indexKeys) {
		it.exhaust = true
		return
	}
	block, err := it.readBlock(bi)
	if err != nil {
		it.err = err
		return
	}
	it.blockIdx = bi
	it.blk = blockIterator{data: block}
	// Skip entries < k by buffering one look-ahead entry.
	it.pending = nil
	for it.blk.next() {
		if bytes.Compare(it.blk.curKey, k) >= 0 {
			it.pending = &pendingEntry{
				key:  append([]byte(nil), it.blk.curKey...),
				val:  append([]byte(nil), it.blk.curVal...),
				kind: it.blk.curKind,
			}
			return
		}
	}
	if it.blk.err != nil {
		it.err = it.blk.err
	}
	// Entire block < k; continue from the next block on next().
}

type pendingEntry struct {
	key, val []byte
	kind     entryKind
}

// next advances and reports whether an entry is available via key/value.
func (it *tableIterator) next() bool {
	if it.err != nil || it.exhaust {
		return false
	}
	if it.pending != nil {
		it.cur = *it.pending
		it.pending = nil
		return true
	}
	for {
		if it.blk.next() {
			it.cur = pendingEntry{key: it.blk.curKey, val: it.blk.curVal, kind: it.blk.curKind}
			return true
		}
		if it.blk.err != nil {
			it.err = it.blk.err
			return false
		}
		it.blockIdx++
		if it.blockIdx >= len(it.r.indexKeys) {
			it.exhaust = true
			return false
		}
		block, err := it.readBlock(it.blockIdx)
		if err != nil {
			it.err = err
			return false
		}
		it.blk = blockIterator{data: block}
	}
}

// readBlock reads block i into the iterator's buffer.
func (it *tableIterator) readBlock(i int) ([]byte, error) {
	block, err := it.r.readBlockInto(it.buf, i)
	if err == nil {
		it.buf = block
	}
	return block, err
}

func (it *tableIterator) key() []byte     { return it.cur.key }
func (it *tableIterator) value() []byte   { return it.cur.val }
func (it *tableIterator) kind() entryKind { return it.cur.kind }
