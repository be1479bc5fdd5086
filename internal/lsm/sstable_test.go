package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenTable is an SSTable written by an older build (c5e1cc0), whose
// builder put a filter block between the data blocks and the index and
// recorded its location in footer bytes 12–24. It holds goldenEntry(i)
// for i in [0, goldenKeys), in 256-byte blocks.
const goldenTable = "testdata/with-filter.sst"

const goldenKeys = 300

// goldenEntry is the i-th entry of goldenTable: every seventh key, from
// the fourth, is a tombstone.
func goldenEntry(i int) (key, value []byte, kind entryKind) {
	key = []byte(fmt.Sprintf("golden-%04d", i))
	if i%7 == 3 {
		return key, nil, kindDelete
	}
	return key, []byte(strings.Repeat(fmt.Sprintf("v%d-", i), i%5+1)), kindPut
}

// buildGoldenKeys writes goldenTable's entries with this build's writer.
func buildGoldenKeys(t testing.TB, path string) {
	b, err := newTableBuilder(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < goldenKeys; i++ {
		b.add(goldenEntry(i))
	}
	if _, _, _, _, err := b.finish(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenTableStillReads: a table an older build wrote, filter block
// included, opens, answers a get for every key, iterates in order and
// passes verifyTable.
func TestGoldenTableStillReads(t *testing.T) {
	data, err := os.ReadFile(goldenTable)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(data[len(data)-footerSize+20:]) == 0 {
		t.Fatal("golden table records no filter block: it no longer tests the old layout")
	}
	dir := t.TempDir()
	if err := os.WriteFile(sstPath(dir, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := openTable(sstPath(dir, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for i := 0; i < goldenKeys; i++ {
		key, value, kind := goldenEntry(i)
		v, k, found, err := r.get(key)
		if err != nil || !found || k != kind || !bytes.Equal(v, value) {
			t.Fatalf("get %q = %q kind %v found %v err %v; want %q kind %v", key, v, k, found, err, value, kind)
		}
	}
	if _, _, found, err := r.get([]byte("golden-0299x")); found || err != nil {
		t.Fatalf("absent key: found %v err %v", found, err)
	}
	it := r.iterator()
	i := 0
	for it.seekToFirst(); it.next(); i++ {
		key, value, kind := goldenEntry(i)
		if !bytes.Equal(it.key(), key) || !bytes.Equal(it.value(), value) || it.kind() != kind {
			t.Fatalf("entry %d = %q %q %v; want %q %q %v", i, it.key(), it.value(), it.kind(), key, value, kind)
		}
	}
	if it.err != nil || i != goldenKeys {
		t.Fatalf("iterated %d entries, err %v", i, it.err)
	}
	first, _, _ := goldenEntry(0)
	last, _, _ := goldenEntry(goldenKeys - 1)
	var rep VerifyReport
	if err := verifyTable(dir, editFile{Num: 1, Count: goldenKeys, Smallest: first, Largest: last}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != r.blocks() || rep.Entries != goldenKeys {
		t.Fatalf("verified %d blocks, %d entries; want %d, %d", rep.Blocks, rep.Entries, r.blocks(), goldenKeys)
	}
}

// TestNewTableWritesNoFilter: the same entries written now leave footer
// bytes 12–24 zero and make a smaller file than the golden table.
func TestNewTableWritesNoFilter(t *testing.T) {
	golden, err := os.ReadFile(goldenTable)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.sst")
	buildGoldenKeys(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footer := data[len(data)-footerSize:]
	if !bytes.Equal(footer[12:24], make([]byte, 12)) {
		t.Fatalf("footer bytes 12–24 = %x, want zero", footer[12:24])
	}
	if len(data) >= len(golden) {
		t.Fatalf("new table is %d bytes, the golden one with a filter %d", len(data), len(golden))
	}
	// Everything before the old filter block is the same data blocks.
	filterOff := binary.LittleEndian.Uint64(golden[len(golden)-footerSize+12:])
	if !bytes.Equal(data[:filterOff], golden[:filterOff]) {
		t.Fatal("data blocks differ from the golden table's")
	}
}

// rewriteIndex returns table with its index entries changed by edit and
// the footer's index length and CRC made to match.
func rewriteIndex(t *testing.T, table []byte, edit func(i int, key []byte, off, n uint64) (uint64, uint64)) []byte {
	footer := table[len(table)-footerSize:]
	indexOff := binary.LittleEndian.Uint64(footer[0:8])
	index := table[indexOff : uint64(len(table))-footerSize]
	out := append([]byte(nil), table[:indexOff]...)
	var newIndex []byte
	for i := 0; len(index) > 0; i++ {
		key, off, n, rest, ok := indexEntry(index)
		if !ok {
			t.Fatal("test table has a malformed index")
		}
		off, n = edit(i, key, off, n)
		newIndex = binary.AppendUvarint(newIndex, uint64(len(key)))
		newIndex = append(newIndex, key...)
		newIndex = binary.AppendUvarint(newIndex, off)
		newIndex = binary.AppendUvarint(newIndex, n)
		index = rest
	}
	out = append(out, newIndex...)
	f := append([]byte(nil), footer...)
	binary.LittleEndian.PutUint32(f[8:12], uint32(len(newIndex)))
	binary.LittleEndian.PutUint32(f[32:36], crc32.Checksum(newIndex, crcTable))
	return append(out, f...)
}

// TestOpenTableChecksFooterLengths: a length in the footer or the index
// that runs past what holds it is errCorrupt at open, before anything is
// read or allocated for it.
func TestOpenTableChecksFooterLengths(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildGoldenKeys(t, path)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{}
	long := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(long[len(long)-footerSize+8:], uint32(len(good)+1))
	cases["index one byte longer than the file"] = long
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[len(huge)-footerSize+8:], 1<<31)
	cases["index of 2 GiB"] = huge
	past := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(past[len(past)-footerSize:], uint64(len(good)))
	cases["index starting past the footer"] = past
	cases["a block of 64 MiB"] = rewriteIndex(t, good, func(i int, _ []byte, off, n uint64) (uint64, uint64) {
		if i == 3 {
			n = 64 << 20
		}
		return off, n
	})
	cases["a block running into the index"] = rewriteIndex(t, good, func(i int, _ []byte, off, n uint64) (uint64, uint64) {
		if i == 3 {
			n += 4096
		}
		return off, n
	})
	cases["a block overlapping the one before"] = rewriteIndex(t, good, func(i int, _ []byte, off, n uint64) (uint64, uint64) {
		if i == 3 {
			off--
		}
		return off, n
	})
	for name, data := range cases {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := openTable(path, 0)
		if err == nil {
			r.close()
		}
		if !errors.Is(err, errCorrupt) {
			t.Errorf("%s: openTable = %v, want errCorrupt", name, err)
		}
	}
}
