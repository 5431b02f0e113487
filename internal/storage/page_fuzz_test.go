package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// refPageValid is an independent statement of what a well-formed page is:
// PageSize bytes whose stored CRC-32 covers the rest, a header with at least
// one column, a slot count equal to the largest number of slots whose bitmap
// and tuples fit after the header, and the expected page number.
func refPageValid(buf []byte, pageNo int) bool {
	if len(buf) != PageSize {
		return false
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != crc32.ChecksumIEEE(buf[4:]) {
		return false
	}
	ncols := int(binary.LittleEndian.Uint16(buf[8:10]))
	nslots := int(binary.LittleEndian.Uint16(buf[10:12]))
	if ncols < 1 {
		return false
	}
	fit := 0
	for s := 1; (s+7)/8+s*8*ncols <= PageSize-12; s++ {
		fit = s
	}
	return nslots == fit && int(binary.LittleEndian.Uint32(buf[4:8])) == pageNo
}

// fuzzSeedPage returns the checksummed bytes of a page holding a few
// ncols-wide tuples.
func fuzzSeedPage(pageNo, ncols int) []byte {
	p := NewPage(pageNo, ncols)
	row := make([]int64, ncols)
	for i := 0; i < 5; i++ {
		for c := range row {
			row[c] = int64(i*100 + c - 7)
		}
		p.Insert(row)
	}
	p.Delete(2)
	p.UpdateChecksum()
	return append([]byte(nil), p.Bytes()...)
}

// FuzzPageFromBytes feeds arbitrary bytes to the heap-page decoder. It must
// never panic, must accept exactly the inputs refPageValid accepts — so
// every corrupted page is rejected with an error — and an accepted page must
// round-trip: its bytes are the input, its checksum is stable, and every
// slot reads back without running off the buffer. With fixCRC set the
// harness rewrites the stored checksum first, so mutations reach the header
// checks behind it.
func FuzzPageFromBytes(f *testing.F) {
	valid := fuzzSeedPage(7, 3)
	f.Add(valid, uint32(7), false)

	flipped := append([]byte(nil), valid...)
	flipped[1] ^= 0x40
	f.Add(flipped, uint32(7), false)

	badCols := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(badCols[8:10], 0)
	f.Add(badCols, uint32(7), true)

	badSlots := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(badSlots[10:12], uint16(SlotsPerPage(3)+1))
	f.Add(badSlots, uint32(7), true)

	f.Add(valid, uint32(8), false) // wrong page number
	f.Add(valid[:PageSize-1], uint32(7), false)

	f.Fuzz(func(t *testing.T, data []byte, pageNo uint32, fixCRC bool) {
		buf := append([]byte(nil), data...)
		if fixCRC && len(buf) == PageSize {
			binary.LittleEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(buf[4:]))
		}
		want := refPageValid(buf, int(pageNo))
		p, err := PageFromBytes(buf, "fuzz.heap", int(pageNo))
		if !want {
			if err == nil {
				t.Fatalf("corrupted page accepted (page %d)", pageNo)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid page rejected: %v", err)
		}
		if !bytes.Equal(p.Bytes(), buf) || p.PageNo() != int(pageNo) {
			t.Fatal("accepted page does not round-trip its bytes")
		}
		p.UpdateChecksum()
		if !bytes.Equal(p.Bytes()[0:4], buf[0:4]) {
			t.Fatal("checksum of an accepted page is not stable")
		}
		row := make([]int64, p.NCols())
		live := 0
		for slot := 0; slot < p.NumSlots(); slot++ {
			if p.ReadTuple(slot, row) {
				live++
			}
		}
		if live != p.LiveTuples() {
			t.Fatalf("read %d live tuples, LiveTuples says %d", live, p.LiveTuples())
		}
	})
}
