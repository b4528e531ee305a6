// Package codec holds the little-endian binary building blocks shared by
// the controller's two on-disk formats, the state snapshot
// (internal/snapshot) and the black-box segment (internal/blackbox):
// fixed-width append helpers, a bounds-checked reader, the 8-byte
// magic/version header, and CRC32 section framing.
//
//	header:  magic [4] | version u16 | flags u16 (reserved, zero)
//	section: id u16 | length u32 | payload [length] | crc32 u32
//
// All integers are little-endian; floats are IEEE-754 bit patterns. A
// section's CRC (IEEE) covers its id, length and payload.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// HeaderSize is the fixed prefix before the first section.
const HeaderSize = 8

// SectionOverhead is the framing a section adds around its payload: id,
// length and CRC.
const SectionOverhead = 2 + 4 + 4

func AppendU16(b []byte, v uint16) []byte  { return binary.LittleEndian.AppendUint16(b, v) }
func AppendU32(b []byte, v uint32) []byte  { return binary.LittleEndian.AppendUint32(b, v) }
func AppendU64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendHeader appends the format header: magic, version, zero flags.
func AppendHeader(dst []byte, magic [4]byte, version uint16) []byte {
	dst = append(dst, magic[:]...)
	dst = AppendU16(dst, version)
	return AppendU16(dst, 0)
}

// ParseHeader checks data's size and magic and returns the header's
// version and the bytes after it. Version policy is the caller's.
func ParseHeader(data []byte, magic [4]byte) (version uint16, rest []byte, err error) {
	if len(data) < HeaderSize {
		return 0, nil, fmt.Errorf("%d bytes, want at least the %d-byte header", len(data), HeaderSize)
	}
	if [4]byte(data[:4]) != magic {
		return 0, nil, fmt.Errorf("bad magic %q", data[:4])
	}
	return binary.LittleEndian.Uint16(data[4:]), data[HeaderSize:], nil
}

// BeginSection appends a section header with a zero length placeholder
// and returns the offset of the section start, for EndSection.
func BeginSection(b []byte, id uint16) ([]byte, int) {
	start := len(b)
	b = AppendU16(b, id)
	return AppendU32(b, 0), start
}

// EndSection backfills the length of the section begun at start and
// appends the CRC over id, length and payload.
func EndSection(b []byte, start int) []byte {
	binary.LittleEndian.PutUint32(b[start+2:], uint32(len(b)-start-6))
	return AppendU32(b, crc32.Checksum(b[start:], crc32.IEEETable))
}

// SplitSection frames the first section of b: its id, its payload, and
// raw, the whole framing (id through CRC), so the next section starts at
// b[len(raw):]. It errors on a fragment shorter than the framing, a
// length running past the end of b, or a CRC mismatch. It never panics.
func SplitSection(b []byte) (id uint16, payload, raw []byte, err error) {
	if len(b) < 6 {
		return 0, nil, nil, fmt.Errorf("%d-byte trailing fragment", len(b))
	}
	id = binary.LittleEndian.Uint16(b)
	n := binary.LittleEndian.Uint32(b[2:])
	total := uint64(n) + SectionOverhead
	if uint64(len(b)) < total {
		return id, nil, nil, fmt.Errorf("section 0x%04x: length %d exceeds remaining %d bytes", id, n, len(b))
	}
	crcOff := 6 + int(n)
	want := binary.LittleEndian.Uint32(b[crcOff:])
	if got := crc32.Checksum(b[:crcOff], crc32.IEEETable); got != want {
		return id, nil, nil, fmt.Errorf("section 0x%04x: CRC 0x%08x, want 0x%08x", id, got, want)
	}
	return id, b[6:crcOff], b[:total], nil
}

// ErrTruncated is the error a Reader records when a read runs past the
// end of its buffer.
var ErrTruncated = errors.New("truncated")

// Reader is a bounds-checked cursor over one payload. A read past the end
// sets Err, leaves Off at the failing offset and returns zero, and so
// does every later read: decoders check Err once per payload, and
// malformed input can only produce an error, never a panic.
type Reader struct {
	B   []byte
	Off int
	Err error
}

// ok reports whether n more bytes can be read, failing the reader when
// they cannot.
func (r *Reader) ok(n int) bool {
	if r.Err != nil || r.Off+n > len(r.B) {
		r.Err = ErrTruncated
		return false
	}
	return true
}

func (r *Reader) U8() uint8 {
	if !r.ok(1) {
		return 0
	}
	r.Off++
	return r.B[r.Off-1]
}

func (r *Reader) U16() uint16 {
	if !r.ok(2) {
		return 0
	}
	r.Off += 2
	return binary.LittleEndian.Uint16(r.B[r.Off-2:])
}

func (r *Reader) U32() uint32 {
	if !r.ok(4) {
		return 0
	}
	r.Off += 4
	return binary.LittleEndian.Uint32(r.B[r.Off-4:])
}

func (r *Reader) U64() uint64 {
	if !r.ok(8) {
		return 0
	}
	r.Off += 8
	return binary.LittleEndian.Uint64(r.B[r.Off-8:])
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }
func (r *Reader) Bool() bool   { return r.U8() != 0 }
