package codec

import (
	"bytes"
	"math"
	"testing"
)

// TestRoundTrip encodes one value of every width inside a framed section
// behind a header and reads it all back.
func TestRoundTrip(t *testing.T) {
	magic := [4]byte{'T', 'E', 'S', 'T'}
	b := AppendHeader(nil, magic, 3)
	b, start := BeginSection(b, 0x0042)
	b = AppendU16(b, 0xBEEF)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 0x0123456789ABCDEF)
	b = AppendF64(b, math.Copysign(0, -1))
	b = AppendBool(b, true)
	b = append(b, 7)
	b = EndSection(b, start)

	v, rest, err := ParseHeader(b, magic)
	if err != nil || v != 3 {
		t.Fatalf("header: version %d, %v", v, err)
	}
	id, payload, raw, err := SplitSection(rest)
	if err != nil || id != 0x0042 || len(raw) != len(rest) || len(payload)+SectionOverhead != len(raw) {
		t.Fatalf("section: id %#x, %d/%d bytes, %v", id, len(payload), len(raw), err)
	}
	r := Reader{B: payload}
	if r.U16() != 0xBEEF || r.U32() != 0xDEADBEEF || r.U64() != 0x0123456789ABCDEF {
		t.Fatal("integer round trip failed")
	}
	if f := r.F64(); f != 0 || !math.Signbit(f) {
		t.Fatalf("F64 = %v, want -0", f)
	}
	if !r.Bool() || r.U8() != 7 || r.Err != nil || r.Off != len(payload) {
		t.Fatalf("tail: off %d of %d, err %v", r.Off, len(payload), r.Err)
	}
}

// TestDefectsAreErrors checks every structural defect is an error, not a
// panic, and that a failed read sticks at its offset.
func TestDefectsAreErrors(t *testing.T) {
	magic := [4]byte{'T', 'E', 'S', 'T'}
	if _, _, err := ParseHeader([]byte("TES"), magic); err == nil {
		t.Error("short header accepted")
	}
	if _, _, err := ParseHeader([]byte("NOPE\x01\x00\x00\x00"), magic); err == nil {
		t.Error("bad magic accepted")
	}
	sec, start := BeginSection(nil, 1)
	sec = EndSection(append(sec, 1, 2, 3), start)
	for cut := 0; cut < len(sec); cut++ {
		if _, _, _, err := SplitSection(sec[:cut]); err == nil {
			t.Errorf("section cut at %d accepted", cut)
		}
	}
	flipped := bytes.Clone(sec)
	flipped[7] ^= 1
	if _, _, _, err := SplitSection(flipped); err == nil {
		t.Error("bit flip accepted")
	}

	r := Reader{B: []byte{1, 2, 3}}
	r.U16()
	if r.U32() != 0 || r.Err != ErrTruncated || r.Off != 2 {
		t.Fatalf("overrun: err %v off %d", r.Err, r.Off)
	}
	if r.U8() != 0 || r.Off != 2 {
		t.Fatal("a failed reader kept reading")
	}
}
