package isa

import (
	"encoding/binary"
	"fmt"
)

// Binary instruction encoding.
//
// The paper proposes keeping the multiscalar tag bits in a table beside an
// unmodified base-ISA text segment and concatenating the two on an
// instruction cache miss (Section 2.2). We reproduce exactly that wire
// format: each instruction encodes to a 64-bit word whose low 32 bits are
// the base instruction and whose high bits are the tag-table entry
// (forward bit + stop condition). Target addresses are carried in the
// immediate field as text-relative word offsets so the full 32-bit address
// space stays reachable.
//
// Layout (bit 0 = LSB):
//
//	base word  [31:24] op  [23:18] rd  [17:12] rs  [11:6] rt  [5:0] unused
//	tag word   [63:32] imm/target  ... except tag bits:
//
// Since a 32-bit immediate plus register fields cannot fit one 32-bit
// word, the encoding is 96 bits on disk: base word, extension word
// (immediate/target), and tag byte. EncodedSize is that fixed size.
const EncodedSize = 9 // 4 base + 4 extension + 1 tag byte

// Encode appends the binary form of the instruction to buf.
func (i *Instr) Encode(buf []byte) []byte {
	var base uint32
	base |= uint32(i.Op) << 24
	base |= uint32(i.Rd&0x3f) << 18
	base |= uint32(i.Rs&0x3f) << 12
	base |= uint32(i.Rt&0x3f) << 6
	var ext uint32
	if i.Op.HasTarget() {
		ext = i.Target
	} else {
		ext = uint32(i.Imm)
	}
	var tag byte
	if i.Fwd {
		tag |= 1 << 2
	}
	tag |= byte(i.Stop) & 3
	buf = binary.BigEndian.AppendUint32(buf, base)
	buf = binary.BigEndian.AppendUint32(buf, ext)
	return append(buf, tag)
}

// DecodeInstr decodes one instruction from buf, returning it and the
// number of bytes consumed.
func DecodeInstr(buf []byte) (Instr, int, error) {
	if len(buf) < EncodedSize {
		return Instr{}, 0, fmt.Errorf("isa: short instruction encoding (%d bytes)", len(buf))
	}
	base := binary.BigEndian.Uint32(buf)
	ext := binary.BigEndian.Uint32(buf[4:])
	tag := buf[8]
	in := Instr{
		Op: Op(base >> 24),
		Rd: Reg((base >> 18) & 0x3f),
		Rs: Reg((base >> 12) & 0x3f),
		Rt: Reg((base >> 6) & 0x3f),
	}
	if !in.Op.Valid() {
		return Instr{}, 0, fmt.Errorf("isa: invalid opcode %d", base>>24)
	}
	if in.Op.HasTarget() {
		in.Target = ext
	} else {
		in.Imm = int32(ext)
	}
	in.Fwd = tag&(1<<2) != 0
	in.Stop = StopCond(tag & 3)
	return in, EncodedSize, nil
}

// EncodeText encodes a whole text segment.
func EncodeText(text []Instr) []byte {
	buf := make([]byte, 0, len(text)*EncodedSize)
	for i := range text {
		buf = text[i].Encode(buf)
	}
	return buf
}

// DecodeText decodes a whole text segment.
func DecodeText(buf []byte) ([]Instr, error) {
	if len(buf)%EncodedSize != 0 {
		return nil, fmt.Errorf("isa: text length %d not a multiple of %d", len(buf), EncodedSize)
	}
	out := make([]Instr, 0, len(buf)/EncodedSize)
	for off := 0; off < len(buf); off += EncodedSize {
		in, _, err := DecodeInstr(buf[off:])
		if err != nil {
			return nil, fmt.Errorf("isa: at instruction %d: %w", off/EncodedSize, err)
		}
		out = append(out, in)
	}
	return out, nil
}
