package isa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Binary program container ("MSCB"): the on-disk form of a multiscalar
// binary — text in the wire encoding of encode.go, initialized data, task
// descriptors (the paper's "multiscalar information … located within or
// perhaps to the side of the program text", §2.2), and the symbol table.
// msas can emit it and mssim can run it, which is exactly the paper's
// software-migration story: regenerating the multiscalar information
// produces a new container around the same core instructions.

var containerMagic = [4]byte{'M', 'S', 'C', 'B'}

const containerVersion = 1

// WriteProgram serializes a program to w.
func WriteProgram(w io.Writer, p *Program) error {
	var b bytes.Buffer
	b.Write(containerMagic[:])
	writeU32(&b, containerVersion)
	writeU32(&b, p.Entry)

	text := EncodeText(p.Text)
	writeU32(&b, uint32(len(p.Text)))
	b.Write(text)

	writeU32(&b, uint32(len(p.Data)))
	b.Write(p.Data)

	tasks := p.TaskList()
	writeU32(&b, uint32(len(tasks)))
	for _, t := range tasks {
		writeU32(&b, t.Entry)
		var cr [8]byte
		binary.BigEndian.PutUint64(cr[:], uint64(t.Create))
		b.Write(cr[:])
		writeU32(&b, t.PushRA)
		writeU32(&b, t.CallTarget)
		writeStr(&b, t.Name)
		b.WriteByte(byte(len(t.Targets)))
		for _, tgt := range t.Targets {
			writeU32(&b, tgt)
		}
	}

	// Sorted by name: the encoding — and every content hash taken over it
	// (job.ProgramHash, job.Spec.Key) — must not depend on map order.
	names := make([]string, 0, len(p.Symbols))
	for name := range p.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	writeU32(&b, uint32(len(names)))
	for _, name := range names {
		writeStr(&b, name)
		writeU32(&b, p.Symbols[name])
	}

	_, err := w.Write(b.Bytes())
	return err
}

// ReadProgram deserializes a program written by WriteProgram and
// validates it.
func ReadProgram(r io.Reader) (*Program, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	d := &decoder{buf: buf}
	var magic [4]byte
	d.bytes(magic[:])
	if magic != containerMagic {
		return nil, fmt.Errorf("isa: not a multiscalar binary (bad magic)")
	}
	if v := d.u32(); v != containerVersion {
		return nil, fmt.Errorf("isa: unsupported container version %d", v)
	}
	p := &Program{
		Tasks:   make(map[uint32]*TaskDescriptor),
		Symbols: make(map[string]uint32),
	}
	p.Entry = d.u32()

	nText := int(d.u32())
	if nText < 0 || nText > 1<<24 {
		return nil, fmt.Errorf("isa: implausible text size %d", nText)
	}
	textBytes := make([]byte, nText*EncodedSize)
	d.bytes(textBytes)
	if d.err != nil {
		return nil, d.err
	}
	p.Text, err = DecodeText(textBytes)
	if err != nil {
		return nil, err
	}

	nData := int(d.u32())
	if nData < 0 || nData > 1<<30 {
		return nil, fmt.Errorf("isa: implausible data size %d", nData)
	}
	p.Data = make([]byte, nData)
	d.bytes(p.Data)

	nTasks := int(d.u32())
	for i := 0; i < nTasks && d.err == nil; i++ {
		td := &TaskDescriptor{}
		td.Entry = d.u32()
		var cr [8]byte
		d.bytes(cr[:])
		td.Create = RegMask(binary.BigEndian.Uint64(cr[:]))
		td.PushRA = d.u32()
		td.CallTarget = d.u32()
		td.Name = d.str()
		nTgts := int(d.u8())
		for j := 0; j < nTgts; j++ {
			td.Targets = append(td.Targets, d.u32())
		}
		p.Tasks[td.Entry] = td
	}

	nSyms := int(d.u32())
	for i := 0; i < nSyms && d.err == nil; i++ {
		name := d.str()
		p.Symbols[name] = d.u32()
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("isa: %d trailing bytes in container", len(d.buf)-d.off)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func writeU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func writeStr(b *bytes.Buffer, s string) {
	var tmp [2]byte
	binary.BigEndian.PutUint16(tmp[:], uint16(len(s)))
	b.Write(tmp[:])
	b.WriteString(s)
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) bytes(out []byte) {
	if d.err != nil {
		return
	}
	if d.off+len(out) > len(d.buf) {
		d.err = fmt.Errorf("isa: truncated container")
		return
	}
	copy(out, d.buf[d.off:])
	d.off += len(out)
}

func (d *decoder) u32() uint32 {
	var tmp [4]byte
	d.bytes(tmp[:])
	return binary.BigEndian.Uint32(tmp[:])
}

func (d *decoder) u8() uint8 {
	var tmp [1]byte
	d.bytes(tmp[:])
	return tmp[0]
}

func (d *decoder) str() string {
	var tmp [2]byte
	d.bytes(tmp[:])
	n := int(binary.BigEndian.Uint16(tmp[:]))
	s := make([]byte, n)
	d.bytes(s)
	if d.err != nil {
		return ""
	}
	return string(s)
}
