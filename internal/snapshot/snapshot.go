// Package snapshot implements the versioned binary container for
// machine checkpoints (docs/simulator.md, "Snapshot format"). A
// snapshot is a flat byte stream: a fixed header (magic, format
// version, machine kind) followed by the machine's component sections
// in a fixed order. Component packages serialize themselves through
// the Encoder/Decoder primitives here; the package knows nothing about
// the components, so it sits at the bottom of the dependency graph.
//
// Snapshots capture only mutable run state. Derived and configured
// state — program text, decoded µops, cache geometry, the memory
// image behind the copy-on-write pages — is rebuilt by constructing
// the machine from the same Program and Config before Restore is
// called, and Restore fails loudly when the snapshot disagrees with
// the constructed shape (wrong kind, wrong unit count, wrong cache
// geometry).
//
// The Decoder is sticky: the first malformed read latches an error,
// every later read returns zero values, and the caller checks Err()
// once at the end. Length fields are validated against both the
// remaining input and a caller-supplied cap before any allocation, so
// a corrupt or adversarial snapshot (see FuzzSnapshot) cannot force a
// huge allocation or a panic.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// magic identifies a snapshot stream; Version is bumped on any layout
// change (there is no cross-version migration — a snapshot is a
// within-version artifact, not an archive format).
const magic = "MSSNAP"

// Version is the current snapshot format version. Version 3 added the
// capture-point cycle (instruction count for the functional machine) to
// the header, so tools can describe an opaque snapshot without decoding
// its body. Version 4 added the functional machine's task-exit count
// beside its other class counts.
const Version = 4

// Machine kinds, stored in the header so a snapshot cannot be fed to
// the wrong Restore.
const (
	KindInterp      uint8 = 1
	KindScalar      uint8 = 2
	KindMultiscalar uint8 = 3
	// KindWarm is not a machine: it is the architectural-plus-warm state
	// the sampled-simulation engine captures during functional-warm
	// fast-forward and injects into a fresh timing machine at the start
	// of a detailed measurement window (internal/sample, docs/perf.md).
	KindWarm uint8 = 4
)

// headerSize is len(magic) + version (u16) + kind (u8) + cycle (u64).
const headerSize = len(magic) + 3 + 8

// KindName names a machine kind for error messages.
func KindName(kind uint8) string {
	switch kind {
	case KindInterp:
		return "interp"
	case KindScalar:
		return "scalar"
	case KindMultiscalar:
		return "multiscalar"
	case KindWarm:
		return "warm"
	}
	return fmt.Sprintf("kind(%d)", kind)
}

// Meta is the header of a snapshot: everything that can be known about
// it without decoding the body.
type Meta struct {
	Version uint16
	Kind    uint8
	// Cycle is the capture point: the machine cycle for the timing
	// machines, the dynamic instruction count for the functional
	// machine and warm-state captures.
	Cycle uint64
}

// Peek reads a snapshot's header without decoding the body, so a
// caller holding an opaque file can dispatch to the right machine
// constructor or describe the snapshot to a user.
func Peek(data []byte) (Meta, error) {
	d, err := newDecoder(data)
	if err != nil {
		return Meta{}, err
	}
	return Meta{Version: Version, Kind: d.kind, Cycle: d.cycle}, nil
}

// Encoder builds a snapshot stream. All integers are big-endian.
type Encoder struct {
	buf []byte
}

// NewEncoder starts a snapshot for one machine kind, writing the
// header. cycle is the capture point (see Meta.Cycle).
func NewEncoder(kind uint8, cycle uint64) *Encoder {
	e := &Encoder{buf: make([]byte, 0, 1<<12)}
	e.buf = append(e.buf, magic...)
	e.U16(Version)
	e.U8(kind)
	e.U64(cycle)
	return e
}

// Bytes returns the encoded snapshot.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a big-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// I32 appends an int32 (two's complement).
func (e *Encoder) I32(v int32) { e.U32(uint32(v)) }

// Int appends an int as an int64.
func (e *Encoder) Int(v int) { e.U64(uint64(int64(v))) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 appends a float64 by bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Len appends an element count.
func (e *Encoder) Len(n int) { e.U32(uint32(n)) }

// Raw appends bytes with no length prefix (fixed-size regions whose
// length both sides know).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Blob appends a length-prefixed byte string.
func (e *Encoder) Blob(b []byte) {
	e.Len(len(b))
	e.Raw(b)
}

// Tag appends a 4-byte section marker. Tags cost 4 bytes per section
// and turn a component-order mismatch between Save and Load into an
// immediate named error instead of silently misparsed state.
func (e *Encoder) Tag(tag string) {
	var t [4]byte
	copy(t[:], tag)
	e.Raw(t[:])
}

// Decoder reads a snapshot stream with a sticky error: after the
// first failure every read returns zero values, so Load code needs no
// per-read error handling.
type Decoder struct {
	buf   []byte
	off   int
	kind  uint8
	cycle uint64
	err   error
}

func newDecoder(data []byte) (*Decoder, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("snapshot: truncated header (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic")
	}
	d := &Decoder{buf: data, off: len(magic)}
	if v := d.U16(); v != Version {
		return nil, fmt.Errorf("snapshot: version %d, want %d", v, Version)
	}
	d.kind = d.U8()
	d.cycle = d.U64()
	return d, nil
}

// NewDecoder validates the header against the expected machine kind
// and positions the decoder at the body.
func NewDecoder(data []byte, kind uint8) (*Decoder, error) {
	d, err := newDecoder(data)
	if err != nil {
		return nil, err
	}
	if d.kind != kind {
		return nil, fmt.Errorf("snapshot: %s snapshot, want %s",
			KindName(d.kind), KindName(kind))
	}
	return d, nil
}

// Failf latches a decoding error (the first one wins). Load code uses
// it for semantic mismatches — a snapshot field that disagrees with
// the constructed machine's shape.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

// Err returns the latched error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish checks that decoding consumed the entire stream cleanly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("snapshot: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.Failf("truncated: need %d bytes at offset %d of %d", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I32 reads an int32.
func (d *Decoder) I32() int32 { return int32(d.U32()) }

// Int reads an int stored as int64.
func (d *Decoder) Int() int { return int(int64(d.U64())) }

// Bool reads a bool byte (anything nonzero is true; the encoder only
// writes 0 or 1, but fuzzed inputs may not).
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// F64 reads a float64 by bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Len reads an element count and validates it against max and the
// bytes actually remaining (at least one byte per element), so a
// corrupt count fails before any allocation sized by it.
func (d *Decoder) Len(max int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n > max || n > len(d.buf)-d.off {
		d.Failf("length %d exceeds limit %d", n, max)
		return 0
	}
	return n
}

// Raw reads exactly len(dst) bytes into dst.
func (d *Decoder) Raw(dst []byte) {
	b := d.take(len(dst))
	if b != nil {
		copy(dst, b)
	}
}

// Blob reads a length-prefixed byte string of at most max bytes.
func (d *Decoder) Blob(max int) []byte {
	n := d.Len(max)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	d.Raw(out)
	return out
}

// Tag consumes a 4-byte section marker and fails if it is not the
// expected one.
func (d *Decoder) Tag(tag string) {
	var want [4]byte
	copy(want[:], tag)
	var got [4]byte
	d.Raw(got[:])
	if d.err == nil && got != want {
		d.Failf("section %q, want %q", got[:], want[:])
	}
}
