// Package snapshot implements the versioned binary container for
// machine checkpoints (docs/simulator.md, "Snapshot format"). A
// snapshot is a flat byte stream: a fixed header (magic, format
// version, machine kind) followed by the machine's component sections
// in a fixed order. Each component lists its mutable state once, in a
// State(*Codec) method; the Codec carries the direction, so Save and
// Restore traverse the same list and cannot drift apart. The package
// knows nothing about the components, so it sits at the bottom of the
// dependency graph.
//
// Snapshots capture only mutable run state. Derived and configured
// state — program text, decoded µops, cache geometry, the memory
// image behind the copy-on-write pages — is rebuilt by constructing
// the machine from the same Program and Config before Restore is
// called, and Restore fails loudly when the snapshot disagrees with
// the constructed shape (wrong kind, wrong unit count, wrong cache
// geometry).
//
// A loading Codec is sticky: the first malformed read latches an
// error, every later read yields zero values, and Load returns the
// error once the walk is done. An element count is validated against a
// caller-supplied cap and — at the caller-supplied minimum encoded size
// of one element — against the bytes actually remaining before anything
// is allocated from it, so a corrupt or adversarial snapshot (see
// FuzzSnapshot, TestHostileCountsDoNotAmplify) cannot force an
// allocation larger than a small multiple of itself, or a panic.
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
// the wrong Restore. 2 is retired: it was the separate scalar timing
// machine's, whose runs are now KindMultiscalar runs on one unit; a
// snapshot carrying it is refused by name like any other wrong kind.
const (
	KindInterp      uint8 = 1
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
	case 2:
		return "scalar (a kind retired with the separate scalar machine)"
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
	_, meta, err := newLoader(data)
	return meta, err
}

// Codec moves one snapshot stream in one direction: a saving Codec
// appends the values its primitives are pointed at, a loading Codec
// overwrites them from the stream. All integers are big-endian.
type Codec struct {
	buf     []byte // the stream: grown when saving, consumed from off when loading
	off     int
	loading bool
	err     error
}

// Save runs a State walk with a saving codec and returns the stream:
// the header for one machine kind, then whatever the walk lists. cycle
// is the capture point (see Meta.Cycle). The error is a walk's own
// check failing on the state it was asked to save — a machine that has
// broken one of its invariants must not produce a snapshot.
func Save(kind uint8, cycle uint64, state func(*Codec)) ([]byte, error) {
	c := &Codec{buf: make([]byte, 0, 1<<12)}
	c.buf = append(c.buf, magic...)
	version := uint16(Version)
	c.U16(&version)
	c.U8(&kind)
	c.U64(&cycle)
	state(c)
	return c.buf, c.err
}

// Load runs the same walk with a loading codec over data, after
// validating the header against the expected machine kind, and checks
// that the walk consumed the entire stream cleanly.
func Load(data []byte, kind uint8, state func(*Codec)) error {
	c, meta, err := newLoader(data)
	if err == nil && meta.Kind != kind {
		err = fmt.Errorf("snapshot: %s snapshot, want %s", KindName(meta.Kind), KindName(kind))
	}
	if err != nil {
		return err
	}
	if state(c); c.err == nil && c.off != len(c.buf) {
		c.Failf("%d trailing bytes", len(c.buf)-c.off)
	}
	return c.err
}

// newLoader reads the header and positions a loading codec at the body.
func newLoader(data []byte) (*Codec, Meta, error) {
	if len(data) < headerSize {
		return nil, Meta{}, fmt.Errorf("snapshot: truncated header (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, Meta{}, fmt.Errorf("snapshot: bad magic")
	}
	c, meta := &Codec{buf: data, off: len(magic), loading: true}, Meta{}
	if c.U16(&meta.Version); meta.Version != Version {
		return nil, Meta{}, fmt.Errorf("snapshot: version %d, want %d", meta.Version, Version)
	}
	c.U8(&meta.Kind)
	c.U64(&meta.Cycle)
	return c, meta, nil
}

// Loading reports the direction. A State walk asks only where loading
// has work saving does not: allocating what it is about to fill,
// re-deriving a pointer the stream cannot carry.
func (c *Codec) Loading() bool { return c.loading }

// Failf latches an error (the first one wins). State walks use it for
// semantic mismatches — a snapshot field that disagrees with the
// constructed machine's shape.
func (c *Codec) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("snapshot: "+format, args...)
		c.off = len(c.buf) // no input is left, so every later read fails has
	}
}

// Err returns the latched error, if any.
func (c *Codec) Err() error { return c.err }

// has consumes n bytes of a loading Codec's input, leaving them just
// behind off, or latches an error and reports false. It is the one
// bounds check of every read and small enough to inline: a latched
// error needs no test of its own because Failf leaves no input.
func (c *Codec) has(n int) bool {
	if n > len(c.buf)-c.off {
		return c.short(n)
	}
	c.off += n
	return true
}

func (c *Codec) short(n int) bool {
	c.Failf("truncated: need %d bytes at offset %d of %d", n, c.off, len(c.buf))
	return false
}

// load returns the next n (1, 2, 4 or 8) input bytes as a big-endian
// integer, 0 once an error is latched.
func (c *Codec) load(n int) uint64 {
	if !c.has(n) {
		return 0
	}
	b := c.buf[c.off-n:]
	switch n {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	}
	return binary.BigEndian.Uint64(b)
}

// U8, U16, U32 and U64 move a big-endian unsigned integer. They are
// small enough to inline, so a saving walk appends in place, as cheaply
// as code written for that direction alone would.
func (c *Codec) U8(p *uint8) {
	if c.loading {
		*p = uint8(c.load(1))
	} else {
		c.buf = append(c.buf, *p)
	}
}

func (c *Codec) U16(p *uint16) {
	if c.loading {
		*p = uint16(c.load(2))
	} else {
		c.buf = binary.BigEndian.AppendUint16(c.buf, *p)
	}
}

func (c *Codec) U32(p *uint32) {
	if c.loading {
		*p = uint32(c.load(4))
	} else {
		c.buf = binary.BigEndian.AppendUint32(c.buf, *p)
	}
}

func (c *Codec) U64(p *uint64) {
	if c.loading {
		*p = c.load(8)
	} else {
		c.buf = binary.BigEndian.AppendUint64(c.buf, *p)
	}
}

// I32 moves an int32 (two's complement).
func (c *Codec) I32(p *int32) {
	if c.loading {
		*p = int32(c.load(4))
	} else {
		c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(*p))
	}
}

// Int moves an int as an int64.
func (c *Codec) Int(p *int) {
	if c.loading {
		*p = int(int64(c.load(8)))
	} else {
		c.buf = binary.BigEndian.AppendUint64(c.buf, uint64(int64(*p)))
	}
}

// Bool moves a bool as one byte (loading, anything nonzero is true; a
// saver only writes 0 or 1, but fuzzed inputs may not).
func (c *Codec) Bool(p *bool) {
	if c.loading {
		*p = c.has(1) && c.buf[c.off-1] != 0
	} else if *p {
		c.buf = append(c.buf, 1)
	} else {
		c.buf = append(c.buf, 0)
	}
}

// F64 moves a float64 by bit pattern.
func (c *Codec) F64(p *float64) {
	if c.loading {
		*p = math.Float64frombits(c.load(8))
	} else {
		c.buf = binary.BigEndian.AppendUint64(c.buf, math.Float64bits(*p))
	}
}

// U16s, U32s and U64s move every element of a slice whose length both
// directions know (a table sized by the configuration).
func (c *Codec) U16s(s []uint16) {
	for i := range s {
		c.U16(&s[i])
	}
}

func (c *Codec) U32s(s []uint32) {
	for i := range s {
		c.U32(&s[i])
	}
}

func (c *Codec) U64s(s []uint64) {
	for i := range s {
		c.U64(&s[i])
	}
}

// Raw moves exactly len(b) bytes with no length prefix (fixed-size
// regions whose length both directions know).
func (c *Codec) Raw(b []byte) {
	if !c.loading {
		c.buf = append(c.buf, b...)
	} else if c.has(len(b)) {
		copy(b, c.buf[c.off-len(b):])
	}
}

// Len moves an element count. Saving, it writes n and returns it.
// Loading, it returns the stored count after validating it against max
// and against the input left — n elements of at least elem encoded
// bytes each must fit in it — so a corrupt count fails before anything
// is allocated from it; a failed Len (or one after an earlier failure,
// which reads a count of 0) returns 0.
func (c *Codec) Len(n, max, elem int) int {
	v := uint32(n)
	c.U32(&v)
	if !c.loading {
		return n
	}
	if left := len(c.buf) - c.off; int64(v) > int64(max) || int64(v)*int64(elem) > int64(left) {
		c.Failf("length %d (of %d-byte elements) exceeds limit %d or the %d bytes left", v, elem, max, left)
		return 0
	}
	return int(v)
}

// Blob moves a length-prefixed byte string of at most max bytes; a
// loaded blob is a fresh slice.
func (c *Codec) Blob(p *[]byte, max int) {
	n := c.Len(len(*p), max, 1)
	if c.loading {
		*p = make([]byte, n)
	}
	c.Raw(*p)
}

// Tag moves a 4-byte section marker; loading fails if it is not the
// expected one. Tags cost 4 bytes per section and turn a walk that has
// fallen out of step with the stream into an immediate named error
// instead of silently misparsed state.
func (c *Codec) Tag(tag string) {
	var want, got [4]byte
	copy(want[:], tag)
	got = want
	c.Raw(got[:])
	if c.err == nil && got != want {
		c.Failf("section %q, want %q", got[:], want[:])
	}
}
