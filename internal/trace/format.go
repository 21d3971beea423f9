package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// The .mstrc container: a fixed magic, a metadata header, then a stream
// of delta-encoded event records and a one-byte terminator.
//
//	magic    "mstrc" 0x01
//	header   uvarint numUnits
//	         uvarint len(label), label bytes
//	         uvarint taskCount, then per task (ascending entry):
//	             uvarint entry, uvarint len(name), name bytes
//	events   per event:
//	             byte    kind (non-zero)
//	             zigzag  cycle delta from the previous record
//	             uvarint unit+1   (0 = none)
//	             uvarint task+1   (0 = none)
//	             uvarint arg
//	             uvarint arg2
//	trailer  byte 0
//
// All integers are unsigned varints except the cycle delta, which is
// zigzag-encoded because emission order can momentarily run ahead of the
// clock (paced ring sends). Typical records are 6-8 bytes.

var magic = [6]byte{'m', 's', 't', 'r', 'c', 0x01}

// Writer streams events into an .mstrc container. It implements Sink.
// Errors are sticky and surfaced by Close (and Err), so the simulator's
// emit path stays unconditional and allocation-free.
type Writer struct {
	bw      *bufio.Writer
	last    uint64
	err     error
	closed  bool
	scratch [3 * binary.MaxVarintLen64]byte
}

// NewWriter writes the header for meta and returns a streaming Writer.
// Callers must Close it to flush the trailer.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	t := &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
	if _, err := t.bw.Write(magic[:]); err != nil {
		return nil, err
	}
	t.putUvarint(uint64(meta.NumUnits))
	t.putString(meta.Label)
	entries := make([]uint32, 0, len(meta.Tasks))
	for e := range meta.Tasks {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
	t.putUvarint(uint64(len(entries)))
	for _, e := range entries {
		t.putUvarint(uint64(e))
		t.putString(meta.Tasks[e])
	}
	if t.err != nil {
		return nil, t.err
	}
	return t, nil
}

func (t *Writer) putUvarint(v uint64) {
	if t.err != nil {
		return
	}
	n := binary.PutUvarint(t.scratch[:], v)
	_, t.err = t.bw.Write(t.scratch[:n])
}

func (t *Writer) putString(s string) {
	t.putUvarint(uint64(len(s)))
	if t.err == nil {
		_, t.err = t.bw.WriteString(s)
	}
}

// Emit encodes one event. It is safe to call after an error (the event
// is dropped and the first error kept).
func (t *Writer) Emit(e Event) {
	if t.err != nil || t.closed {
		return
	}
	b := t.scratch[:]
	b[0] = byte(e.Kind)
	n := 1
	d := int64(e.Cycle - t.last) // wraparound-correct signed delta
	t.last = e.Cycle
	n += binary.PutUvarint(b[n:], uint64(d<<1)^uint64(d>>63))
	n += binary.PutUvarint(b[n:], uint64(int64(e.Unit)+1))
	n += binary.PutUvarint(b[n:], uint64(int64(e.Task)+1))
	n += binary.PutUvarint(b[n:], uint64(e.Arg))
	n += binary.PutUvarint(b[n:], e.Arg2)
	_, t.err = t.bw.Write(b[:n])
}

// Close writes the trailer and flushes. The Writer is unusable after.
func (t *Writer) Close() error {
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.err == nil {
		t.err = t.bw.WriteByte(0)
	}
	if ferr := t.bw.Flush(); t.err == nil {
		t.err = ferr
	}
	return t.err
}

// Trace is a fully decoded .mstrc container.
type Trace struct {
	Meta   Meta
	Events []Event
}

// ReadAll decodes an .mstrc stream produced by Writer.
func ReadAll(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [6]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("trace: not an .mstrc stream (magic % x)", m)
	}
	tr := &Trace{}
	numUnits, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	tr.Meta.NumUnits = int(numUnits)
	if tr.Meta.Label, err = readString(br); err != nil {
		return nil, fmt.Errorf("trace: label: %w", err)
	}
	nTasks, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: task table: %w", err)
	}
	if nTasks > 0 {
		tr.Meta.Tasks = make(map[uint32]string, nTasks)
	}
	for i := uint64(0); i < nTasks; i++ {
		entry, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: task table: %w", err)
		}
		name, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("trace: task table: %w", err)
		}
		tr.Meta.Tasks[uint32(entry)] = name
	}

	var last uint64
	for {
		kind, err := br.ReadByte()
		if err == io.EOF || (err == nil && kind == 0) {
			return tr, nil // clean trailer (or truncated-at-boundary stream)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", len(tr.Events), err)
		}
		var f [5]uint64
		for i := range f {
			if f[i], err = binary.ReadUvarint(br); err != nil {
				return nil, fmt.Errorf("trace: event %d: %w", len(tr.Events), err)
			}
		}
		d := int64(f[0]>>1) ^ -int64(f[0]&1)
		last += uint64(d)
		tr.Events = append(tr.Events, Event{
			Cycle: last,
			Kind:  Kind(kind),
			Unit:  int8(int64(f[1]) - 1),
			Task:  int32(int64(f[2]) - 1),
			Arg:   uint32(f[3]),
			Arg2:  f[4],
		})
	}
}

func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("string length %d too large", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}
