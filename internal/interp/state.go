package interp

import (
	"io"

	"multiscalar/internal/snapshot"
)

// Checkpoint support for the functional machine. A snapshot carries
// only mutable run state: registers, PC, instruction counts, the
// memory's private copy-on-write pages and the syscall environment.
// Restore requires a Machine constructed from the same Program — the
// program text, decoded µops and the read-only memory image are
// rebuilt from it, not stored.

// SaveState serializes the syscall environment: accumulated output,
// exit state, heap break, and the count of stdin bytes consumed.
func (e *SysEnv) SaveState(enc *snapshot.Encoder) {
	enc.Tag("SENV")
	enc.Blob(e.Out.Bytes())
	enc.I32(e.ExitCode)
	enc.Bool(e.Exited)
	enc.U32(e.heapEnd)
	enc.U64(e.inConsumed)
}

// LoadState restores the environment. If an input reader is attached,
// the bytes the snapshotted run had already consumed are skipped, so
// the restored run continues reading the same stream at the same
// position (the caller supplies a fresh reader over the same input).
func (e *SysEnv) LoadState(d *snapshot.Decoder) {
	d.Tag("SENV")
	out := d.Blob(1 << 30)
	e.ExitCode = d.I32()
	e.Exited = d.Bool()
	e.heapEnd = d.U32()
	e.inConsumed = d.U64()
	if d.Err() != nil {
		return
	}
	e.Out.Reset()
	e.Out.Write(out)
	if e.In != nil && e.inConsumed > 0 {
		// A short copy just means the input ends before the consumed
		// count; subsequent reads return end-of-input, like any other
		// exhausted stream.
		io.CopyN(io.Discard, e.In, int64(e.inConsumed)) //nolint:errcheck
	}
}

// SaveState serializes the machine's architectural state as one
// snapshot section (shared with the timing machines, whose committed
// state is the same shape).
func (m *Machine) SaveState(e *snapshot.Encoder) {
	e.Tag("INTP")
	for _, v := range m.Regs {
		e.U32(v.I)
		e.F64(v.F)
	}
	e.Bool(m.FCC)
	e.U32(m.PC)
	e.U64(m.ICount)
	e.U64(m.LoadCount)
	e.U64(m.StoreCount)
	e.U64(m.BranchCount)
	e.U64(m.TaskExits)
	m.Mem.SaveState(e)
	m.Env.SaveState(e)
}

// LoadState restores the machine's architectural state.
func (m *Machine) LoadState(d *snapshot.Decoder) {
	d.Tag("INTP")
	for i := range m.Regs {
		m.Regs[i] = Value{I: d.U32(), F: d.F64()}
	}
	m.FCC = d.Bool()
	m.PC = d.U32()
	m.ICount = d.U64()
	m.LoadCount = d.U64()
	m.StoreCount = d.U64()
	m.BranchCount = d.U64()
	m.TaskExits = d.U64()
	m.Mem.LoadState(d)
	m.Env.LoadState(d)
}

// Save serializes the machine into a snapshot.
func (m *Machine) Save() ([]byte, error) {
	e := snapshot.NewEncoder(snapshot.KindInterp, m.ICount)
	m.SaveState(e)
	return e.Bytes(), nil
}

// Restore loads a snapshot produced by Save into a machine built from
// the same Program. On error the machine state is unspecified and the
// machine must not be run.
func (m *Machine) Restore(data []byte) error {
	d, err := snapshot.NewDecoder(data, snapshot.KindInterp)
	if err != nil {
		return err
	}
	m.LoadState(d)
	return d.Finish()
}
