package interp

import (
	"io"

	"multiscalar/internal/isa"
	"multiscalar/internal/snapshot"
)

// Checkpoint support for the functional machine. A snapshot carries
// only mutable run state: registers, PC, instruction counts, the
// memory's private copy-on-write pages and the syscall environment.
// Restore requires a Machine constructed from the same Program — the
// program text, decoded µops and the read-only memory image are
// rebuilt from it, not stored.

// State is the one place a Value is serialized; every register file,
// window entry and forwarded value in a snapshot goes through it.
func (v *Value) State(c *snapshot.Codec) {
	c.U32(&v.I)
	c.F64(&v.F)
}

// RegsState walks an architectural register file.
func RegsState(c *snapshot.Codec, regs *[isa.NumRegs]Value) {
	for i := range regs {
		regs[i].State(c)
	}
}

// State walks the syscall environment: accumulated output, exit state,
// heap break, and the count of stdin bytes consumed. Loading with an
// input reader attached skips the bytes the snapshotted run had already
// consumed, so the restored run continues reading the same stream at
// the same position (the caller supplies a fresh reader over the same
// input).
func (e *SysEnv) State(c *snapshot.Codec) {
	c.Tag("SENV")
	out := e.Out.Bytes()
	c.Blob(&out, 1<<30)
	c.I32(&e.ExitCode)
	c.Bool(&e.Exited)
	c.U32(&e.heapEnd)
	c.U64(&e.inConsumed)
	if !c.Loading() || c.Err() != nil {
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

// State walks the machine's architectural state as one snapshot
// section.
func (m *Machine) State(c *snapshot.Codec) {
	c.Tag("INTP")
	RegsState(c, &m.Regs)
	c.Bool(&m.FCC)
	c.U32(&m.PC)
	c.U64(&m.ICount)
	c.U64(&m.LoadCount)
	c.U64(&m.StoreCount)
	c.U64(&m.BranchCount)
	c.U64(&m.TaskExits)
	m.Mem.State(c)
	m.Env.State(c)
}

// Save serializes the machine into a snapshot.
func (m *Machine) Save() ([]byte, error) {
	return snapshot.Save(snapshot.KindInterp, m.ICount, m.State)
}

// Restore loads a snapshot produced by Save into a machine built from
// the same Program. On error the machine state is unspecified and the
// machine must not be run.
func (m *Machine) Restore(data []byte) error {
	return snapshot.Load(data, snapshot.KindInterp, m.State)
}
