package interp

import (
	"io"

	"multiscalar/internal/isa"
	"multiscalar/internal/snapshot"
)

// The state walks of the values the timing machine's snapshots share
// with the functional machine: a Value, a register file and the syscall
// environment. The functional machine itself is never snapshotted; it
// is run, not resumed.

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
