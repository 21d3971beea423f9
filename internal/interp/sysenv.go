package interp

import (
	"bytes"
	"fmt"
	"io"

	"multiscalar/internal/isa"
	"multiscalar/internal/mem"
)

// Syscall codes (SPIM-style). The paper's simulator traps system calls to
// the host OS; SysEnv is our host side. Benchmark inputs are pre-loaded
// into the data segment before the run, so programs only call out for
// output, heap growth, and exit — plus SysReadChar for programs that take
// interactive input.
const (
	SysPrintInt    = 1
	SysPrintString = 4
	SysSbrk        = 9
	SysExit        = 10
	SysPrintChar   = 11
	SysReadChar    = 12
)

// MemReader lets a syscall read program memory through whatever view is
// correct for the caller: the interpreter passes committed memory; the
// multiscalar simulator passes a view that consults the ARB first, so a
// print of a buffer written earlier in the same (not yet retired) task
// sees the speculative bytes.
type MemReader interface {
	Byte(addr uint32) byte
}

// SysEnv is the host environment shared by all simulators. Running the
// same program under the interpreter, the scalar simulator, and any
// multiscalar configuration must produce byte-identical Out contents and
// equal exit codes.
type SysEnv struct {
	Out      bytes.Buffer
	ExitCode int32
	Exited   bool

	// In, when non-nil, backs SysReadChar. With a nil In the syscall
	// returns end-of-input. Timing simulators replay tasks after
	// squashes, so a determinate In (a bytes.Reader, not a terminal) is
	// required; the facade's WithStdin reads its reader to bytes before
	// the run for exactly this reason.
	In io.Reader

	heapEnd uint32

	// inConsumed counts bytes successfully read from In, so a restored
	// snapshot can reposition a fresh reader over the same input.
	inConsumed uint64
}

// SbrkError is an sbrk whose increment would carry the break past
// isa.StackBase into the stack region, or wrap it around 2³² (a negative
// increment is a wrap: the heap only grows).
type SbrkError struct {
	Break, Incr uint32 // the break before the call, and the increment asked for
}

func (e *SbrkError) Error() string {
	return fmt.Sprintf("interp: sbrk(%d) from break 0x%x passes the heap ceiling 0x%x", int32(e.Incr), e.Break, isa.StackBase)
}

// NewSysEnv returns an environment with an empty heap at isa.HeapBase.
func NewSysEnv() *SysEnv {
	return &SysEnv{heapEnd: isa.HeapBase}
}

// HeapEnd returns the current sbrk break.
func (e *SysEnv) HeapEnd() uint32 { return e.heapEnd }

// Call services one syscall. v0 is the syscall code; a0-a3 are arguments.
// It returns the new $v0 value and whether $v0 is written.
func (e *SysEnv) Call(m MemReader, v0, a0, a1, a2, a3 uint32) (ret uint32, writesV0 bool, err error) {
	switch v0 {
	case SysPrintInt:
		fmt.Fprintf(&e.Out, "%d", int32(a0))
		return 0, false, nil
	case SysPrintChar:
		e.Out.WriteByte(byte(a0))
		return 0, false, nil
	case SysPrintString:
		for i := 0; i < 1<<20; i++ {
			b := m.Byte(a0 + uint32(i))
			if b == 0 {
				return 0, false, nil
			}
			e.Out.WriteByte(b)
		}
		return 0, false, fmt.Errorf("interp: unterminated string at 0x%x", a0)
	case SysReadChar:
		if e.In != nil {
			var b [1]byte
			if n, _ := io.ReadFull(e.In, b[:]); n == 1 {
				e.inConsumed++
				return uint32(b[0]), true, nil
			}
		}
		return ^uint32(0), true, nil // -1: end of input
	case SysSbrk:
		old := e.heapEnd
		if uint64(old)+uint64(a0) > uint64(isa.StackBase) {
			return 0, false, &SbrkError{Break: old, Incr: a0}
		}
		e.heapEnd += a0
		return old, true, nil
	case SysExit:
		e.Exited = true
		e.ExitCode = int32(a0)
		return 0, false, nil
	default:
		return 0, false, fmt.Errorf("interp: unknown syscall %d", v0)
	}
}

var _ MemReader = (*mem.Memory)(nil)
