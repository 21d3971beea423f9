// Package mslint statically verifies the multiscalar annotation contract
// (Section 2.2 of the paper) over an assembled isa.Program: create-mask
// soundness, forward/release coverage, forward-bit placement, and
// stop/exit structure. The modified GCC 2.5.8 of the paper guaranteed
// these properties by construction; hand-annotated assembly (and a buggy
// partitioner) can violate any of them, and each violation surfaces
// dynamically as a ring deadlock, a wrong value, or a silent
// completion-flush deep inside a timing run. mslint moves those failures
// to assembly time.
//
// The linter reconstructs each task's region from its entry following the
// same rules the processing units follow at runtime — a task extends until
// a satisfied stop bit, calls without stop bits pull the callee body into
// the task — and then runs per-task dataflow analyses over that region.
// Diagnostics carry a stable code (see Codes), a severity, the offending
// instruction address, and (when the caller provides the assembler's line
// table) the source line.
package mslint

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"multiscalar/internal/isa"
)

// Severity of a diagnostic. Errors break the annotation contract in ways
// the runtime treats (or should treat) as hard failures; warnings flag
// constructs that are legal but slow, suspicious, or unanalyzable.
type Severity int

const (
	SevWarning Severity = iota
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// MarshalText makes severities readable in the JSON output.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Diagnostic codes. Each code checks one clause of the annotation
// contract; docs/lint.md shows a minimal offending program per code.
const (
	// CodeCreateMissing (error): the task writes a register that is live
	// into a declared successor but is absent from the create mask, so the
	// successor consumes the stale pass-through value.
	CodeCreateMissing = "MS001"
	// CodeCreateDead (warn): a create-mask register is dead at every
	// declared successor; it serializes successors for nothing.
	CodeCreateDead = "MS002"
	// CodeFlushOnly (warn): a create-mask register is neither forwarded
	// nor released on some path from entry to an exit, so successors wait
	// for the completion flush (the slow backstop).
	CodeFlushOnly = "MS003"
	// CodeStaleForward (error): a forward bit sits on an update after
	// which the register may be written again within the task, so the ring
	// transmits a stale value.
	CodeStaleForward = "MS004"
	// CodeForeignForward (warn): a forward bit or release names a register
	// outside the create mask (or a forward bit sits on an instruction
	// with no destination); successors have no reservation to satisfy.
	CodeForeignForward = "MS005"
	// CodeUndeclaredExit (error): a stop-tagged exit leads to an address
	// that is not in the task descriptor's target list.
	CodeUndeclaredExit = "MS006"
	// CodeUnreachableTarget (warn): a declared target is reached by no
	// statically discoverable exit.
	CodeUnreachableTarget = "MS007"
	// CodeMissingStop (error): control crosses from the task region into
	// another task's entry (or returns from the task body) without a stop
	// bit, so the unit keeps executing the next task's instructions.
	CodeMissingStop = "MS008"
	// CodeTaskOverlap (warn): an instruction is reachable from two task
	// headers without being its own task (shared callee bodies excepted).
	CodeTaskOverlap = "MS009"
	// CodeTooManyTargets (error): the descriptor names more successor
	// targets than the hardware's task descriptor can hold.
	CodeTooManyTargets = "MS010"
	// CodeCallPushRA (warn): the task exits through a call but its pushra/
	// call metadata is missing or disagrees with the code, so the return
	// address stack mispredicts every return.
	CodeCallPushRA = "MS011"
	// CodeBadTaskRef (error): a declared target (or the task entry itself)
	// does not resolve to a task descriptor inside the text segment.
	CodeBadTaskRef = "MS012"
	// CodeStopInCallee (warn): a stop bit inside a called function body
	// would end the task mid-call on behalf of every caller.
	CodeStopInCallee = "MS013"
	// CodeIndirect (warn): an indirect call or jump inside the task region
	// defeats static exit and effect analysis.
	CodeIndirect = "MS014"
	// CodeEntryNotTask (error): the program carries task descriptors but
	// none at the program entry, so the sequencer cannot dispatch the
	// first task.
	CodeEntryNotTask = "MS015"
	// CodeFCCBoundary (warn): a bc1t/bc1f can execute before any FP
	// compare within its task, so the FP condition flag crosses a task
	// boundary (the flag is task-local; see docs/assembly.md).
	CodeFCCBoundary = "MS016"
	// CodeOverBroadCreate (warn, advisory): a create-mask register is
	// never written by the task; successors reserve and wait for a value
	// the task can only pass through, and the ring carries a send that
	// changed nothing. Dropping the bit lets successors read the incoming
	// value immediately.
	CodeOverBroadCreate = "MS017"
	// CodeDeadForward (warn, advisory): a forward bit or release names a
	// create-mask register that has already been forwarded or released on
	// every path to this point. Each create-mask register rides the ring
	// exactly once per task execution, so this send never happens.
	CodeDeadForward = "MS018"
	// CodeLateForward (warn, advisory): a release executes after
	// instructions unrelated to its register although the value was
	// already final, delaying the ring send and lengthening successors'
	// stalls.
	CodeLateForward = "MS019"
)

// Diag is one finding.
type Diag struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	Task     string   `json:"task,omitempty"`
	Reg      string   `json:"reg,omitempty"`
	Addr     uint32   `json:"addr,omitempty"`
	Line     int      `json:"line,omitempty"`
	Msg      string   `json:"msg"`
}

func (d *Diag) String() string {
	var b strings.Builder
	if d.Line > 0 {
		fmt.Fprintf(&b, "line %d: ", d.Line)
	} else if d.Addr != 0 {
		fmt.Fprintf(&b, "0x%x: ", d.Addr)
	}
	fmt.Fprintf(&b, "%s [%s]", d.Code, d.Severity)
	if d.Task != "" {
		fmt.Fprintf(&b, " task %s", d.Task)
	}
	fmt.Fprintf(&b, ": %s", d.Msg)
	return b.String()
}

// Report is the outcome of linting one program.
type Report struct {
	Diags []Diag `json:"diags"`
}

// Errors returns only the error-severity findings.
func (r *Report) Errors() []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// Warnings returns only the warning-severity findings.
func (r *Report) Warnings() []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Severity == SevWarning {
			out = append(out, d)
		}
	}
	return out
}

// HasErrors reports whether any finding is an error.
func (r *Report) HasErrors() bool { return len(r.Errors()) > 0 }

// String renders the report one finding per line.
func (r *Report) String() string {
	var b strings.Builder
	for i := range r.Diags {
		b.WriteString(r.Diags[i].String())
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the report in the machine-readable format.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Err folds the report's errors into a single error value (nil when the
// report holds no errors). Callers that reject programs on lint errors
// (asm.Assemble, taskpart.Run) use this form.
func (r *Report) Err() error {
	errs := r.Errors()
	if len(errs) == 0 {
		return nil
	}
	msgs := make([]string, 0, len(errs))
	for i := range errs {
		msgs = append(msgs, errs[i].String())
	}
	return fmt.Errorf("mslint: %d error(s):\n  %s", len(errs), strings.Join(msgs, "\n  "))
}

// Lint verifies the annotation contract of a program. lines, when
// non-nil, maps instruction addresses to source lines (the assembler's
// line table) so diagnostics can name the offending source line; pass nil
// for programs without source (loaded containers, partitioner output).
// A program without task descriptors lints clean: there is no contract to
// check.
//
// Diagnostic order is deterministic and documented: ascending by source
// line, then instruction address, then code, then register (emission
// order breaks any remaining tie stably). Text and JSON output both
// inherit this order, so diffs across runs are stable.
func Lint(p *isa.Program, lines map[uint32]int) *Report {
	l := &linter{prog: p, lines: lines, rep: &Report{}}
	l.run()
	sort.SliceStable(l.rep.Diags, func(i, j int) bool {
		a, b := &l.rep.Diags[i], &l.rep.Diags[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Reg < b.Reg
	})
	return l.rep
}

func (l *linter) diag(sev Severity, code, task string, reg isa.Reg, addr uint32, format string, args ...interface{}) {
	d := Diag{Code: code, Severity: sev, Task: task, Addr: addr, Msg: fmt.Sprintf(format, args...)}
	if reg != isa.RegZero {
		d.Reg = reg.String()
	}
	if l.lines != nil {
		d.Line = l.lines[addr]
	}
	l.rep.Diags = append(l.rep.Diags, d)
}
