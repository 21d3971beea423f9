package core

import (
	"bytes"
	"fmt"
	"math"

	"multiscalar/internal/arb"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/mem"
)

// Lockstep judgement of a run (DESIGN.md §5). A judged machine steps a
// functional machine beside it: at every task retire the functional
// machine runs up to the committed instruction count, and the sequential
// state the retire leaves (Section 2.3) must be the functional machine's
// state at that count.

// Divergence names what a judged retire found different.
type Divergence string

// The comparisons, in the order a retire makes them: the committed count
// first (when the counts differ the rest compares unlike states), then
// the next PC, the 64 registers, the drained chunks and the new output.
// The run end compares the count, the output and the exit code. A
// descriptor-less run paused at its commit limit compares the count, the
// registers, the FCC, the output and memory.
const (
	DivCommitted Divergence = "committed count"
	DivNextPC    Divergence = "next PC"
	DivRegister  Divergence = "register"
	DivFCC       Divergence = "FCC"
	DivMemory    Divergence = "memory"
	DivOutput    Divergence = "output"
	DivExitCode  Divergence = "exit code"
)

// DivergenceError is the first point at which a judged run left the
// sequential state: the task whose retire (or the run end) showed it,
// what differed and both values.
type DivergenceError struct {
	Task   string     `json:"task"`   // the retiring task's descriptor name
	Entry  uint32     `json:"entry"`  // its entry PC
	Retire uint64     `json:"retire"` // tasks retired before it
	Cycle  uint64     `json:"cycle"`
	What   Divergence `json:"what"`
	// Where is the register's name, the byte's address or the output
	// offset; empty for a count, a PC or an exit code.
	Where      string `json:"where,omitempty"`
	Timing     string `json:"timing"`     // the timing machine's value
	Functional string `json:"functional"` // the functional machine's value
}

func (e *DivergenceError) Error() string {
	what := string(e.What)
	if e.Where != "" {
		what += " " + e.Where
	}
	return fmt.Sprintf("core: task %s (entry 0x%x, retire %d, cycle %d): %s is %s, the functional machine's is %s",
		e.Task, e.Entry, e.Retire, e.Cycle, what, e.Timing, e.Functional)
}

// judge is the attached lockstep check (Judge).
type judge struct {
	co     *interp.Machine
	bound  uint64   // the functional machine's instruction bound
	out    int      // output bytes already judged equal
	chunks []uint32 // the chunks the retiring head's drain writes
	first  *DivergenceError
}

// Judge attaches a lockstep check to the run: co is a functional machine
// over the same program and input bytes, bound its instruction bound, as
// for interp.Machine.Run. Each task retire runs co up to the committed
// count and compares the committed count, the next PC, all 64 committed
// registers bit for bit, every chunk the head's drain wrote and the
// output written since the previous retire; the run end compares the
// count, the output and the exit code. A program without descriptors
// retires its one implicit task only at its end, so a run of one paused
// at its commit limit (SetCommitLimit) is judged at the pause too. The first difference is recorded
// and the run goes on to its end (Divergence). An error of co itself, the
// bound included, ends the run with that error. A machine restored from a
// snapshot is judged too: co catches up to the restored count at the
// first comparison (for a machine restored finished, its end). Attach
// before Run; co must not be run by anyone else.
func (m *Multiscalar) Judge(co *interp.Machine, bound uint64) {
	m.judge = &judge{co: co, bound: bound}
}

// Divergence returns the first difference the attached judge found: nil
// when the run agreed at every retire and at its end, or when no judge is
// attached.
func (m *Multiscalar) Divergence() *DivergenceError {
	if m.judge == nil {
		return nil
	}
	return m.judge.first
}

// catchUp runs the functional machine to the committed count, or to its
// bound and the error interp.Machine.Run gives there.
func (j *judge) catchUp(committed uint64) error {
	if committed > j.bound {
		return j.co.Run(j.bound)
	}
	return j.co.RunTo(committed)
}

// retire judges the retire that has just committed task ts, whose
// successor is next. Once a divergence is recorded the judge is silent:
// later states differ as a consequence.
func (j *judge) retire(m *Multiscalar, ts *taskState, next uint32, now uint64) error {
	if j.first != nil {
		return nil
	}
	if err := j.catchUp(m.committed); err != nil {
		return err
	}
	var d DivergenceError
	switch {
	case j.count(m, &d):
	case j.co.PC != next:
		d.What, d.Timing, d.Functional = DivNextPC, fmt.Sprintf("0x%x", next), fmt.Sprintf("0x%x", j.co.PC)
	case j.registers(&m.archRegs, &d), j.memory(m, &d), j.output(m, &d):
	default:
		return nil
	}
	j.record(m, ts, now, d)
	return nil
}

// pause judges a descriptor-less run stopped at its commit limit, in the
// middle of its implicit task: the instructions the one unit has retired
// are the committed ones, its register file and FCC the committed state,
// and memory the ARB's view for it over the backing store. Memory is
// compared only while no store has reached it ahead of its retire.
func (j *judge) pause(m *Multiscalar) error {
	if j.first != nil {
		return nil
	}
	n := m.committedNow()
	if err := j.catchUp(n); err != nil {
		return err
	}
	u := m.units[0]
	var d DivergenceError
	switch {
	case j.co.ICount != n:
		d.What, d.Timing, d.Functional = DivCommitted, fmt.Sprint(n), fmt.Sprint(j.co.ICount)
	case j.registers(&m.rfs[0].Vals, &d):
	case u.FCC() != j.co.FCC:
		d.What, d.Timing, d.Functional = DivFCC, fmt.Sprint(u.FCC()), fmt.Sprint(j.co.FCC)
	case j.output(m, &d):
	case !u.StoreAhead() && j.pausedMemory(m, &d):
	default:
		return nil
	}
	d.Task, d.Entry, d.Retire, d.Cycle = m.implicit.Name, m.implicit.Entry, m.tasksRetired, m.now
	j.first = &d
	return nil
}

// pausedMemory compares memory as the paused implicit task sees it —
// the chunks it holds in the ARB, then every page either memory has
// written — with the functional machine's.
func (j *judge) pausedMemory(m *Multiscalar, d *DivergenceError) bool {
	view := arb.View{ARB: m.ARB, Unit: m.Head, Head: m.Head, Active: m.Active, Backing: m.Backing}
	differs := func(a uint32) bool {
		t, f := view.Byte(a), j.co.Mem.Byte(a)
		if t == f {
			return false
		}
		d.What, d.Where = DivMemory, fmt.Sprintf("0x%x", a)
		d.Timing, d.Functional = fmt.Sprintf("0x%02x", t), fmt.Sprintf("0x%02x", f)
		return true
	}
	for _, c := range m.ARB.StoreChunks(m.Head, nil) {
		for a := c; a < c+arb.ChunkBytes; a++ {
			if differs(a) {
				return true
			}
		}
	}
	return mem.Diff(m.Backing, j.co.Mem, differs)
}

// end judges the run end, after the head executed the exit.
func (j *judge) end(m *Multiscalar) error {
	if j.first != nil {
		return nil
	}
	if err := j.catchUp(m.committed); err != nil {
		return err
	}
	var d DivergenceError
	switch {
	case !j.co.Env.Exited:
		// The sequential run goes on past this exit: count the rest of it.
		d.What, d.Timing, d.Functional = DivCommitted, fmt.Sprint(m.committed), "no exit within the bound"
		if j.co.Run(j.bound) == nil {
			d.Functional = fmt.Sprint(j.co.ICount)
		}
	case j.count(m, &d), j.output(m, &d):
	case j.co.Env.ExitCode != m.env.ExitCode:
		d.What, d.Timing, d.Functional = DivExitCode, fmt.Sprint(m.env.ExitCode), fmt.Sprint(j.co.Env.ExitCode)
	default:
		return nil
	}
	j.record(m, m.tasks[m.Head], m.now-1, d)
	return nil
}

// record keeps d as the first divergence, found at the retire of ts (the
// latest retire) at cycle now. It copies d to the heap, so an agreeing
// retire allocates nothing.
func (j *judge) record(m *Multiscalar, ts *taskState, now uint64, d DivergenceError) {
	d.Task, d.Entry, d.Retire, d.Cycle = ts.desc.Name, ts.entry, m.tasksRetired-1, now
	j.first = new(DivergenceError)
	*j.first = d
}

// count compares the committed instruction count. After catchUp the
// functional machine falls short of it only by having exited.
func (j *judge) count(m *Multiscalar, d *DivergenceError) bool {
	if j.co.ICount == m.committed {
		return false
	}
	d.What, d.Timing, d.Functional = DivCommitted, fmt.Sprint(m.committed), fmt.Sprint(j.co.ICount)
	return true
}

// registers compares a committed register file with the functional
// machine's, bit for bit.
func (j *judge) registers(regs *[isa.NumRegs]interp.Value, d *DivergenceError) bool {
	for r := range regs {
		if t, f := regs[r], j.co.Regs[r]; !sameBits(t, f) {
			d.What, d.Where, d.Timing, d.Functional = DivRegister, isa.Reg(r).String(), regText(t), regText(f)
			return true
		}
	}
	return false
}

// regText renders a register value with its bits, so two values that
// differ only in a float's sign or NaN payload read differently.
func regText(v interp.Value) string {
	fb := math.Float64bits(v.F)
	switch {
	case fb == 0:
		return fmt.Sprintf("%#x", v.I)
	case v.I == 0:
		return fmt.Sprintf("%g (%#x)", v.F, fb)
	}
	return fmt.Sprintf("%#x / %g (%#x)", v.I, v.F, fb)
}

// memory compares the chunks the retiring head's drain wrote: whole, then
// byte by byte for the first that differs.
func (j *judge) memory(m *Multiscalar, d *DivergenceError) bool {
	for _, c := range j.chunks {
		if m.Backing.ReadN(c, arb.ChunkBytes) == j.co.Mem.ReadN(c, arb.ChunkBytes) {
			continue
		}
		for a := c; a < c+arb.ChunkBytes; a++ {
			if t, f := m.Backing.Byte(a), j.co.Mem.Byte(a); t != f {
				d.What, d.Where = DivMemory, fmt.Sprintf("0x%x", a)
				d.Timing, d.Functional = fmt.Sprintf("0x%02x", t), fmt.Sprintf("0x%02x", f)
				return true
			}
		}
	}
	return false
}

// output compares the output written since the last judged point.
func (j *judge) output(m *Multiscalar, d *DivergenceError) bool {
	t, f := m.env.Out.Bytes()[min(j.out, m.env.Out.Len()):], j.co.Env.Out.Bytes()[min(j.out, j.co.Env.Out.Len()):]
	if bytes.Equal(t, f) {
		j.out += len(t)
		return false
	}
	i := 0
	for i < len(t) && i < len(f) && t[i] == f[i] {
		i++
	}
	d.What, d.Where = DivOutput, fmt.Sprintf("byte %d", j.out+i)
	d.Timing, d.Functional = outText(t, i), outText(f, i)
	return true
}

func outText(b []byte, i int) string {
	if i >= len(b) {
		return "end of output"
	}
	return fmt.Sprintf("%q", b[i])
}
