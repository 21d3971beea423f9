package isa

import (
	"fmt"
	"sort"
	"sync"
)

// Memory layout constants shared by the assembler, loader and simulators.
const (
	TextBase  uint32 = 0x0000_1000 // program text
	DataBase  uint32 = 0x1000_0000 // static data
	HeapBase  uint32 = 0x2000_0000 // sbrk arena
	StackBase uint32 = 0x7000_0000 // bottom of the stack region: the sbrk break stays at or below it
	StackTop  uint32 = 0x7fff_fff0 // initial $sp (grows down)
	InstrSize uint32 = 4           // architectural instruction size in bytes
)

// TargetReturn is the sentinel successor-task address meaning "the task
// exits through a return; the next task's address comes from the return
// address (predicted by the return address stack)".
const TargetReturn uint32 = 0xffff_ffff

// MaxTaskTargets is the number of successor tasks a task descriptor can
// name (Section 5.1: the control flow predictor uses 4 targets per
// prediction).
const MaxTaskTargets = 4

// TaskDescriptor is the static description of one task (Section 2.2): its
// entry point, the registers it may create, and its possible successor
// tasks. Descriptors are held beside the program text and cached by the
// sequencer.
type TaskDescriptor struct {
	Name    string
	Entry   uint32   // address of the first instruction
	Create  RegMask  // registers the task may produce (conservative)
	Targets []uint32 // possible successor task entry addresses (≤ MaxTaskTargets); may include TargetReturn

	// PushRA, when non-zero, is the return address this task's call pushes:
	// the task ends with a jal and control continues at PushRA after the
	// callee returns. The sequencer pushes it on the return address stack
	// when it predicts CallTarget as this task's successor, and pops the
	// stack to resolve a successor of TargetReturn.
	PushRA uint32
	// CallTarget is the callee entry whose prediction triggers the PushRA
	// push. Zero when PushRA is zero.
	CallTarget uint32
}

// HasTarget reports whether addr is one of the descriptor's successor
// targets.
func (t *TaskDescriptor) HasTarget(addr uint32) bool {
	for _, a := range t.Targets {
		if a == addr {
			return true
		}
	}
	return false
}

// TargetIndex returns the position of addr in the target list, or -1.
func (t *TaskDescriptor) TargetIndex(addr uint32) int {
	for i, a := range t.Targets {
		if a == addr {
			return i
		}
	}
	return -1
}

// OutcomeIndex returns the number of the target an execution of the task
// left through, given where control went next and whether it got there
// by a return (the TargetReturn slot, whatever the address), or -1 when
// that exit is not among the targets.
func (t *TaskDescriptor) OutcomeIndex(next uint32, byReturn bool) int {
	if byReturn {
		next = TargetReturn
	}
	return t.TargetIndex(next)
}

func (t *TaskDescriptor) String() string {
	return fmt.Sprintf("task %s @0x%x create=%s targets=%v", t.Name, t.Entry, t.Create, t.Targets)
}

// Program is a loaded multiscalar binary: text, initialized data, the task
// descriptors, and the symbol table. The same Program image is accepted by
// the functional interpreter and the timing simulator.
type Program struct {
	Entry   uint32
	Text    []Instr // instruction i lives at TextBase + 4*i
	Data    []byte  // bytes at DataBase; never written after assembly
	Tasks   map[uint32]*TaskDescriptor
	Symbols map[string]uint32

	// Uops and Image are what the functional interpreter derives from
	// Text and Data — the decoded instruction stream, and the initial
	// memory image every machine's backing store starts from
	// (internal/interp). They are built on first use, shared by every
	// machine constructed over the program, and collected with it. A
	// program is immutable once something has run it; a copy that will be
	// rewritten must not carry them (Clone). Image points into Data
	// instead of copying it (mem.ImageOf), a Clone shares Data, and the
	// build store gives a source's scalar and multiscalar builds one Data
	// when their bytes are equal (job.Spec.Resolve), so writing Data would
	// change every machine built over any program that holds it.
	Uops, Image Derived
}

// Derived is a value computed from a Program once, on first use, and
// kept for as long as the Program itself.
type Derived struct {
	once sync.Once
	v    any
}

// Get returns the value, calling build for it the first time.
func (d *Derived) Get(build func() any) any {
	d.once.Do(func() { d.v = build() })
	return d.v
}

// Clone returns a copy of p whose text and task descriptors may be
// mutated freely and which derives its own Uops and Image. Data and
// symbols stay shared: neither is written after assembly.
func (p *Program) Clone() *Program {
	q := &Program{
		Entry:   p.Entry,
		Text:    append([]Instr(nil), p.Text...),
		Data:    p.Data,
		Tasks:   make(map[uint32]*TaskDescriptor, len(p.Tasks)),
		Symbols: p.Symbols,
	}
	for a, td := range p.Tasks {
		c := *td
		q.Tasks[a] = &c
	}
	return q
}

// InstrAt returns the instruction at byte address addr, or nil if addr is
// outside the text segment or unaligned.
func (p *Program) InstrAt(addr uint32) *Instr {
	if addr < TextBase || addr&3 != 0 {
		return nil
	}
	idx := (addr - TextBase) / InstrSize
	if int(idx) >= len(p.Text) {
		return nil
	}
	return &p.Text[idx]
}

// TextEnd returns the first byte address past the text segment.
func (p *Program) TextEnd() uint32 { return TextBase + uint32(len(p.Text))*InstrSize }

// TaskAt returns the task descriptor whose entry is addr, or nil.
func (p *Program) TaskAt(addr uint32) *TaskDescriptor {
	return p.Tasks[addr]
}

// TaskList returns the task descriptors ordered by entry address.
func (p *Program) TaskList() []*TaskDescriptor {
	out := make([]*TaskDescriptor, 0, len(p.Tasks))
	for _, t := range p.Tasks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Entry < out[j].Entry })
	return out
}

// Symbol returns the address bound to a label.
func (p *Program) Symbol(name string) (uint32, bool) {
	a, ok := p.Symbols[name]
	return a, ok
}

// Validate performs structural sanity checks on the program: entry within
// text, task entries and targets within text, target counts within bounds.
func (p *Program) Validate() error {
	inText := func(a uint32) bool {
		return a >= TextBase && a < p.TextEnd() && a&3 == 0
	}
	if len(p.Text) == 0 {
		return fmt.Errorf("isa: empty text segment")
	}
	if !inText(p.Entry) {
		return fmt.Errorf("isa: entry 0x%x outside text", p.Entry)
	}
	for addr, t := range p.Tasks {
		if addr != t.Entry {
			return fmt.Errorf("isa: task %s keyed at 0x%x but entry 0x%x", t.Name, addr, t.Entry)
		}
		if !inText(t.Entry) {
			return fmt.Errorf("isa: task %s entry 0x%x outside text", t.Name, t.Entry)
		}
		// Zero targets is legal: a terminal task exits the program.
		if len(t.Targets) > MaxTaskTargets {
			return fmt.Errorf("isa: task %s has %d targets (max %d)", t.Name, len(t.Targets), MaxTaskTargets)
		}
		for _, tgt := range t.Targets {
			if tgt != TargetReturn && !inText(tgt) {
				return fmt.Errorf("isa: task %s target 0x%x outside text", t.Name, tgt)
			}
		}
		if t.PushRA != 0 && !inText(t.PushRA) {
			return fmt.Errorf("isa: task %s return address 0x%x outside text", t.Name, t.PushRA)
		}
	}
	for i := range p.Text {
		in := &p.Text[i]
		if !in.Op.Valid() {
			return fmt.Errorf("isa: invalid opcode at 0x%x", TextBase+uint32(i)*InstrSize)
		}
		if in.Op.HasTarget() {
			if !inText(in.Target) {
				return fmt.Errorf("isa: %s at 0x%x targets 0x%x outside text",
					in.Op, TextBase+uint32(i)*InstrSize, in.Target)
			}
		}
	}
	return nil
}
