// Tests for the annotation-contract linter: one deliberately broken
// program per diagnostic class, asserting the exact code, severity, and
// source line of every finding, plus a certification pass over the
// bundled workload suite.
//
// The test sources all start with a newline so that the first label sits
// on line 2 and the first instruction on line 3; the expected line
// numbers below are literal line numbers within the raw string.
package mslint_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/isa"
	"multiscalar/internal/mslint"
	"multiscalar/internal/workloads"
)

// lintSrc assembles a multiscalar source with the built-in lint gate
// disabled (the test wants the report, not the rejection) and lints it.
func lintSrc(t *testing.T, src string) *mslint.Report {
	t.Helper()
	res, err := asm.AssembleOpts(src, asm.Options{Mode: asm.ModeMultiscalar, NoLint: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return mslint.Lint(res.Prog, res.Lines)
}

// want is one expected finding. Reg is checked only when non-empty.
type want struct {
	code string
	sev  mslint.Severity
	line int
	reg  string
}

func checkReport(t *testing.T, rep *mslint.Report, wants []want) {
	t.Helper()
	key := func(code string, line int) string { return fmt.Sprintf("%03d/%s", line, code) }
	var got, exp []string
	for _, d := range rep.Diags {
		got = append(got, key(d.Code, d.Line))
	}
	for _, w := range wants {
		exp = append(exp, key(w.code, w.line))
	}
	sort.Strings(got)
	sort.Strings(exp)
	if fmt.Sprint(got) != fmt.Sprint(exp) {
		t.Fatalf("findings mismatch\n got: %v\nwant: %v\nreport:\n%s", got, exp, rep)
	}
	for _, w := range wants {
		found := false
		for _, d := range rep.Diags {
			if d.Code == w.code && d.Line == w.line {
				found = true
				if d.Severity != w.sev {
					t.Errorf("%s line %d: severity %s, want %s", w.code, w.line, d.Severity, w.sev)
				}
				if w.reg != "" && d.Reg != w.reg {
					t.Errorf("%s line %d: reg %q, want %q", w.code, w.line, d.Reg, w.reg)
				}
			}
		}
		if !found {
			t.Errorf("missing %s at line %d\nreport:\n%s", w.code, w.line, rep)
		}
	}
}

func TestDiagnostics(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		mutate func(p *isa.Program) // optional descriptor surgery before linting
		wants  []want
	}{
		{
			name: "clean",
			src: `
main:
	li $s0, 3 !f
	j next !s
next:
	addi $s0, $s0, 0
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next create=$s0
.task next
`,
			wants: nil,
		},
		{
			// $s1 is written by main and read by loop before any write,
			// but main's create mask omits it: the successor would consume
			// a stale pass-through value. Anchored at the first write.
			name: "MS001 create missing",
			src: `
main:
	li $s0, 1 !f
	li $s1, 0
	j loop !s
loop:
	addi $s1, $s1, 1 !f
	addi $s0, $s0, -1 !f
	bnez $s0, loop !s
done:
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=loop create=$s0
.task loop targets=loop,done create=$s0,$s1
.task done
`,
			wants: []want{
				{mslint.CodeCreateMissing, mslint.SevError, 4, "$s1"},
			},
		},
		{
			// $t2 is written by main and read by cont, the continuation
			// main's call pushes: no target names cont, but it runs after
			// fn's tasks, which pass $t2 through untouched. fn's $v0 is
			// dead after its return: the only continuation, cont, writes
			// $v0 before reading it.
			name: "MS001 register held across a call",
			src: `
main:
	li $t2, 7
	jal fn !s
cont:
	move $a0, $t2
	li $v0, 10
	syscall
fn:
	add $v0, $a0, $a0 !f
	jr $ra !s
.task main targets=fn pushra=cont create=$ra
.task cont
.task fn targets=ret create=$v0
`,
			wants: []want{
				{mslint.CodeCreateMissing, mslint.SevError, 3, "$t2"},
				{mslint.CodeFlushOnly, mslint.SevWarning, 4, "$ra"},
				{mslint.CodeCreateDead, mslint.SevWarning, 10, "$v0"},
			},
		},
		{
			// FN leaves $t5 for its caller, and the continuation CONT reads
			// it, but FN's mask omits it. No ABI names $t5 live after a
			// return; the continuation does.
			name: "MS001 register read after a return",
			src:  returnSrc,
			wants: []want{
				{mslint.CodeCreateMissing, mslint.SevError, 26, "$t5"},
			},
		},
		{
			// $s3 is in the create mask but dead at the only successor;
			// it also rides the completion flush (never forwarded), so the
			// coverage check fires alongside.
			name: "MS002 dead create register",
			src: `
main:
	li $s0, 1 !f
	j next !s
next:
	addi $s0, $s0, 0
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next create=$s0,$s3
.task next
`,
			wants: []want{
				{mslint.CodeCreateDead, mslint.SevWarning, 3, "$s3"},
				{mslint.CodeFlushOnly, mslint.SevWarning, 4, "$s3"},
			},
		},
		{
			// $s0 is in the create mask and written, but the write carries
			// no forward bit: successors stall until the completion flush.
			// Anchored at the exit the uncovered path reaches.
			name: "MS003 flush-only forward",
			src: `
main:
	li $s0, 5
	j next !s
next:
	addi $s0, $s0, 0
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next create=$s0
.task next
`,
			wants: []want{
				{mslint.CodeFlushOnly, mslint.SevWarning, 4, "$s0"},
			},
		},
		{
			// The forward bit sits on the first of two writes of $s0: the
			// ring would transmit the stale first value.
			name: "MS004 stale forward bit",
			src: `
main:
	li $s0, 1 !f
	li $s0, 2
	j next !s
next:
	addi $s0, $s0, 0
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next create=$s0
.task next
`,
			wants: []want{
				{mslint.CodeStaleForward, mslint.SevError, 3, "$s0"},
			},
		},
		{
			// The forward bit on $t0 names a register outside the create
			// mask: no successor holds a reservation for it.
			name: "MS005 foreign forward bit",
			src: `
main:
	li $s0, 1 !f
	li $t0, 7 !f
	j next !s
next:
	addi $s0, $s0, 0
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next create=$s0
.task next
`,
			wants: []want{
				{mslint.CodeForeignForward, mslint.SevWarning, 4, "$t0"},
			},
		},
		{
			// The stop-tagged jump exits to next, which the descriptor does
			// not declare: the sequencer could never have predicted it.
			name: "MS006 undeclared exit",
			src: `
main:
	li $t0, 1
	j next !s
next:
	li $v0, 10
	li $a0, 0
	syscall
.task main
.task next
`,
			wants: []want{
				{mslint.CodeUndeclaredExit, mslint.SevError, 4, ""},
			},
		},
		{
			// Target other is declared but no statically discovered exit
			// reaches it. Anchored at the task entry.
			name: "MS007 unreachable target",
			src: `
main:
	li $t0, 1
	j next !s
next:
	li $v0, 10
	li $a0, 0
	syscall
other:
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next,other
.task next
.task other
`,
			wants: []want{
				{mslint.CodeUnreachableTarget, mslint.SevWarning, 3, ""},
			},
		},
		{
			// The jump into task next carries no stop bit, so the unit
			// would keep fetching next's instructions inside main's task.
			// With the edge rejected, main has no exit and its declared
			// target is reported unreachable as well.
			name: "MS008 missing stop bit",
			src: `
main:
	li $t0, 1
	j next
next:
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next
.task next
`,
			wants: []want{
				{mslint.CodeMissingStop, mslint.SevError, 4, ""},
				{mslint.CodeUnreachableTarget, mslint.SevWarning, 3, ""},
			},
		},
		{
			// fn is both a suppressed callee of main (jal without stop) and
			// its own task: its body executes twice per traversal. The stop
			// bit on its return is also flagged from the caller's view.
			name: "MS009 callee is also a task",
			src: `
main:
	jal fn
	j done !s
fn:
	jr $ra !s
done:
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=done
.task fn targets=ret
.task done
`,
			wants: []want{
				{mslint.CodeTaskOverlap, mslint.SevWarning, 3, ""},
				{mslint.CodeStopInCallee, mslint.SevWarning, 6, ""},
			},
		},
		{
			// Descriptor surgery pushes task a's target list past the
			// hardware limit (duplicates, so every exit stays declared).
			name: "MS010 too many targets",
			src: `
main:
	li $t0, 1
	j a !s
a:
	li $t1, 2
	j b !s
b:
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=a
.task a targets=b
.task b
`,
			mutate: func(p *isa.Program) {
				ta := p.Tasks[p.Symbols["a"]]
				for len(ta.Targets) <= isa.MaxTaskTargets {
					ta.Targets = append(ta.Targets, ta.Targets[0])
				}
			},
			wants: []want{
				{mslint.CodeTooManyTargets, mslint.SevError, 6, ""},
			},
		},
		{
			// The task ends in a call but the descriptor carries no pushra,
			// so the return address stack cannot predict the continuation.
			name: "MS011 call exit without pushra",
			src: `
main:
	jal fn !s
fn:
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=fn
.task fn
`,
			wants: []want{
				{mslint.CodeCallPushRA, mslint.SevWarning, 3, ""},
			},
		},
		{
			// Target other resolves to a label but no task descriptor:
			// the sequencer has nothing to dispatch there. The target is
			// also unreachable by any exit.
			name: "MS012 target without descriptor",
			src: `
main:
	li $t0, 1
	j next !s
next:
	li $v0, 10
	li $a0, 0
	syscall
other:
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next,other
.task next
`,
			wants: []want{
				{mslint.CodeBadTaskRef, mslint.SevError, 3, ""},
				{mslint.CodeUnreachableTarget, mslint.SevWarning, 3, ""},
			},
		},
		{
			// fn is pulled into main's task (call without stop), so the
			// stop bit on its return would end the task mid-call for every
			// caller.
			name: "MS013 stop inside callee",
			src: `
main:
	jal fn
	j done !s
fn:
	jr $ra !s
done:
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=done
.task done
`,
			wants: []want{
				{mslint.CodeStopInCallee, mslint.SevWarning, 6, ""},
			},
		},
		{
			// An indirect call inside the region defeats static exit and
			// effect analysis. What the callee writes is unknown, so main
			// owes done everything live into it: the exit syscall's
			// argument registers beyond the $a0 done writes.
			name: "MS014 indirect call",
			src: `
main:
	la $t0, fn
	jalr $t0
	j done !s
fn:
	jr $ra !s
done:
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=done
.task done
`,
			wants: []want{
				{mslint.CodeCreateMissing, mslint.SevError, 3, ""}, // $a1
				{mslint.CodeCreateMissing, mslint.SevError, 3, ""}, // $a2
				{mslint.CodeCreateMissing, mslint.SevError, 3, ""}, // $a3
				{mslint.CodeIndirect, mslint.SevWarning, 4, ""},
			},
		},
		{
			// The program has task descriptors but none at the entry: the
			// sequencer cannot dispatch the first task.
			name: "MS015 entry is not a task",
			src: `
main:
	li $t0, 1
	j t !s
t:
	li $v0, 10
	li $a0, 0
	syscall
.task t
`,
			wants: []want{
				{mslint.CodeEntryNotTask, mslint.SevError, 3, ""},
			},
		},
		{
			// The FP compare happens in main but the conditional branch
			// consuming the flag sits in task t: the flag is task-local and
			// does not cross the boundary.
			name: "MS016 FP flag crosses boundary",
			src: `
main:
	c.lt.d $f0, $f2
	j t !s
t:
	bc1t done !st
	j done !s
done:
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=t
.task t targets=done
.task done
`,
			wants: []want{
				{mslint.CodeFCCBoundary, mslint.SevError, 6, ""},
			},
		},
		{
			// $s1 is in main's create mask and next reads it, but main
			// never writes it: successors wait to receive a pass-through
			// value. The never-sent register also rides the completion
			// flush, so the coverage check fires alongside (like MS002).
			name: "MS017 over-broad create mask",
			src: `
main:
	li $s0, 1 !f
	j next !s
next:
	add $a0, $s0, $s1
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next create=$s0,$s1
.task next
`,
			wants: []want{
				{mslint.CodeOverBroadCreate, mslint.SevWarning, 3, "$s1"},
				{mslint.CodeFlushOnly, mslint.SevWarning, 4, "$s1"},
			},
		},
		{
			// $s0 is forwarded at its write and released again on the same
			// path: each create-mask register rides the ring once per task
			// execution, so the release never transmits.
			name: "MS018 dead forward",
			src: `
main:
	li $s0, 1 !f
	.msonly release $s0
	j next !s
next:
	add $a0, $s0, $zero
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next create=$s0
.task next
`,
			wants: []want{
				{mslint.CodeDeadForward, mslint.SevWarning, 4, "$s0"},
			},
		},
		{
			// $s0 is final after line 3 but its release waits behind an
			// unrelated instruction in the same block: successors stall a
			// cycle longer than the dataflow requires.
			name: "MS019 late release",
			src: `
main:
	li $s0, 1
	li $t0, 5
	.msonly release $s0
	j next !s
next:
	add $a0, $s0, $zero
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next create=$s0
.task next
`,
			wants: []want{
				{mslint.CodeLateForward, mslint.SevWarning, 5, "$s0"},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := asm.AssembleOpts(tc.src, asm.Options{Mode: asm.ModeMultiscalar, NoLint: true})
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			if tc.mutate != nil {
				tc.mutate(res.Prog)
			}
			checkReport(t, mslint.Lint(res.Prog, res.Lines), tc.wants)
		})
	}
}

// TestNoTasksLintsClean checks the scalar escape hatch: a program without
// task descriptors has no contract to verify.
func TestNoTasksLintsClean(t *testing.T) {
	src := `
main:
	li $v0, 10
	li $a0, 0
	syscall
`
	rep := lintSrc(t, src)
	if len(rep.Diags) != 0 {
		t.Fatalf("program without tasks should lint clean, got:\n%s", rep)
	}
}

// TestReportAPI exercises the report surface the tools depend on:
// error/warning split, Err folding, JSON shape.
func TestReportAPI(t *testing.T) {
	src := `
main:
	li $s0, 1 !f
	li $s0, 2
	li $t1, 3 !f
	j next !s
next:
	addi $s0, $s0, 0
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next create=$s0
.task next
`
	rep := lintSrc(t, src)
	if len(rep.Errors()) != 1 || len(rep.Warnings()) != 1 {
		t.Fatalf("want 1 error + 1 warning, got:\n%s", rep)
	}
	if !rep.HasErrors() {
		t.Fatal("HasErrors = false with an error present")
	}
	err := rep.Err()
	if err == nil {
		t.Fatal("Err() = nil with an error present")
	}
	out, jerr := rep.JSON()
	if jerr != nil {
		t.Fatalf("JSON: %v", jerr)
	}
	for _, needle := range []string{`"code"`, `"MS004"`, `"severity"`, `"error"`, `"line"`} {
		if !strings.Contains(string(out), needle) {
			t.Errorf("JSON output missing %s:\n%s", needle, out)
		}
	}
}

// returnSrc is a caller loop of six iterations around a function task
// that returns its result in $v0 and leaves a second value in $t5, which
// the continuation adds in as well: 615 on the oracle. FN's mask omits
// $t5. Nothing in the calling convention keeps $t5 live after a return,
// but CONT reads it, and a continuation running on another unit that
// holds no reservation for $t5 adds a stale value instead.
const returnSrc = `
main:
	li   $s0, 6 !f
	li   $s1, 0 !f
	j    CALL !s
CALL:
	move $a0, $s0 !f
	jal  FN !s !f
CONT:
	add  $s1, $s1, $v0
	add  $s1, $s1, $t5 !f
	addi $s0, $s0, -1 !f
	bnez $s0, CALL !s
DONE:
	move $a0, $s1
	li   $v0, 1
	syscall
	li   $v0, 10
	li   $a0, 0
	syscall
FN:
	sll  $t0, $a0, 3
	sll  $t1, $a0, 1
	add  $t0, $t0, $t1
	addi $v0, $t0, 50 !f
	sll  $t5, $a0, 2
	add  $t5, $t5, $a0
	jr   $ra !s
.task main targets=CALL create=$s0,$s1
.task CALL targets=FN pushra=CONT call=FN create=$a0,$ra
.task FN targets=ret create=$v0
.task CONT targets=CALL,DONE create=$s0,$s1
.task DONE
`

// orderSrc produces four findings across two anchors: $s3 is dead at
// every successor (MS002) and $s1 is never written (MS017), both
// anchored at the task entry on line 3; neither is ever sent, so the
// coverage check flags both at the exit on line 4.
const orderSrc = `
main:
	li $s0, 1 !f
	j next !s
next:
	add $a0, $s0, $s1
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next create=$s0,$s1,$s3
.task next
`

// TestDiagnosticOrder pins the documented report order: ascending by
// source line, then instruction address, then code, then register. The
// four findings of orderSrc exercise every tier — two share line AND
// address (code breaks the tie), two share line, address and code
// (register breaks the tie).
func TestDiagnosticOrder(t *testing.T) {
	rep := lintSrc(t, orderSrc)
	got := ""
	for _, d := range rep.Diags {
		got += fmt.Sprintf("%d:%s:%s ", d.Line, d.Code, d.Reg)
	}
	want := "3:MS002:$s3 3:MS017:$s1 4:MS003:$s1 4:MS003:$s3 "
	if got != want {
		t.Fatalf("diagnostic order:\n got %q\nwant %q\nreport:\n%s", got, want, rep)
	}
}

// TestWorkloadsLintClean certifies the bundled benchmark suite against
// the contract: every workload (including the extras) must assemble and
// lint with zero errors at its test scale. The only findings allowed are
// create-mask bits the task does not owe (MS002, MS017), and the set is
// pinned. bsearch and hashmix carry two each: their function tasks'
// masks are ABI-conservative, naming every register the calling
// convention calls live at return, where no caller reads two of them.
// Every other workload carries none.
func TestWorkloadsLintClean(t *testing.T) {
	var extra []string
	for _, name := range workloads.Names() {
		w := workloads.Get(name)
		t.Run(w.Name, func(t *testing.T) {
			res, err := asm.AssembleOpts(w.Source(w.TestScale),
				asm.Options{Mode: asm.ModeMultiscalar, NoLint: true})
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			rep := mslint.Lint(res.Prog, res.Lines)
			for _, d := range rep.Diags {
				if d.Code != mslint.CodeCreateDead && d.Code != mslint.CodeOverBroadCreate {
					t.Errorf("workload %s: %s", w.Name, d.String())
					continue
				}
				extra = append(extra, w.Name+" "+d.Task+" "+d.Reg)
			}
		})
	}
	sort.Strings(extra)
	want := "[bsearch BFIND $s6 bsearch BFIND $v1 hashmix HASH $s7 hashmix HASH $v1]"
	if got := fmt.Sprint(extra); got != want {
		t.Errorf("MS002/MS017 findings %v, want %s", extra, want)
	}
}

// TestLintWithoutLines checks that diagnostics degrade gracefully when
// no line table is available (loaded .msb containers): findings anchor
// to addresses and render with the address instead of a line.
func TestLintWithoutLines(t *testing.T) {
	src := `
main:
	li $s0, 1 !f
	li $s0, 2
	j next !s
next:
	addi $s0, $s0, 0
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next create=$s0
.task next
`
	res, err := asm.AssembleOpts(src, asm.Options{Mode: asm.ModeMultiscalar, NoLint: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	rep := mslint.Lint(res.Prog, nil)
	if len(rep.Errors()) != 1 {
		t.Fatalf("want 1 error, got:\n%s", rep)
	}
	d := rep.Errors()[0]
	if d.Line != 0 {
		t.Errorf("line = %d without a line table, want 0", d.Line)
	}
	if d.Addr == 0 {
		t.Error("diagnostic carries no address")
	}
	if got := d.String(); !strings.Contains(got, "0x") {
		t.Errorf("String() = %q, want an address prefix", got)
	}
}
