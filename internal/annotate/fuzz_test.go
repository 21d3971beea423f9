package annotate_test

import (
	"strings"
	"testing"

	"multiscalar/internal/annotate"
	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/mslint"
)

// FuzzAnnotate: the optimizer must never panic on any program the
// assembler accepts, and — the soundness property — for any multiscalar
// program whose only lint findings are ones the optimizer removes and
// that the timing machine runs right, the optimized binary must run
// right too: on the functional
// oracle (same output, same exit, same instruction count: a removed
// release decays to a nop, so even the count is preserved) and on a
// 4-unit timing machine (the oracle's output and committed count). The
// interpreter ignores annotations, so only the timing machine sees a
// dropped create-mask bit that a successor needed.
// Run with `go test -fuzz FuzzAnnotate ./internal/annotate`.
func FuzzAnnotate(f *testing.F) {
	// Mirror FuzzLint's seeds so mutation starts near the same
	// boundaries of the annotation contract.
	f.Add("main:\n\tli $t0, 1\n\tsyscall\n")
	f.Add("main:\n\tadd $t0, $t1, $t2 !f !s\n.task main targets=main create=$t0\n")
	f.Add("main:\n\tblt $t0, $t1, main\n\trelease $t0, $f3\n")
	f.Add(".msonly move $t9, $s0\n.sconly nop\nmain:\n\tj main !st\n")
	f.Add("main:\n\tli $s0, 3 !f\n\tj next !s\nnext:\n\tadd $a0, $s0, $zero\n\tli $v0, 1\n\tsyscall\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n.task main targets=next create=$s0\n.task next\n")
	// Optimizer-specific boundaries: a droppable pass-through bit, a
	// flush-only path wanting a release, and a call whose return
	// liveness decides what the callee owes.
	f.Add("main:\n\tli $s0, 1 !f\n\tj next !s\nnext:\n\tadd $a0, $s0, $s1\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n.task main targets=next create=$s0,$s1\n.task next\n")
	f.Add("main:\n\tli $s0, 1 !f\n\tli $s6, 7 !f\n\tj t !s\nt:\n\tbnez $s0, skip\n\tli $s6, 42 !f\nskip:\n\tj out !s\nout:\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n.task main targets=t create=$s0,$s6\n.task t targets=out create=$s6\n.task out\n")
	f.Add("main:\n\tjal fn\n\tj done !s\nfn:\n\tjr $ra !s\ndone:\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n.task main targets=done\n.task done\n")
	// A callee's value read after its return: its bit must stay.
	f.Add(returnSrc)

	f.Fuzz(func(t *testing.T, src string) {
		res, err := asm.AssembleOpts(src, asm.Options{Mode: asm.ModeMultiscalar, NoLint: true})
		if err != nil || res == nil {
			return
		}
		// Analyze/Optimize must not panic on anything assemblable,
		// lint-clean or not.
		plan := annotate.Analyze(res.Prog, annotate.Options{InsertReleases: true})
		_ = plan.String()
		opt, _ := annotate.Optimize(res.Prog)

		// The soundness property only holds for programs that honor the
		// annotation contract: gate on a report whose findings are all
		// ones the optimizer exists to remove, and bound the runs so
		// runaway inputs are skipped, not failed.
		rep := mslint.Lint(res.Prog, res.Lines)
		if !onlyOptimizable(rep) || len(res.Prog.Tasks) == 0 || len(res.Prog.Text) > 4096 {
			return
		}
		oracleEnv := interp.NewSysEnv()
		om := interp.NewMachine(res.Prog, oracleEnv)
		if err := om.Run(100_000); err != nil {
			return // does not terminate cleanly; nothing to compare
		}
		if hand, err := runBounded(res.Prog); err != nil || hand == nil ||
			hand.Out != oracleEnv.Out.String() || hand.Committed != om.ICount {
			return // the input already runs wrong: no test of the optimizer
		}
		optEnv := interp.NewSysEnv()
		optM := interp.NewMachine(opt, optEnv)
		if err := optM.Run(200_000); err != nil {
			t.Fatalf("optimized program fails on the oracle: %v\nplan:\n%s\nsource:\n%s", err, plan, src)
		}
		if optEnv.Out.String() != oracleEnv.Out.String() ||
			optEnv.ExitCode != oracleEnv.ExitCode || optM.ICount != om.ICount {
			t.Fatalf("optimized program diverges: out %q vs %q, exit %d vs %d, icount %d vs %d\nplan:\n%s\nsource:\n%s",
				optEnv.Out.String(), oracleEnv.Out.String(),
				optEnv.ExitCode, oracleEnv.ExitCode, optM.ICount, om.ICount, plan, src)
		}
		auto, err := runBounded(opt)
		if err != nil {
			t.Fatalf("optimized program fails on the timing machine: %v\nplan:\n%s\nsource:\n%s", err, plan, src)
		}
		if auto != nil && (auto.Out != oracleEnv.Out.String() || auto.Committed != om.ICount) {
			t.Fatalf("optimized program diverges on the timing machine: %q vs %q, committed %d vs %d\nplan:\n%s\nsource:\n%s",
				auto.Out, oracleEnv.Out.String(), auto.Committed, om.ICount, plan, src)
		}

		// The optimized program must itself satisfy the contract's hard
		// errors — tightening must never break MS001/MS004 soundness.
		if optRep := mslint.Lint(opt, nil); optRep.HasErrors() {
			t.Fatalf("optimized program has lint errors:\n%s\nplan:\n%s\nsource:\n%s", optRep, plan, src)
		}

		// Source-level rewrite, when it applies, verifies internally
		// (interp equivalence) and must re-assemble; exercise it too.
		if _, _, err := annotate.RewriteSource(src); err != nil {
			t.Fatalf("RewriteSource failed on a program without lint errors: %v\nsource:\n%s", err, src)
		}
	})
}

// onlyOptimizable reports whether every finding of rep is a send the
// program pays for nothing, which the optimizer exists to remove: a
// create-mask bit the task does not owe (MS002, MS017), a send left to
// the completion flush (MS003), one that never transmits (MS018) or one
// that comes late (MS019). Any other finding breaks the contract or its
// structure, and the machine need not run such a program at all.
func onlyOptimizable(rep *mslint.Report) bool {
	for _, d := range rep.Diags {
		switch d.Code {
		case mslint.CodeCreateDead, mslint.CodeOverBroadCreate, mslint.CodeFlushOnly,
			mslint.CodeDeadForward, mslint.CodeLateForward:
		default:
			return false
		}
	}
	return true
}

// runBounded runs p on a 4-unit timing machine under a cycle budget. A
// run that exhausts the budget returns a nil result and no error: a
// slow input, not a broken one.
func runBounded(p *isa.Program) (*core.Result, error) {
	c := core.DefaultConfig(4, 1, false)
	c.MaxCycles = 2_000_000
	m, err := core.NewMultiscalar(p, interp.NewSysEnv(), c)
	if err != nil {
		return nil, err
	}
	res, err := m.Run()
	if err != nil && strings.Contains(err.Error(), "exceeded") {
		return nil, nil
	}
	return res, err
}
