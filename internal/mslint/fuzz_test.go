package mslint_test

import (
	"strings"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/mslint"
)

// FuzzLint: the linter must never panic on any program the assembler
// accepts, its report invariants must hold, and — the property that makes
// it a gate worth trusting — any multiscalar program whose findings are
// at most advisory sends (see advisoryOnly) must execute equivalently on
// the functional oracle and the timing simulator. Run with
// `go test -fuzz FuzzLint ./internal/mslint`.
func FuzzLint(f *testing.F) {
	// The assembler fuzzer's seeds: arbitrary-but-plausible sources.
	f.Add("main:\n\tli $t0, 1\n\tsyscall\n")
	f.Add("main:\n\tadd $t0, $t1, $t2 !f !s\n.task main targets=main create=$t0\n")
	f.Add(".data\nx:\t.word 1, x+4\n.text\nmain:\n\tlw $t0, x($gp)\n")
	f.Add("main:\n\tblt $t0, $t1, main\n\trelease $t0, $f3\n")
	f.Add(".msonly move $t9, $s0\n.sconly nop\nmain:\n\tj main !st\n")
	f.Add("main:\n\tli $t0, '\\n'\n\t.asciiz \"a\\\"b\"\n")
	// A clean two-task program (the equivalence path).
	f.Add("main:\n\tli $s0, 3 !f\n\tj next !s\nnext:\n\tadd $a0, $s0, $zero\n\tli $v0, 1\n\tsyscall\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n.task main targets=next create=$s0\n.task next\n")
	// One seed per diagnostic family, so mutation starts near the
	// interesting boundaries of the contract.
	f.Add("main:\n\tli $s0, 1 !f\n\tli $s0, 2\n\tj next !s\nnext:\n\tadd $t0, $s0, $zero\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n.task main targets=next create=$s0\n.task next\n")
	f.Add("main:\n\tli $t0, 1\n\tj next !s\nnext:\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n.task main\n.task next\n")
	f.Add("main:\n\tli $t0, 1\n\tj t !s\nt:\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n.task t\n")
	// Advisory-send boundaries, which must still run right: a
	// pass-through bit the task never writes ($s1), a send left to the
	// completion flush on one path ($s6), and a call whose continuation
	// decides what the callee owes.
	f.Add("main:\n\tli $s0, 1 !f\n\tj next !s\nnext:\n\tadd $a0, $s0, $s1\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n.task main targets=next create=$s0,$s1\n.task next\n")
	f.Add("main:\n\tli $s0, 1 !f\n\tli $s6, 7 !f\n\tj t !s\nt:\n\tbnez $s0, skip\n\tli $s6, 42 !f\nskip:\n\tj out !s\nout:\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n.task main targets=t create=$s0,$s6\n.task t targets=out create=$s6\n.task out\n")
	f.Add("main:\n\tjal fn\n\tj done !s\nfn:\n\tjr $ra !s\ndone:\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n.task main targets=done\n.task done\n")
	// A callee's value read after its return, missing from its mask: an
	// MS001, never a clean program that runs wrong.
	f.Add(returnSrc)

	f.Fuzz(func(t *testing.T, src string) {
		for _, mode := range []asm.Mode{asm.ModeScalar, asm.ModeMultiscalar} {
			res, err := asm.AssembleOpts(src, asm.Options{Mode: mode, NoLint: true})
			if err != nil || res == nil {
				continue
			}
			// Lint must not panic, with or without a line table.
			rep := mslint.Lint(res.Prog, res.Lines)
			mslint.Lint(res.Prog, nil)

			if len(rep.Errors())+len(rep.Warnings()) != len(rep.Diags) {
				t.Fatalf("error/warning split loses findings: %d + %d != %d",
					len(rep.Errors()), len(rep.Warnings()), len(rep.Diags))
			}
			if (rep.Err() != nil) != rep.HasErrors() {
				t.Fatalf("Err() = %v but HasErrors() = %v", rep.Err(), rep.HasErrors())
			}
			if _, jerr := rep.JSON(); jerr != nil {
				t.Fatalf("report does not marshal: %v", jerr)
			}

			// The gate property: a multiscalar program whose findings are
			// all advisory sends must run equivalently on the oracle and
			// the timing simulator. Any other warning stays outside (an
			// indirect-call warning, for example, marks the program as
			// unanalyzable). Bounded on both sides; programs that run
			// away are skipped, not failed.
			if mode != asm.ModeMultiscalar || !advisoryOnly(rep) ||
				len(res.Prog.Tasks) == 0 || len(res.Prog.Text) > 4096 {
				continue
			}
			oracleEnv := interp.NewSysEnv()
			om := interp.NewMachine(res.Prog, oracleEnv)
			if err := om.Run(100_000); err != nil {
				continue // does not terminate cleanly; nothing to compare
			}
			cfg := core.DefaultConfig(4, 1, false)
			cfg.MaxCycles = 2_000_000
			msEnv := interp.NewSysEnv()
			m, err := core.NewMultiscalar(res.Prog, msEnv, cfg)
			if err != nil {
				t.Fatalf("program passed by lint rejected by the simulator: %v\nsource:\n%s", err, src)
			}
			msRes, err := m.Run()
			if err != nil {
				if strings.Contains(err.Error(), "exceeded") {
					continue // hit the cycle bound, not a contract failure
				}
				t.Fatalf("program passed by lint fails at runtime: %v\nsource:\n%s", err, src)
			}
			if msRes.Out != oracleEnv.Out.String() {
				t.Fatalf("program passed by lint diverges from the oracle: %q vs %q\nsource:\n%s",
					msRes.Out, oracleEnv.Out.String(), src)
			}
			if msRes.Committed != om.ICount {
				t.Fatalf("program passed by lint committed %d instructions, oracle executed %d\nsource:\n%s",
					msRes.Committed, om.ICount, src)
			}
		}
	})
}

// advisoryOnly reports whether every finding of rep is a send the
// program pays for nothing: a create-mask bit the task does not owe
// (MS002, MS017), a send left to the completion flush (MS003), one that
// never transmits (MS018) or one that comes late (MS019). Such a program
// honours the contract, so the machine must run it right. Any other
// finding breaks the contract or its structure. MS011 in particular
// stays outside: a call with wrong return metadata can validate a next
// task that has no descriptor, and the run ends in core.NoTaskError
// instead of the oracle's output.
func advisoryOnly(rep *mslint.Report) bool {
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
