package job

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
)

// TestVerifyComparesExitCode: a verified run whose exit code is not the
// sequential run's fails with the judge's exit-code divergence. The
// program exits with the byte it reads; the run restores a checkpoint
// taken late in a run over other input, so the timing machine has read
// 'a' while the functional machine beside it reads 'b'. Everything else
// agrees: the read and the exit are in the one task the scalar machine
// runs, which only the run end judges.
func TestVerifyComparesExitCode(t *testing.T) {
	s := baseSpec()
	s.Workload, s.Scale = "", 0
	s.Source = "main:\n\tli $v0, 12\n\tsyscall\n\tmove $a0, $v0\n" +
		strings.Repeat("\taddi $t0, $t0, 1\n", 40) + "\tli $v0, 10\n\tsyscall\n"
	s.Config, s.Mode = Machine(1, 1, false)
	s.Stdin = []byte("a")
	full, err := Execute(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Result.ExitCode != 'a' {
		t.Fatalf("exit code %d, want %d", full.Result.ExitCode, 'a')
	}
	var snap []byte
	rt := &Runtime{CheckpointAt: full.Result.Cycles - 10, CheckpointSave: func(b []byte) error { snap = b; return nil }}
	if _, err := Execute(s, rt); err != nil || snap == nil {
		t.Fatalf("checkpoint: %v (snapshot taken: %v)", err, snap != nil)
	}

	s.Verify, s.Stdin = true, []byte("b")
	_, err = Execute(s, &Runtime{Restore: snap})
	var d *core.DivergenceError
	if !errors.As(err, &d) || d.What != core.DivExitCode || d.Timing != "97" || d.Functional != "98" {
		t.Fatalf("Execute over other input: %v; want an exit-code divergence 97 against 98", err)
	}
}

// TestSbrkCeiling: a guest whose sbrk would carry the break into the
// stack region, or wrap it, fails with interp.SbrkError under the
// functional oracle (Verify runs it first) and under the timing machine
// alike, since both run syscalls through one SysEnv.
func TestSbrkCeiling(t *testing.T) {
	grow := func(incr string) string {
		return "main:\n\tli $a0, " + incr + "\n\tli $v0, 9\n\tsyscall\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n"
	}
	room := isa.StackBase - isa.HeapBase
	for _, c := range []struct {
		name, incr string
		fails      bool
	}{
		{"to the stack", strconv.FormatUint(uint64(room), 10), false},
		{"into the stack", strconv.FormatUint(uint64(room)+1, 10), true},
		{"negative", "-16", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, verify := range []bool{true, false} {
				s := baseSpec()
				s.Workload, s.Scale, s.Source = "", 0, grow(c.incr)
				s.Config, s.Mode = Machine(1, 1, false)
				s.Verify = verify
				_, err := Execute(s, nil)
				var sbrk *interp.SbrkError
				if got := errors.As(err, &sbrk); got != c.fails || (!c.fails && err != nil) {
					t.Fatalf("verify=%v: %v; want an SbrkError: %v", verify, err, c.fails)
				}
				if c.fails && sbrk.Break != isa.HeapBase {
					t.Errorf("verify=%v: error names break 0x%x, want 0x%x", verify, sbrk.Break, isa.HeapBase)
				}
			}
		})
	}
}
