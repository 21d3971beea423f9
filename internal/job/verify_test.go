package job

import (
	"bytes"
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
	snap := checkpoint(t, s, full.Result.Cycles-10)

	s.Verify, s.Stdin = true, []byte("b")
	_, err = Execute(s, &Runtime{Restore: snap})
	var d *core.DivergenceError
	if !errors.As(err, &d) || d.What != core.DivExitCode || d.Timing != "97" || d.Functional != "98" {
		t.Fatalf("Execute over other input: %v; want an exit-code divergence 97 against 98", err)
	}
}

// checkpoint runs s's machine from the program entry and returns its
// snapshot taken at the first executed cycle at or after at.
func checkpoint(t *testing.T, s *Spec, at uint64) []byte {
	t.Helper()
	p, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	env := interp.NewSysEnv()
	env.In = bytes.NewReader(s.Stdin)
	m, err := core.NewMultiscalar(p, env, s.Config)
	if err != nil {
		t.Fatal(err)
	}
	var snap []byte
	m.ScheduleCheckpoint(at, func() (err error) {
		snap, err = m.Save()
		return err
	})
	if _, err := m.Run(); err != nil || snap == nil {
		t.Fatalf("checkpoint: %v (snapshot taken: %v)", err, snap != nil)
	}
	return snap
}

// TestRestoreRefusesRetiredKinds: a snapshot written by the separate
// scalar machine of earlier versions (kind 2 in the header), by the
// retired functional machine (kind 1) or as the sampler's retired warm
// capture (kind 4), is refused by name rather than misread, while the
// one machine's own snapshot resumes.
func TestRestoreRefusesRetiredKinds(t *testing.T) {
	s := baseSpec()
	s.Config, s.Mode = Machine(1, 1, false)
	snap := checkpoint(t, s, 10)
	if _, err := Execute(s, &Runtime{Restore: snap}); err != nil {
		t.Fatalf("restoring the one machine's own snapshot: %v", err)
	}
	const kindAt = 6 + 2 // after the magic and the format version
	for kind, name := range map[uint8]string{1: "interp", 2: "scalar", 4: "warm"} {
		snap[kindAt] = kind
		if _, err := Execute(s, &Runtime{Restore: snap}); err == nil ||
			!strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "want multiscalar") {
			t.Errorf("restoring a retired kind-%d snapshot: %v", kind, err)
		}
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
