package job

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
)

// TestVerifyComparesExitCode: a verified run whose exit code is not the
// oracle's fails with ExitCodeError. The oracle store is seeded with the
// program's true reference but for its exit code.
func TestVerifyComparesExitCode(t *testing.T) {
	ResetBuildMemo()
	t.Cleanup(ResetBuildMemo)
	s := baseSpec()
	s.Verify = true
	if _, err := Execute(s, nil); err != nil {
		t.Fatalf("the true oracle: %v", err)
	}

	ResetBuildMemo()
	p, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	truth, err := RunOracle(p, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	key, err := oracleKey(p, nil, DefaultMaxInstrs)
	if err != nil {
		t.Fatal(err)
	}
	wrong := *truth
	wrong.ExitCode = truth.ExitCode + 7
	if _, _, err := oracles.Do(context.Background(), key, func() (*Oracle, error) { return &wrong, nil }); err != nil {
		t.Fatal(err)
	}

	_, err = Execute(s, nil)
	var exit *ExitCodeError
	if !errors.As(err, &exit) || exit.Timing != truth.ExitCode || exit.Oracle != wrong.ExitCode {
		t.Fatalf("Execute against a wrong exit code: %v; want ExitCodeError{%d, %d}", err, truth.ExitCode, wrong.ExitCode)
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
