package job

import (
	"strings"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/trace"
)

func baseSpec() *Spec {
	return &Spec{
		Op:       OpSimulate,
		Workload: "example",
		Scale:    -1,
		Mode:     asm.ModeMultiscalar,
		Config:   core.DefaultConfig(4, 1, false),
	}
}

func key(t *testing.T, s *Spec) string {
	t.Helper()
	k, err := s.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyDeterministicAndSensitive(t *testing.T) {
	a, b := baseSpec(), baseSpec()
	if key(t, a) != key(t, b) {
		t.Fatal("identical specs produced different keys")
	}
	// Every semantic axis must split the key.
	mutations := map[string]func(*Spec){
		"units":     func(s *Spec) { s.Config.NumUnits = 8 },
		"workload":  func(s *Spec) { s.Workload = "cmp" },
		"scale":     func(s *Spec) { s.Scale = 0 },
		"op":        func(s *Spec) { s.Op = OpAssemble },
		"stdin":     func(s *Spec) { s.Stdin = []byte("x") },
		"maxcycles": func(s *Spec) { s.Config.MaxCycles = 99 },
		"verify":    func(s *Spec) { s.Verify = true },
		"trace":     func(s *Spec) { s.WantTrace = true },
		"snapshot":  func(s *Spec) { s.WantSnapshot = true },
	}
	for name, mutate := range mutations {
		m := baseSpec()
		mutate(m)
		if key(t, m) == key(t, a) {
			t.Errorf("%s: mutation did not change the key", name)
		}
	}
}

// TestKeyStdinNilVsEmpty pins that "no stdin" and "empty stdin" are
// distinct requests: a program that reads input behaves differently on
// EOF-at-once vs no input attached.
func TestKeyStdinNilVsEmpty(t *testing.T) {
	a, b := baseSpec(), baseSpec()
	b.Stdin = []byte{}
	if key(t, a) == key(t, b) {
		t.Fatal("nil and empty stdin share a key")
	}
}

// TestKeyIgnoresRuntimeObservers pins the spec/runtime split from the
// config side: attaching a sink to the Config must not split the cache,
// because canonical config encoding excludes observers.
func TestKeyIgnoresRuntimeObservers(t *testing.T) {
	a, b := baseSpec(), baseSpec()
	b.Config.Sink = &trace.Collector{}
	if key(t, a) != key(t, b) {
		t.Fatal("a Config observer changed the job key")
	}
}

func TestValidate(t *testing.T) {
	bad := []*Spec{
		{Op: OpSimulate, Config: core.DefaultConfig(1, 1, false)},                                   // no source
		{Op: OpSimulate, Workload: "example", Source: "x", Config: core.DefaultConfig(1, 1, false)}, // two sources
		{Op: 99, Workload: "example", Config: core.DefaultConfig(1, 1, false)},                      // bad op
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
	if err := baseSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestHostileConfigsRefused runs machine geometries that used to panic
// inside core.NewMultiscalar (negative window, zero-byte banks, zero-byte
// blocks, no MSHRs), burn MaxCycles (no units), be silently clamped (a
// window past the 16-bit producer distance) or be a second spelling of a
// default (a zero width, window, fetch queue or predictor, which ran as
// 1, 16, 8 and 2048 under another key): each is a named error from
// Execute, and the next job still runs.
func TestHostileConfigsRefused(t *testing.T) {
	for name, edit := range map[string]func(*core.Config){
		"rob_size":              func(c *core.Config) { c.ROBSize = -1 },
		"rob_size = 65537":      func(c *core.Config) { c.ROBSize = 1<<16 + 1 },
		"fetchq_size":           func(c *core.Config) { c.FetchQSize = -1 },
		"dbank_bytes":           func(c *core.Config) { c.DBankBytes = 0 },
		"dblock_bytes":          func(c *core.Config) { c.DBlockBytes = 0 },
		"icache_block":          func(c *core.Config) { c.ICacheBlock = 0 },
		"icache_bytes":          func(c *core.Config) { c.ICacheBytes = 32 },
		"num_mshrs":             func(c *core.Config) { c.NumMSHRs = 0 },
		"num_units":             func(c *core.Config) { c.NumUnits = 0 },
		"num_units = 33":        func(c *core.Config) { c.NumUnits = 33 },
		"desc_cache_entries":    func(c *core.Config) { c.DescCacheEntries = 0 },
		"branch_entries":        func(c *core.Config) { c.BranchEntries = -8 },
		"arb_policy":            func(c *core.Config) { c.ARBPolicy = 7 },
		"ring_latency":          func(c *core.Config) { c.RingLatency = -1 },
		"issue_width = 0":       func(c *core.Config) { c.IssueWidth = 0 },
		"rob_size = 0":          func(c *core.Config) { c.ROBSize = 0 },
		"fetchq_size = 0":       func(c *core.Config) { c.FetchQSize = 0 },
		"branch_entries = 0":    func(c *core.Config) { c.BranchEntries = 0 },
		"branch_entries = 1000": func(c *core.Config) { c.BranchEntries = 1000 },
	} {
		t.Run(name, func(t *testing.T) {
			s := baseSpec()
			edit(&s.Config)
			field, _, _ := strings.Cut(name, " ")
			if _, err := Execute(s, nil); err == nil || !strings.Contains(err.Error(), "config "+field+" = ") {
				t.Errorf("Execute: %v; want an error naming %s", err, field)
			}
		})
	}
	if _, err := Execute(baseSpec(), nil); err != nil {
		t.Errorf("a sound job after the hostile ones: %v", err)
	}
}
