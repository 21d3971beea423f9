package core

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"multiscalar/internal/arb"
	"multiscalar/internal/asm"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/workloads"
)

// TestValidateRejects: each geometry no machine can be built at is an
// error naming its field, and the default machines are accepted.
func TestValidateRejects(t *testing.T) {
	for name, edit := range map[string]func(*Config){
		"num_units = 0":         func(c *Config) { c.NumUnits = 0 },
		"rob_size = 65537":      func(c *Config) { c.ROBSize = 1<<16 + 1 },
		"icache_bytes = 32":     func(c *Config) { c.ICacheBytes = 32 },
		"branch_entries = 0":    func(c *Config) { c.BranchEntries = 0 },
		"branch_entries = 1000": func(c *Config) { c.BranchEntries = 1000 },
		"branch_entries = 3":    func(c *Config) { c.BranchEntries = 3 },
		// A negative latency simulated a machine faster than Table 1, and
		// zero ran exactly as one.
		"latencies.IntMul = -1":   func(c *Config) { c.Latencies.IntMul = -1 },
		"latencies.IntAddSub = 0": func(c *Config) { c.Latencies.IntAddSub = 0 },
		"latencies.DPDiv = 65537": func(c *Config) { c.Latencies.DPDiv = 1<<16 + 1 },
		// Not a whole number of blocks: the cache of the next smaller
		// multiple under a key of its own.
		"icache_bytes = 100": func(c *Config) { c.ICacheBytes = 100 },
		"dbank_bytes = 8200": func(c *Config) { c.DBankBytes = 8200 },
	} {
		c := DefaultConfig(4, 1, false)
		edit(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "config "+name) {
			t.Errorf("%s: %v; want an error naming it", name, err)
		}
	}
	c := DefaultConfig(4, 1, false)
	c.Latencies.IntMul, c.Latencies.DPDiv = 1, 1<<16
	if err := c.Validate(); err != nil {
		t.Errorf("latencies at their bounds: %v", err)
	}
	for _, c := range sampleConfigs() {
		for _, entries := range []int{1, 2, 2048, 1 << 20} {
			c.BranchEntries = entries
			if err := c.Validate(); err != nil {
				t.Errorf("branch_entries = %d: %v", entries, err)
			}
		}
	}
}

// fpSrc runs one of each FP operation no suite workload runs (add.s,
// mul.s, div.s, div.d), each depending on the one before, so each of
// their latencies is on the one task's critical path.
const fpSrc = `
	.data
x:	.float 1.5
y:	.double 2.5
	.text
main:
	la      $t0, x
	l.s     $f0, 0($t0)
	la      $t0, y
	l.d     $f2, 0($t0)
	add.s   $f4, $f0, $f0
	mul.s   $f4, $f4, $f0
	div.s   $f4, $f4, $f0
	cvt.d.s $f6, $f4
	div.d   $f6, $f6, $f2
	li      $v0, 10
	li      $a0, 0
	syscall
	.task main
`

// TestEveryKeyedFieldMovesAResult: every key of the canonical config, the
// bytes every job key, cache entry and litmus artifact is made of, names
// something that can change a Result of the machine. Each key is moved
// within its Validate bounds and must change some Result field but
// CyclesTicked and UnitTicks (which only count how the run was ticked),
// or make the run fail for max_cycles, on the directed FP program or a
// suite workload at test scale, on one of three machines: the 4-unit
// 2-way out-of-order one, the scalar baseline, and the first with
// litmus's capacity-1 ARB banks (the overflow policy acts only on an
// overflow, and the paper's 256 entries hold every test-scale task). The
// keys are read from the encoding itself, so a field added to Config
// without a perturbation here fails the test.
func TestEveryKeyedFieldMovesAResult(t *testing.T) {
	perturb := map[string]func(*Config){
		"num_units":            func(c *Config) { c.NumUnits = 8 },
		"issue_width":          func(c *Config) { c.IssueWidth = 1 },
		"out_of_order":         func(c *Config) { c.OutOfOrder = false },
		"rob_size":             func(c *Config) { c.ROBSize = 4 },
		"fetchq_size":          func(c *Config) { c.FetchQSize = 2 },
		"latencies.IntAddSub":  func(c *Config) { c.Latencies.IntAddSub = 3 },
		"latencies.ShiftLogic": func(c *Config) { c.Latencies.ShiftLogic = 3 },
		"latencies.IntMul":     func(c *Config) { c.Latencies.IntMul = 9 },
		"latencies.IntDiv":     func(c *Config) { c.Latencies.IntDiv = 30 },
		"latencies.Branch":     func(c *Config) { c.Latencies.Branch = 3 },
		"latencies.SPAddSub":   func(c *Config) { c.Latencies.SPAddSub = 9 },
		"latencies.SPMul":      func(c *Config) { c.Latencies.SPMul = 9 },
		"latencies.SPDiv":      func(c *Config) { c.Latencies.SPDiv = 30 },
		"latencies.DPAddSub":   func(c *Config) { c.Latencies.DPAddSub = 9 },
		"latencies.DPMul":      func(c *Config) { c.Latencies.DPMul = 9 },
		"latencies.DPDiv":      func(c *Config) { c.Latencies.DPDiv = 30 },
		"icache_bytes":         func(c *Config) { c.ICacheBytes = 128 },
		"icache_block":         func(c *Config) { c.ICacheBlock = 16 },
		"dbank_bytes":          func(c *Config) { c.DBankBytes = 256 },
		"dblock_bytes":         func(c *Config) { c.DBlockBytes = 16 },
		"dcache_hit":           func(c *Config) { c.DCacheHit = 5 },
		"num_mshrs":            func(c *Config) { c.NumMSHRs = 1 },
		"arb_entries":          func(c *Config) { c.ARBEntries = 1 },
		"arb_policy":           func(c *Config) { c.ARBPolicy = arb.PolicySquash },
		"ring_latency":         func(c *Config) { c.RingLatency = 4 },
		"desc_cache_entries":   func(c *Config) { c.DescCacheEntries = 1 },
		"static_predict":       func(c *Config) { c.StaticPredict = true },
		"shared_fp_units":      func(c *Config) { c.SharedFPUnits = 1 },
		"branch_entries":       func(c *Config) { c.BranchEntries = 1 },
		"max_cycles":           func(c *Config) { c.MaxCycles = 100 },
	}
	tiny := DefaultConfig(4, 2, true)
	tiny.ARBEntries = 1
	machines := []struct {
		cfg   Config
		mode  asm.Mode
		progs []*isa.Program // the directed program first: the cheapest run
		bases []*Result
	}{
		{cfg: DefaultConfig(4, 2, true), mode: asm.ModeMultiscalar},
		{cfg: ScalarConfig(1, false), mode: asm.ModeScalar},
		{cfg: tiny, mode: asm.ModeMultiscalar},
	}
	for i := range machines {
		m := &machines[i]
		fp, err := asm.Assemble(fpSrc, m.mode)
		if err != nil {
			t.Fatal(err)
		}
		m.progs = append(m.progs, fp)
		for _, name := range workloads.Names() {
			w := workloads.Get(name)
			p, err := w.Build(m.mode, w.TestScale)
			if err != nil {
				t.Fatal(err)
			}
			m.progs = append(m.progs, p)
		}
		m.bases = make([]*Result, len(m.progs))
	}
	run := func(p *isa.Program, cfg Config) (Result, error) {
		m, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
		if err != nil {
			return Result{}, err
		}
		r, err := m.Run()
		if err != nil {
			return Result{}, err
		}
		r.CyclesTicked, r.UnitTicks = 0, 0
		return *r, nil
	}
	moves := func(key string, edit func(*Config)) bool {
		for _, m := range machines {
			cfg := m.cfg
			edit(&cfg)
			for i, p := range m.progs {
				if m.bases[i] == nil {
					r, err := run(p, m.cfg)
					if err != nil {
						t.Fatalf("program %d on the unmoved machine: %v", i, err)
					}
					m.bases[i] = &r
				}
				r, err := run(p, cfg)
				if err != nil && !strings.Contains(err.Error(), "exceeded") {
					t.Fatalf("%s: program %d: %v", key, i, err)
				}
				if err != nil || r != *m.bases[i] {
					return true
				}
			}
		}
		return false
	}

	enc, err := DefaultConfig(4, 2, true).MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(enc, &fields); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k, v := range fields {
		if sub, ok := v.(map[string]any); ok {
			for s := range sub {
				keys = append(keys, k+"."+s)
			}
		} else if k != "v" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		if edit := perturb[key]; edit == nil {
			t.Errorf("%s: keyed, but no perturbation here shows what it changes", key)
		} else if !moves(key, edit) {
			t.Errorf("%s: moved no Result field on any program: it does not belong in the key", key)
		}
	}
}
