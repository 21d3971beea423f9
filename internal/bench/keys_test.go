package bench

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
	"multiscalar/internal/workloads"
)

// The memo keys moved from three hand-rolled tuples onto job.Spec's
// content-addressed Key. The migration contract is that the *partitions*
// agree: two memo lookups that shared a cache entry under the old keys
// still share one, and two that did not still do not. These tests pin
// that by re-implementing the legacy keys and comparing equivalence over
// representative key spaces.

// legacyCfgString is the pre-migration run-memo config component:
// fmt's %#v over the Config with the runtime-only fields (the trace sink
// and dense ticking) cleared.
func legacyCfgString(cfg core.Config) string {
	cfg.Sink, cfg.NoSkip = nil, false
	return fmt.Sprintf("%#v", cfg)
}

// legacyHashOf is the pre-migration stdin component ("" for no input,
// distinct from the hash of empty-but-present input).
func legacyHashOf(b []byte) string {
	if b == nil {
		return ""
	}
	s := sha256.Sum256(b)
	return string(s[:])
}

type legacyBuildKey struct {
	name  string
	mode  asm.Mode
	scale int
}

type legacySimKey struct {
	prog  string
	cfg   string
	stdin string
}

func benchSampleConfigs() []core.Config {
	cfgs := []core.Config{
		core.DefaultConfig(8, 1, false),
		core.DefaultConfig(8, 1, false), // deliberate duplicate
		core.DefaultConfig(8, 2, true),
		core.DefaultConfig(4, 1, false),
		core.ScalarConfig(1, false),
		core.ScalarConfig(1, false), // deliberate duplicate
		core.ScalarConfig(2, true),
	}
	c := core.DefaultConfig(8, 1, false)
	c.RingLatency = 4
	cfgs = append(cfgs, c)
	c = core.DefaultConfig(8, 1, false)
	c.NoSkip = true
	cfgs = append(cfgs, c)
	c = core.DefaultConfig(8, 1, false)
	c.StaticPredict = true
	cfgs = append(cfgs, c)
	c = core.DefaultConfig(8, 1, false)
	c.Latencies.SPMul = 40
	cfgs = append(cfgs, c)
	return cfgs
}

func TestConfigKeyPartitionMatchesLegacy(t *testing.T) {
	cfgs := benchSampleConfigs()
	canon := make([]string, len(cfgs))
	legacy := make([]string, len(cfgs))
	for i, c := range cfgs {
		b, err := c.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		canon[i] = string(b)
		legacy[i] = legacyCfgString(c)
	}
	for i := range cfgs {
		for j := range cfgs {
			if (legacy[i] == legacy[j]) != (canon[i] == canon[j]) {
				t.Errorf("configs %d,%d: legacy equal=%v canonical equal=%v",
					i, j, legacy[i] == legacy[j], canon[i] == canon[j])
			}
		}
	}
}

func TestBuildKeyPartitionMatchesLegacy(t *testing.T) {
	type point struct {
		w     *workloads.Workload
		mode  asm.Mode
		scale Scale
	}
	var pts []point
	for _, name := range []string{"example", "wc"} {
		w := workloads.Get(name)
		if w == nil {
			t.Fatalf("workload %s missing", name)
		}
		for _, mode := range []asm.Mode{asm.ModeScalar, asm.ModeMultiscalar} {
			for _, scale := range []Scale{0, -1, 0} { // duplicate on purpose
				pts = append(pts, point{w, mode, scale})
			}
		}
	}
	legacy := make([]legacyBuildKey, len(pts))
	keys := make([]string, len(pts))
	for i, p := range pts {
		legacy[i] = legacyBuildKey{name: p.w.Name, mode: p.mode, scale: p.scale.of(p.w)}
		k, err := buildSpec(p.w, p.mode, p.scale).Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	for i := range pts {
		for j := range pts {
			if (legacy[i] == legacy[j]) != (keys[i] == keys[j]) {
				t.Errorf("build points %d,%d: legacy equal=%v spec-key equal=%v",
					i, j, legacy[i] == legacy[j], keys[i] == keys[j])
			}
		}
	}
}

func TestSimKeyPartitionMatchesLegacy(t *testing.T) {
	w := workloads.Get("example")
	p1, _, err := buildOracle(w, asm.ModeMultiscalar, -1)
	if err != nil {
		t.Fatal(err)
	}
	p2 := p1.Clone() // same bytes, distinct identity under the old pointer-hash memo too
	w2 := workloads.Get("wc")
	p3, _, err := buildOracle(w2, asm.ModeMultiscalar, -1)
	if err != nil {
		t.Fatal(err)
	}

	type point struct {
		p     *isa.Program
		cfg   core.Config
		stdin []byte
	}
	var pts []point
	for _, p := range []*isa.Program{p1, p2, p3} {
		for _, cfg := range []core.Config{core.DefaultConfig(8, 1, false), core.DefaultConfig(4, 1, false), core.DefaultConfig(8, 1, false)} {
			for _, stdin := range [][]byte{nil, {}} {
				pts = append(pts, point{p, cfg, stdin})
			}
		}
	}
	legacy := make([]legacySimKey, len(pts))
	keys := make([]string, len(pts))
	for i, pt := range pts {
		ph, err := job.ProgramHash(pt.p)
		if err != nil {
			t.Fatal(err)
		}
		legacy[i] = legacySimKey{prog: ph, cfg: legacyCfgString(pt.cfg), stdin: legacyHashOf(pt.stdin)}
		spec := job.Spec{Op: job.OpSimulate, Program: pt.p, Config: pt.cfg, Stdin: pt.stdin}
		if keys[i], err = spec.Key(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range pts {
		for j := range pts {
			if (legacy[i] == legacy[j]) != (keys[i] == keys[j]) {
				t.Errorf("sim points %d,%d: legacy equal=%v spec-key equal=%v",
					i, j, legacy[i] == legacy[j], keys[i] == keys[j])
			}
		}
	}
}
