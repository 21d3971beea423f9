package job

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/sample"
	"multiscalar/internal/trace"
	"multiscalar/internal/workloads"
)

// DefaultMaxInstrs bounds functional executions that set no explicit
// MaxInstrs — large enough for every workload in the suite, small enough
// that a non-terminating program errors out rather than spinning forever.
const DefaultMaxInstrs uint64 = 1 << 40

// Runtime carries the per-call attachments that never participate in a
// spec's identity: a live observer and resumption state. A nil Runtime is
// a plain run.
type Runtime struct {
	// Sink receives the typed event stream during the run (the facade's
	// WithTrace). Ignored when the spec itself requests a trace artifact
	// — an artifact run owns its writer.
	Sink trace.Sink

	// Restore resumes the run from a snapshot instead of the entry point.
	Restore []byte
}

// Oracle is the functional-simulator reference for one program: the
// output and instruction counts every timing run of it must reproduce.
type Oracle struct {
	ICount                  uint64
	Loads, Stores, Branches uint64
	TaskExits               uint64 // retired instructions whose stop condition held
	Out                     string
	ExitCode                int32
}

// Output is what a job produces.
type Output struct {
	Result   *core.Result     // simulate jobs
	Sampled  *sample.Estimate // sampled jobs
	Program  []byte           // assemble jobs: the .msb container bytes
	Trace    []byte           // .mstrc bytes when Spec.WantTrace
	Snapshot []byte           // finished-machine snapshot when Spec.WantSnapshot
}

// The process-wide stores. A workload built at one (mode, scale) — or a
// source text built at one mode — is assembled once per process no matter
// how many jobs reference it, and a program is interpreted once per
// (input, instruction bound) no matter how many configurations are
// verified against it. Both are bounded: a daemon fed an endless stream of
// distinct sources or inline programs keeps the most recent storeCap of
// each, well above the largest working set in the repository (the
// benchmark's serve mix builds ~50 programs, msbench -all 20).
const storeCap = 256

var (
	programs = NewStore[*isa.Program](storeCap)
	oracles  = NewStore[*Oracle](storeCap)
)

// ResetBuildMemo drops every process-wide store — programs (and with
// them what the interpreter derived from each) and oracles — so the next
// job starts cold (tests, benchmarks).
func ResetBuildMemo() {
	programs.Reset()
	oracles.Reset()
}

// Stats snapshots the process-wide stores: program builds and memoized
// oracle runs.
func Stats() (builds, oracleRuns StoreStats) { return programs.Stats(), oracles.Stats() }

// Resolve returns the spec's program, building it if the spec names a
// source text or workload (memoized, single-flight). The returned
// program is shared: clone before mutating.
//
// A source or workload built in one mode shares its data segment with
// the other mode's build when that build is resident and its bytes are
// equal, as the suite's always are: both modes' memory images then
// point into one copy. A peer still being built is not waited for; that
// costs memory only, because keys, program hashes and results depend on
// content alone.
func (s *Spec) Resolve() (*isa.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Program != nil {
		return s.Program, nil
	}
	bs := Spec{Op: OpAssemble, Source: s.Source, Workload: s.Workload, Scale: s.Scale, Mode: s.Mode}
	key, err := bs.Key()
	if err != nil {
		return nil, err
	}
	p, _, err := programs.Do(context.Background(), key, func() (*isa.Program, error) {
		p, err := build(s)
		if err == nil {
			shareData(p, bs)
		}
		return p, err
	})
	return p, err
}

// shareData points a fresh build's Data at the bytes of the other mode's
// build of the same source or workload (bs names this build), when that
// build is resident and its data is equal.
func shareData(p *isa.Program, bs Spec) {
	if bs.Mode == asm.ModeScalar {
		bs.Mode = asm.ModeMultiscalar
	} else {
		bs.Mode = asm.ModeScalar
	}
	key, err := bs.Key()
	if err != nil {
		return
	}
	if peer, ok := programs.peek(key); ok && bytes.Equal(peer.Data, p.Data) {
		p.Data = peer.Data
	}
}

func build(s *Spec) (*isa.Program, error) {
	if s.Workload != "" {
		w := workloads.Get(s.Workload)
		if w == nil {
			return nil, fmt.Errorf("job: unknown workload %q", s.Workload)
		}
		return w.Build(s.Mode, s.Scale)
	}
	return asm.Assemble(s.Source, s.Mode)
}

// Execute runs one job to completion: the one execution path behind the
// facade's Run, the bench harness, and the msserve engine. rt may be nil.
func Execute(s *Spec, rt *Runtime) (*Output, error) {
	if rt == nil {
		rt = &Runtime{}
	}
	p, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	if s.Op == OpAssemble {
		var buf bytes.Buffer
		if err := isa.WriteProgram(&buf, p); err != nil {
			return nil, err
		}
		return &Output{Program: buf.Bytes()}, nil
	}
	if s.Op == OpSampled {
		return executeSampled(s, p)
	}

	cfg := s.Config
	if rt.Sink != nil && !s.WantTrace {
		cfg.Sink = rt.Sink
	}

	out := &Output{}
	var tw *trace.Writer
	var tbuf bytes.Buffer
	if s.WantTrace {
		if tw, err = trace.NewWriter(&tbuf, TraceMeta(p, cfg, s.label())); err != nil {
			return nil, err
		}
		cfg.Sink = tw
	}

	env := interp.NewSysEnv()
	env.In = bytes.NewReader(s.Stdin)
	m, err := core.NewMultiscalar(p, env, cfg)
	if err != nil {
		return nil, err
	}
	if rt.Restore != nil {
		if err := m.Restore(rt.Restore); err != nil {
			return nil, err
		}
	}
	var co *interp.Machine
	if s.Verify {
		cenv := interp.NewSysEnv()
		cenv.In = bytes.NewReader(s.Stdin)
		co = interp.NewMachine(p, cenv)
		m.Judge(co, boundOf(s.MaxInstrs))
	}
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	if co != nil {
		if d := m.Divergence(); d != nil {
			return nil, d
		}
		// A co that ran the program to its exit is its oracle: file it, so
		// a later sampled job or count table does not interpret again.
		if co.Env.Exited {
			if _, err := memoOracle(p, s.Stdin, s.MaxInstrs, func() (*Oracle, error) { return oracleOf(co), nil }); err != nil {
				return nil, err
			}
		}
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			return nil, err
		}
		out.Trace = tbuf.Bytes()
	}
	if s.WantSnapshot {
		if out.Snapshot, err = m.Save(); err != nil {
			return nil, err
		}
	}
	out.Result = res
	return out, nil
}

// executeSampled runs a sampled job: the program's functional reference
// comes from the oracle memo (so a program verified or sampled before is
// not interpreted again for its totals), then sample.Run warms once and
// starts each detailed window on the worker pool as its snapshot is
// captured — inline, with no goroutine, when the pool is one worker wide.
func executeSampled(s *Spec, p *isa.Program) (*Output, error) {
	maxInstrs := boundOf(s.MaxInstrs)
	o, err := CachedOracle(p, s.Stdin, maxInstrs)
	if err != nil {
		return nil, err
	}
	ref := sample.Functional{TotalInstrs: o.ICount, TaskExits: o.TaskExits, Out: o.Out, ExitCode: o.ExitCode}
	var pool sample.Runner
	if Workers() > 1 {
		pool = RunJobs
	}
	est, err := sample.Run(p, s.Config, s.Stdin, maxInstrs, ref, pool)
	if err != nil {
		return nil, err
	}
	return &Output{Sampled: est}, nil
}

// TraceMeta describes a run for the .mstrc header: unit count from the
// configuration, task-descriptor names from the program, and a free-form
// label (workload name, config summary).
func TraceMeta(p *isa.Program, cfg core.Config, label string) trace.Meta {
	m := trace.Meta{NumUnits: cfg.NumUnits, Label: label}
	if m.NumUnits <= 0 {
		m.NumUnits = 1
	}
	if len(p.Tasks) > 0 {
		m.Tasks = make(map[uint32]string, len(p.Tasks))
		for entry, td := range p.Tasks {
			m.Tasks[entry] = td.Name
		}
	}
	return m
}

func (s *Spec) label() string {
	if s.Workload != "" {
		return s.Workload
	}
	return "job"
}

// RunOracle executes a program on the functional simulator and returns
// the reference outcome. maxInstrs of 0 means DefaultMaxInstrs.
func RunOracle(p *isa.Program, stdin io.Reader, maxInstrs uint64) (*Oracle, error) {
	env := interp.NewSysEnv()
	env.In = stdin
	m := interp.NewMachine(p, env)
	if err := m.Run(boundOf(maxInstrs)); err != nil {
		return nil, err
	}
	return oracleOf(m), nil
}

// oracleOf reads the reference outcome off a functional machine that has
// run the program to its exit.
func oracleOf(m *interp.Machine) *Oracle {
	return &Oracle{
		ICount:    m.ICount,
		Loads:     m.LoadCount,
		Stores:    m.StoreCount,
		Branches:  m.BranchCount,
		TaskExits: m.TaskExits,
		Out:       m.Env.Out.String(),
		ExitCode:  m.Env.ExitCode,
	}
}

// boundOf is an instruction bound with 0 meaning DefaultMaxInstrs.
func boundOf(maxInstrs uint64) uint64 {
	if maxInstrs == 0 {
		return DefaultMaxInstrs
	}
	return maxInstrs
}

// CachedOracle is RunOracle over in-memory input, memoized per (program
// content, stdin, instruction bound): the functional reference sampled
// jobs and the bench harness's instruction-count tables share. A verified
// Execute that agrees files its functional machine's counts here too. The
// returned Oracle is shared and must not be mutated. nil stdin (no input)
// and empty stdin are distinct.
func CachedOracle(p *isa.Program, stdin []byte, maxInstrs uint64) (*Oracle, error) {
	return memoOracle(p, stdin, maxInstrs, func() (*Oracle, error) {
		var in io.Reader
		if stdin != nil {
			in = bytes.NewReader(stdin)
		}
		return RunOracle(p, in, maxInstrs)
	})
}

// memoOracle answers the oracle store's entry for program content,
// instruction bound and input digest, running fn on a miss.
func memoOracle(p *isa.Program, stdin []byte, maxInstrs uint64, fn func() (*Oracle, error)) (*Oracle, error) {
	h, err := ProgramHash(p)
	if err != nil {
		return nil, err
	}
	key := binary.BigEndian.AppendUint64([]byte(h), boundOf(maxInstrs))
	if stdin != nil {
		sum := sha256.Sum256(stdin)
		key = append(key, sum[:]...)
	}
	o, _, err := oracles.Do(context.Background(), string(key), fn)
	return o, err
}
