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
// spec's identity: live observers and resumption state. A nil Runtime is
// a plain run.
type Runtime struct {
	// Sink receives the typed event stream during the run (the facade's
	// WithTrace). Ignored when the spec itself requests a trace artifact
	// — an artifact run owns its writer.
	Sink trace.Sink

	// Checkpoint: at the first executed cycle at or after CheckpointAt,
	// serialize the machine and pass the bytes to CheckpointSave.
	CheckpointAt   uint64
	CheckpointSave func(snapshot []byte) error

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

// ExitCodeError is a verified timing run whose exit code is not the
// functional oracle's.
type ExitCodeError struct {
	Timing, Oracle int32
}

func (e *ExitCodeError) Error() string {
	return fmt.Sprintf("multiscalar: exit code %d, oracle exited %d", e.Timing, e.Oracle)
}

// Output is what a job produces.
type Output struct {
	Result   *core.Result     // simulate jobs
	Sampled  *sample.Estimate // sampled jobs
	Oracle   *Oracle          // set when the job ran the functional oracle
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
	p, _, err := programs.Do(context.Background(), key, func() (*isa.Program, error) { return build(s) })
	return p, err
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
	if s.Verify {
		if out.Oracle, err = CachedOracle(p, s.Stdin, s.MaxInstrs); err != nil {
			return nil, err
		}
	}

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
	if rt.CheckpointSave != nil {
		m.ScheduleCheckpoint(rt.CheckpointAt, func() error {
			snap, err := m.Save()
			if err != nil {
				return err
			}
			return rt.CheckpointSave(snap)
		})
	}
	if rt.Restore != nil {
		if err := m.Restore(rt.Restore); err != nil {
			return nil, err
		}
	}
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			return nil, err
		}
		out.Trace = tbuf.Bytes()
	}
	if o := out.Oracle; o != nil {
		if res.Out != o.Out {
			return nil, fmt.Errorf("multiscalar: output diverged from oracle: %q vs %q", res.Out, o.Out)
		}
		if res.Committed != o.ICount {
			return nil, fmt.Errorf("multiscalar: committed %d instructions, oracle executed %d",
				res.Committed, o.ICount)
		}
		if res.ExitCode != o.ExitCode {
			return nil, &ExitCodeError{Timing: res.ExitCode, Oracle: o.ExitCode}
		}
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
// The sampling regime is derived from the run (the zero sample.Params).
func executeSampled(s *Spec, p *isa.Program) (*Output, error) {
	maxInstrs := s.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = DefaultMaxInstrs
	}
	o, err := CachedOracle(p, s.Stdin, maxInstrs)
	if err != nil {
		return nil, err
	}
	ref := sample.Functional{TotalInstrs: o.ICount, TaskExits: o.TaskExits, Out: o.Out, ExitCode: o.ExitCode}
	var pool sample.Runner
	if Workers() > 1 {
		pool = RunJobs
	}
	est, err := sample.Run(p, s.Config, sample.Params{}, s.Stdin, maxInstrs, ref, pool)
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
	if maxInstrs == 0 {
		maxInstrs = DefaultMaxInstrs
	}
	env := interp.NewSysEnv()
	env.In = stdin
	m := interp.NewMachine(p, env)
	if err := m.Run(maxInstrs); err != nil {
		return nil, err
	}
	return &Oracle{
		ICount:    m.ICount,
		Loads:     m.LoadCount,
		Stores:    m.StoreCount,
		Branches:  m.BranchCount,
		TaskExits: m.TaskExits,
		Out:       env.Out.String(),
		ExitCode:  env.ExitCode,
	}, nil
}

// CachedOracle is RunOracle over in-memory input, memoized per (program
// content, stdin, instruction bound): the functional reference Execute's
// Verify path and the bench harness's instruction-count tables share. The
// returned Oracle is shared and must not be mutated. nil stdin (no input)
// and empty stdin are distinct.
func CachedOracle(p *isa.Program, stdin []byte, maxInstrs uint64) (*Oracle, error) {
	if maxInstrs == 0 {
		maxInstrs = DefaultMaxInstrs
	}
	key, err := oracleKey(p, stdin, maxInstrs)
	if err != nil {
		return nil, err
	}
	o, _, err := oracles.Do(context.Background(), key, func() (*Oracle, error) {
		var in io.Reader
		if stdin != nil {
			in = bytes.NewReader(stdin)
		}
		return RunOracle(p, in, maxInstrs)
	})
	return o, err
}

// oracleKey is the oracle store's key: program content, instruction
// bound and input digest.
func oracleKey(p *isa.Program, stdin []byte, maxInstrs uint64) (string, error) {
	h, err := ProgramHash(p)
	if err != nil {
		return "", err
	}
	key := binary.BigEndian.AppendUint64([]byte(h), maxInstrs)
	if stdin != nil {
		sum := sha256.Sum256(stdin)
		key = append(key, sum[:]...)
	}
	return string(key), nil
}
