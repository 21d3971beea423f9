// Package multiscalar is a from-scratch reproduction of the system in
// "Multiscalar Processors" (G. S. Sohi, S. E. Breach, T. N. Vijaykumar,
// ISCA 1995): a cycle-level simulator for the multiscalar execution
// paradigm together with its software toolchain.
//
// The package is a facade over the internal packages:
//
//   - Assemble turns annotated assembly (task descriptors, forward/stop
//     bits, release instructions — Section 2.2 of the paper) into a
//     Program; one source builds both the scalar and multiscalar binary
//     (select with WithMode).
//   - Partition runs the automatic task partitioner (the compiler half of
//     the toolchain) over an un-annotated program.
//   - Interpret executes a Program functionally (the correctness oracle).
//   - Run simulates a Program cycle by cycle on the machine a Config
//     describes — N processing units on a circular queue,
//     sequencer with two-level task prediction and a return address
//     stack, register forwarding ring, Address Resolution Buffer, banked
//     data caches, shared memory bus; the scalar baseline is its
//     one-unit configuration (Config.MaxCycles bounds it). RunOption
//     values attach an event trace (WithTrace), program input
//     (WithStdin) or an instruction bound (WithMaxInstrs). Every run
//     is judged against the functional machine at each task retire.
//   - WorkloadNames/GetWorkload expose the paper's benchmark suite
//     (Section 5.2 rewritten for this ISA).
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for the
// reproduction of Tables 2-4, and docs/tracing.md for the event tracing
// layer.
package multiscalar

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
	"multiscalar/internal/sample"
	"multiscalar/internal/serve"
	"multiscalar/internal/taskpart"
	"multiscalar/internal/trace"
	"multiscalar/internal/workloads"
)

// Program is an assembled binary image: text, data, task descriptors.
type Program = isa.Program

// Config selects a machine configuration (units, issue width and order,
// caches, ARB, ring, predictor). Zero values are not useful — start from
// DefaultConfig or ScalarConfig.
type Config = core.Config

// Result summarizes a timing simulation.
type Result = core.Result

// Workload is one benchmark from the paper's suite.
type Workload = workloads.Workload

// Mode selects which binary an annotated source produces.
type Mode = asm.Mode

// Build modes.
const (
	ModeScalar      = asm.ModeScalar
	ModeMultiscalar = asm.ModeMultiscalar
)

// PartitionOptions controls the automatic task partitioner.
type PartitionOptions = taskpart.Options

// AssembleOption configures Assemble.
type AssembleOption func(*asm.Options)

// WithMode selects which binary the source produces (default ModeScalar;
// multiscalar builds keep task descriptors and tag bits and are checked
// against the annotation contract).
func WithMode(m Mode) AssembleOption {
	return func(o *asm.Options) { o.Mode = m }
}

// WithoutLint skips the annotation-contract post-pass that multiscalar
// builds otherwise run — for programs that deliberately violate the
// contract (tests, fuzzing).
func WithoutLint() AssembleOption {
	return func(o *asm.Options) { o.NoLint = true }
}

// AssembleResult carries the assembled program plus the source line table
// and, for multiscalar builds, the annotation-contract lint report.
type AssembleResult = asm.Result

// Assemble builds a program from annotated assembly source. The default
// is a scalar build; pass WithMode(ModeMultiscalar) for the multiscalar
// binary, which is checked against the annotation contract and rejected
// on hard violations (WithoutLint opts out). The result always carries
// the instruction-address → source-line table.
func Assemble(src string, opts ...AssembleOption) (*AssembleResult, error) {
	var o asm.Options
	for _, opt := range opts {
		opt(&o)
	}
	return asm.AssembleOpts(src, o)
}

// Partition runs the automatic task partitioner over a program that has
// no hand annotations, filling in task descriptors and tag bits.
func Partition(p *Program, opt PartitionOptions) error {
	_, err := taskpart.Run(p, opt)
	return err
}

// InterpResult is the outcome of a functional execution.
type InterpResult struct {
	Out          string
	ExitCode     int32
	Instructions uint64
}

// DefaultMaxInstrs bounds functional executions that set no explicit
// WithMaxInstrs — large enough for every workload in the suite, small
// enough that a non-terminating program errors out rather than spinning
// forever.
const DefaultMaxInstrs uint64 = job.DefaultMaxInstrs

// runOptions is the job the options describe: every RunOption folds into
// either the JobSpec (the canonical, hashable request shape shared with
// the bench harness and the msserve service) or the job Runtime (the
// trace sink, which never participates in a job's identity). The
// WithStdin reader waits in stdin until gather reads it into the spec's
// input bytes.
type runOptions struct {
	spec  job.Spec
	rt    job.Runtime
	stdin io.Reader
}

// RunOption configures Run or Interpret.
type RunOption func(*runOptions)

// WithTrace attaches an event sink to the timing run. Every simulator
// component emits its cycle-stamped events (task lifecycle, unit
// occupancy, ring, ARB, memory system) to the sink; see docs/tracing.md.
// The sink receives events during the run and must not be read until Run
// returns. Interpret ignores it.
func WithTrace(sink TraceSink) RunOption {
	return func(o *runOptions) { o.rt.Sink = sink }
}

// WithStdin supplies the program's input stream (syscall SysReadChar).
// r is read to EOF once, before the run starts; the oracle, the timing
// run and every sampled window then read those bytes.
func WithStdin(r io.Reader) RunOption {
	return func(o *runOptions) { o.stdin = r }
}

// WithMaxInstrs bounds functional executions — Interpret itself and the
// functional machine Run steps beside the timing run (default
// DefaultMaxInstrs).
func WithMaxInstrs(n uint64) RunOption {
	return func(o *runOptions) { o.spec.MaxInstrs = n }
}

// gather folds the options into the shared job request shape, reading
// the WithStdin reader into the spec's input bytes.
func gather(p *Program, cfg Config, opts []RunOption) (*runOptions, error) {
	o := &runOptions{}
	for _, opt := range opts {
		opt(o)
	}
	if o.stdin != nil {
		in, err := io.ReadAll(o.stdin)
		if err != nil {
			return nil, fmt.Errorf("multiscalar: reading stdin: %w", err)
		}
		o.spec.Stdin = in
	}
	o.spec.Op = job.OpSimulate
	o.spec.Program = p
	o.spec.Config = cfg
	return o, nil
}

// Interpret runs a program on the functional simulator (the oracle all
// timing runs are validated against). It honors WithStdin and
// WithMaxInstrs (default DefaultMaxInstrs) and ignores timing-only
// options.
func Interpret(p *Program, opts ...RunOption) (*InterpResult, error) {
	o, err := gather(p, Config{}, opts)
	if err != nil {
		return nil, err
	}
	res, err := job.RunOracle(p, bytes.NewReader(o.spec.Stdin), o.spec.MaxInstrs)
	if err != nil {
		return nil, err
	}
	return &InterpResult{
		Out:          res.Out,
		ExitCode:     res.ExitCode,
		Instructions: res.ICount,
	}, nil
}

// DefaultConfig returns the paper's multiscalar configuration
// (Section 5.1) for a unit count, issue width (1 or 2) and issue order.
func DefaultConfig(units, width int, outOfOrder bool) Config {
	return core.DefaultConfig(units, width, outOfOrder)
}

// ScalarConfig returns the scalar baseline configuration: one identical
// processing unit with 1-cycle data-cache hits.
func ScalarConfig(width int, outOfOrder bool) Config {
	return core.ScalarConfig(width, outOfOrder)
}

// Run simulates a program cycle by cycle on the machine cfg describes.
// There is one machine. A binary without task descriptors is one task: it
// runs on a one-unit configuration — ScalarConfig is the paper's scalar
// baseline — and a wider one refuses it. A binary with descriptors runs
// on any unit count, one included (the single-unit ablation point).
// The run starts at the program entry and is judged in lockstep with the
// functional machine: at every task retire the committed count, next PC,
// registers, drained stores and output must be the sequential run's, and
// at the end so must the exit code. Run fails with the first difference, a
// *core.DivergenceError naming the task, what differed and both values.
// Options attach a trace sink, program input and an instruction bound;
// cfg.MaxCycles bounds the run.
func Run(p *Program, cfg Config, opts ...RunOption) (*Result, error) {
	o, err := gather(p, cfg, opts)
	if err != nil {
		return nil, err
	}
	o.spec.Verify = true
	out, err := job.Execute(&o.spec, &o.rt)
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// Simulation as a service (docs/serve.md). A JobSpec is the first-class
// request shape behind Run and the msserve daemon: the program (inline,
// as source text, or as a suite workload name), the Config, the input
// bytes, run bounds, and the artifacts to return. It has a canonical
// versioned encoding and a stable content-addressed Key, which every
// result cache in the system — the bench harness's result store, msserve,
// and SubmitJob's process-wide engine — keys on.

// JobSpec is one unit of simulation-service work.
type JobSpec = job.Spec

// Job operations.
const (
	JobSimulate = job.OpSimulate
	JobAssemble = job.OpAssemble
	JobSampled  = job.OpSampled
)

// Sampled simulation (docs/perf.md, "Sampled simulation"): a run is
// mostly fast functional execution that warms the long-lived machine
// structures, punctuated by short detailed measurement windows; the
// whole-run cycle count is extrapolated with a 95% confidence interval
// at a fraction of the detailed-simulation cost.

// SampleEstimate is a sampled run's outcome: the extrapolated cycle
// count, its confidence interval, and the detailed cost actually paid.
type SampleEstimate = sample.Estimate

// RunSampled estimates a program's cycle count by sampled simulation
// instead of simulating every cycle. The sampling regime (window,
// warm-up, period) is derived from the run, and the estimate reports it.
// It honors cfg.MaxCycles, WithStdin and WithMaxInstrs; WithTrace does
// not apply. Every detailed window is judged like Run: a functional
// machine started from the window's warm state steps beside it, and a
// divergence is the error. The estimate's output and exit code are the
// functional pass's.
func RunSampled(p *Program, cfg Config, opts ...RunOption) (*SampleEstimate, error) {
	o, err := gather(p, cfg, opts)
	if err != nil {
		return nil, err
	}
	o.spec.Op = job.OpSampled
	out, err := job.Execute(&o.spec, &o.rt)
	if err != nil {
		return nil, err
	}
	return out.Sampled, nil
}

// JobResult is a job's outcome: the result payload plus whether this
// submission was answered from the content-addressed cache.
type JobResult = serve.Result

// defaultJobEngine serves SubmitJob: one process-wide in-memory engine, a
// content-addressed result cache (LRU + single-flight) over a fair-queued
// executor. A daemon with disk spill is cmd/msserve.
var defaultJobEngine = sync.OnceValue(func() serve.Engine { return serve.NewLocal(serve.Options{}) })

// SubmitJob runs a job on the process-wide engine. Duplicate
// submissions — equal JobSpec keys — are answered from the cache with
// byte-identical payloads and Cached set.
func SubmitJob(ctx context.Context, spec JobSpec) (*JobResult, error) {
	return serve.SubmitDecoded(ctx, defaultJobEngine(), "local", &spec)
}

// Event tracing (docs/tracing.md). WithTrace accepts any TraceSink: a
// TraceCollector gathers events in memory; NewTraceWriter streams them to
// the .mstrc container cmd/mstrace renders.

// TraceSink receives simulator events as they are produced.
type TraceSink = trace.Sink

// TraceEvent is one cycle-stamped simulator event.
type TraceEvent = trace.Event

// TraceCollector is an in-memory TraceSink.
type TraceCollector = trace.Collector

// TraceData is a fully decoded .mstrc trace.
type TraceData = trace.Trace

// NewTraceWriter opens a streaming .mstrc writer for a run of p under
// cfg, its header naming the unit count, the program's tasks and label:
// pass it to WithTrace and Close it (checking the error) after Run
// returns.
func NewTraceWriter(w io.Writer, p *Program, cfg Config, label string) (*trace.Writer, error) {
	return trace.NewWriter(w, job.TraceMeta(p, cfg, label))
}

// ReadTrace decodes an .mstrc stream written by NewTraceWriter.
func ReadTrace(r io.Reader) (*TraceData, error) {
	return trace.ReadAll(r)
}

// SaveProgram writes a program as a binary container (.msb): text in the
// wire encoding, data, task descriptors, and symbols.
func SaveProgram(w io.Writer, p *Program) error { return isa.WriteProgram(w, p) }

// LoadProgram reads a binary container written by SaveProgram.
func LoadProgram(r io.Reader) (*Program, error) { return isa.ReadProgram(r) }

// GetWorkload returns a benchmark by name (nil if unknown).
func GetWorkload(name string) *Workload { return workloads.Get(name) }

// WorkloadNames lists the benchmark names in table order.
func WorkloadNames() []string { return workloads.Names() }
