// Package sample implements SMARTS-style sampled simulation
// (docs/perf.md, "Sampled simulation"): a run is driven as fast
// functional execution with warming of the long-lived
// microarchitectural structures (cache tags, branch-predictor tables,
// the sequencer's task predictor / return stack / descriptor cache),
// punctuated by short detailed measurement windows executed on the
// real timing machine from injected warm-state snapshots. Whole-run
// cycles and CPI are extrapolated from the window measurements with a
// systematic-sampling estimator and standard-error-based 95%
// confidence intervals.
//
// The short-lived structures a warm snapshot cannot carry — pipelines,
// MSHRs, the ARB, in-flight register forwards — start cold in every
// window; a detailed warm-up prefix (measurement excluded) absorbs
// that transient.
//
// A run is a two-stage pipeline. The producer is the one functional
// warming pass; the consumers are the detailed windows, each started on
// a caller-supplied worker pool (job.RunJobs for every sampled job) the
// moment the warming pass has captured its snapshot, so detailed
// measurement overlaps warming and a snapshot lives only as long as its
// window. What the pipeline never does is decide anything: the window
// schedule is fixed before it starts, from the instruction total and
// task-exit count of the program's functional reference run (Functional,
// which the caller already has — job.CachedOracle), so the estimate does
// not depend on the pool or on timing.
package sample

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/mem"
)

// Params is a sampling regime. Run derives it from the functional
// reference run (instruction total, task count) and the unit count
// (regime): the warm-up absorbs a couple of pipeline-fills worth of
// tasks, the window is twice the warm-up, and the period targets ~8% of
// the run in detail across 4–64 windows. All instruction quantities are
// in dynamic (multiscalar-mode) instructions.
type Params struct {
	// WindowInstrs is the measured length of each detailed window.
	WindowInstrs uint64 `json:"window_instrs,omitempty"`
	// WarmupInstrs is the detailed warm-up prefix run before each
	// window's measurement starts (excluded from the estimate).
	WarmupInstrs uint64 `json:"warmup_instrs,omitempty"`
	// PeriodInstrs is the sampling period between window start points.
	PeriodInstrs uint64 `json:"period_instrs,omitempty"`
	// OffsetInstrs positions the first window start.
	OffsetInstrs uint64 `json:"offset_instrs,omitempty"`
	// BiasFrac is the non-sampling-bias allowance: the statistical CI
	// half-width is widened by BiasFrac×mean to cover systematic error
	// the standard error cannot see (residual window cold-start
	// transient after warm-up; cf. SMARTS' non-sampling bias).
	BiasFrac float64 `json:"bias_frac,omitempty"`
}

// Estimate is the outcome of a sampled run.
type Estimate struct {
	// Params echoes the derived sampling regime.
	Params Params `json:"params"`

	// TotalInstrs is the run's dynamic instruction count (functional).
	TotalInstrs uint64 `json:"total_instrs"`
	// Windows is the number of measured (non-empty) windows.
	Windows int `json:"windows"`
	// FullDetail marks the fallback for runs too short to sample: one
	// exact detailed run, zero-width confidence interval.
	FullDetail bool `json:"full_detail,omitempty"`

	// Per-window CPI estimator. The CI bounds include the
	// non-sampling-bias allowance (Params.BiasFrac) on top of the
	// t-distribution half-width.
	MeanCPI   float64 `json:"mean_cpi"`
	VarCPI    float64 `json:"var_cpi"`
	StdErrCPI float64 `json:"stderr_cpi"`
	CPILow    float64 `json:"cpi_lo"`
	CPIHigh   float64 `json:"cpi_hi"`

	// Extrapolated whole-run cycle count with its 95% CI.
	EstCycles uint64 `json:"est_cycles"`
	CyclesLow uint64 `json:"cycles_lo"`
	CyclesHi  uint64 `json:"cycles_hi"`

	// Detailed-simulation cost actually paid (warm-up included): the
	// speed claim is DetailedCycles versus a full run's cycle count.
	DetailedCycles uint64 `json:"detailed_cycles"`
	DetailedInstrs uint64 `json:"detailed_instrs"`

	// Per-window measurements (measured region only, warm-up excluded).
	WindowCycles []uint64 `json:"window_cycles,omitempty"`
	WindowInstrs []uint64 `json:"window_instr_counts,omitempty"`

	// Program-visible outcome, from the functional reference run (the
	// sampled run's oracle: it is exact by construction).
	Out      string `json:"out"`
	ExitCode int32  `json:"exit_code"`
}

// Runner fans n independent jobs out over a worker pool; fn(i) runs
// job i. A nil Runner runs each window on the calling goroutine, at
// its capture point.
type Runner func(n int, fn func(i int) error) error

// Functional is the outcome of the program's functional reference run
// on the same input: what job.CachedOracle memoizes. It sizes the window
// schedule and is the estimate's exact program-visible outcome.
type Functional struct {
	TotalInstrs uint64 // dynamic instructions retired
	TaskExits   uint64 // of which satisfied their stop condition
	Out         string
	ExitCode    int32
}

// instruction-kind side table, precomputed over the program text so
// the per-run warming hook does no decoding.
type instrKind uint8

const (
	kindPlain instrKind = iota
	kindCond            // conditional branch: train the direction predictor
	kindJr              // return: task exits "by return"
	kindJalr            // indirect call: train the last-target table
)

type instrInfo struct {
	kind instrKind
	stop isa.StopCond
}

func buildSide(p *isa.Program) []instrInfo {
	side := make([]instrInfo, len(p.Text))
	for i := range p.Text {
		in := &p.Text[i]
		si := instrInfo{stop: in.Stop}
		switch {
		case in.Op.IsBranch():
			si.kind = kindCond
		case in.Op == isa.OpJr:
			si.kind = kindJr
		case in.Op == isa.OpJalr:
			si.kind = kindJalr
		}
		side[i] = si
	}
	return side
}

// warmer is the pipeline's producer: it maintains the warm structures,
// replays the sequencer's committed-path prediction training, and hands
// a warm-state snapshot to the windows at each scheduled point.
type warmer struct {
	m      *interp.Machine
	ws     *core.WarmState
	side   []instrInfo
	prog   *isa.Program
	static bool // Config.StaticPredict

	cur *isa.TaskDescriptor // task being executed (nil: the program has no descriptors)
	err error

	// Touch is idempotent per block and nothing else writes the warm tag
	// arrays, so a fetch or access that stays in the block last touched
	// is skipped: one Touch per line entered, not one per instruction.
	iLine, dLine mem.LastBlock // block sizes from the warm caches' geometry
	iTouch       func(uint32)  // ws.ICache.Touch
	runStart     uint32        // first instruction of the open run (interp.Warmer)

	sched []uint64 // window start points, ascending
	k     int      // captures made so far
	win   *windows
}

// newWarmer builds the warming pass over a fresh functional machine for
// p, capturing at the points of sched for win.
func newWarmer(p *isa.Program, cfg core.Config, stdin []byte, sched []uint64, win *windows) *warmer {
	wm := interp.NewMachine(p, newEnv(stdin))
	w := &warmer{
		m:        wm,
		ws:       core.NewWarmState(p, cfg),
		side:     buildSide(p),
		prog:     p,
		cur:      p.TaskAt(p.Entry),
		static:   cfg.StaticPredict,
		runStart: wm.PC,
		sched:    sched,
		win:      win,
	}
	w.iLine.BlockBytes = uint32(w.ws.ICache.BlockBytes)
	w.dLine.BlockBytes = uint32(w.ws.DCache.Banks[0].BlockBytes)
	w.iTouch = w.ws.ICache.Touch
	w.ws.Env = wm.Env
	w.ws.Mem = wm.Mem
	wm.Warm = w
	return w
}

func (w *warmer) Mem(addr uint32, store bool) {
	if w.dLine.Moved(addr) {
		w.ws.DCache.Touch(addr)
	}
}

// Retire ends a run: it fetches the run's blocks, trains the branch
// predictor on the run's last instruction and, at a task exit, replays
// the sequencer.
func (w *warmer) Retire(pc, next uint32) {
	w.iLine.Enter(w.runStart, pc, w.iTouch)
	w.runStart = next
	si := w.side[(pc-isa.TextBase)/isa.InstrSize]
	taken := next != pc+isa.InstrSize
	switch si.kind {
	case kindCond:
		w.ws.Branch.Train(pc, taken)
	case kindJalr:
		w.ws.Branch.UpdateIndirect(pc, next)
	}
	if w.ws.Multi && si.stop.Holds(taken) {
		w.boundary(next, si.kind == kindJr)
	}
}

// flush fetches the open run, so the warm I-cache holds every
// instruction retired so far.
func (w *warmer) flush() {
	if pc := w.m.PC; pc != w.runStart {
		w.iLine.Enter(w.runStart, pc-isa.InstrSize, w.iTouch)
		w.runStart = pc
	}
}

// pass runs the warming pass to the program's end (or maxInstrs). A
// program with descriptors is captured at task boundaries, from Retire.
// One without is a single task that can start at any instruction, so
// each of its windows starts at exactly its scheduled count: the pass
// runs the interpreter to that count, flushes the open run and captures.
func (w *warmer) pass(maxInstrs uint64) error {
	for !w.ws.Multi && w.k < len(w.sched) {
		// A capture follows at least one retirement: a schedule point 0
		// is taken after the first instruction.
		at := max(w.sched[w.k], w.m.ICount+1)
		if at > maxInstrs {
			break
		}
		if err := w.m.RunTo(at); err != nil {
			return err
		}
		if w.m.ICount != at || w.win.failed.Load() {
			break
		}
		w.flush()
		w.capture(w.m.PC, at)
	}
	return w.m.Run(maxInstrs)
}

// boundary replays what the sequencer's committed path does at a task
// transition — train the task predictor on the actual outcome and
// apply the outcome's return-stack effect (RAS.Follow, as the
// sequencer does when it predicts and when it repairs a misprediction)
// — then advances to the next task and considers a capture.
func (w *warmer) boundary(next uint32, byRet bool) {
	desc := w.cur
	if w.err != nil || desc == nil {
		return
	}
	if len(desc.Targets) > 0 {
		actualIdx := desc.OutcomeIndex(next, byRet)
		if actualIdx < 0 {
			w.err = fmt.Errorf("sample: task %s exited to 0x%x, not among its targets %v",
				desc.Name, next, desc.Targets)
			return
		}
		counts := len(desc.Targets) > 1
		hist := w.ws.TaskPred.History(desc.Entry)
		predIdx := 0
		if counts && !w.static {
			snap := w.ws.TaskPred.Snapshot()
			predIdx = w.ws.TaskPred.Predict(desc.Entry) % len(desc.Targets)
			if predIdx != actualIdx {
				w.ws.TaskPred.Restore(snap)
			}
		}
		if counts {
			w.ws.TaskPred.UpdateWith(hist, desc.Entry, actualIdx, predIdx)
		}
		w.ws.RAS.Follow(desc, actualIdx)
	}
	w.ws.DescCache.Touch(next)
	if w.cur = w.prog.TaskAt(next); w.cur == nil {
		w.err = fmt.Errorf("sample: task exit to 0x%x has no descriptor", next)
		return
	}
	w.maybeCapture(next)
}

// maybeCapture captures at a task boundary if the next scheduled window
// start has been reached (at most one capture per call, so overlapping
// schedule points yield distinct capture sites). Once a window has
// failed the estimate is lost, so no further snapshot is made; the pass
// itself runs on, because its own errors take precedence over a
// window's.
func (w *warmer) maybeCapture(nextPC uint32) {
	if w.err != nil || w.k >= len(w.sched) {
		return
	}
	done := w.m.ICount + 1 // Retire runs before ICount advances
	if done < w.sched[w.k] || w.win.failed.Load() {
		return
	}
	w.capture(nextPC, done)
}

// capture snapshots the warm state at the instruction boundary (pc,
// icount) and hands the snapshot to the next window.
func (w *warmer) capture(pc uint32, icount uint64) {
	w.ws.PC = pc
	w.ws.FCC = w.m.FCC
	w.ws.ICount = icount
	w.ws.Regs = w.m.Regs
	w.win.hand(w.k, w.ws.Encode())
	w.k++
}

// regime derives the sampling regime from the functional reference
// run's instruction total and task-exit count and the unit count.
func regime(total, taskExits uint64, units int) Params {
	avgTask := total
	if taskExits > 0 {
		avgTask = (total + taskExits - 1) / taskExits
	}
	// Two pipeline-fills worth of tasks: enough for the window's cold
	// structures (units, ARB, ring) to reach steady-state overlap. This
	// must scale with task size — a fixed instruction budget under-warms
	// workloads with large tasks and biases every window slow.
	warmup := min(max(2*uint64(units)*avgTask, 64), 65536)
	window := max(2*warmup, 256)
	n := total * 8 / 100 / (warmup + window) // ~8% of the run in detail
	period := total / min(max(n, 4), 64)
	return Params{
		WindowInstrs: window,
		WarmupInstrs: warmup,
		PeriodInstrs: period,
		OffsetInstrs: period / 4,
		BiasFrac:     0.02,
	}
}

// schedule lists the window start points that leave room for a full
// warm-up + window before the run ends.
func (prm Params) schedule(total uint64) []uint64 {
	span := prm.WarmupInstrs + prm.WindowInstrs
	if prm.PeriodInstrs == 0 || total < span {
		return nil
	}
	var pts []uint64
	for s := prm.OffsetInstrs; s+span <= total; s += prm.PeriodInstrs {
		pts = append(pts, s)
	}
	return pts
}

func newEnv(stdin []byte) *interp.SysEnv {
	env := interp.NewSysEnv()
	if stdin != nil {
		env.In = bytes.NewReader(stdin)
	}
	return env
}

// Run performs a sampled simulation of program p under cfg. ref is the
// program's functional reference run on stdin; it fixes the sampling
// regime and the window schedule. One functional-warm pass then captures
// a warm-state snapshot per window and hands each to pool as it is made,
// so windows run while warming continues; with a nil pool each window
// runs inline at its capture point. maxInstrs bounds the warming pass,
// which must end where ref says the program ends.
func Run(p *isa.Program, cfg core.Config, stdin []byte, maxInstrs uint64, ref Functional, pool Runner) (*Estimate, error) {
	return run(p, cfg, regime(ref.TotalInstrs, ref.TaskExits, cfg.NumUnits), stdin, maxInstrs, ref, pool)
}

// run is Run under the regime prm.
func run(p *isa.Program, cfg core.Config, prm Params, stdin []byte, maxInstrs uint64, ref Functional, pool Runner) (*Estimate, error) {
	// Window machines must not trace: tracing is defined for full runs.
	cfg.Sink = nil

	total := ref.TotalInstrs
	sched := prm.schedule(total)
	if len(sched) < 2 || prm.PeriodInstrs < prm.WarmupInstrs+prm.WindowInstrs {
		return runFullDetail(p, cfg, prm, stdin, ref)
	}

	win := &windows{p: p, cfg: cfg, prm: prm, stdin: stdin,
		results: make([]windowRes, len(sched)), errs: make([]error, len(sched))}
	win.start(pool)

	w := newWarmer(p, cfg, stdin, sched, win)
	wm := w.m
	err := w.pass(maxInstrs)
	winErr := win.finish() // on every path: no window outlives Run
	switch {
	case err != nil:
		return nil, err
	case w.err != nil:
		return nil, w.err
	case wm.ICount != total || wm.Env.Out.String() != ref.Out || wm.Env.ExitCode != ref.ExitCode:
		return nil, fmt.Errorf("sample: warming pass ended after %d instructions with exit code %d, functional reference after %d with %d (or output differs)",
			wm.ICount, wm.Env.ExitCode, total, ref.ExitCode)
	case winErr != nil:
		return nil, winErr
	}

	est := &Estimate{
		Params:      prm,
		TotalInstrs: total,
		Out:         ref.Out,
		ExitCode:    ref.ExitCode,
	}
	var cpis []float64
	for _, r := range win.results[:w.k] {
		est.DetailedCycles += r.detCycles
		est.DetailedInstrs += r.detInstrs
		if r.instrs == 0 {
			continue
		}
		cpis = append(cpis, float64(r.cycles)/float64(r.instrs))
		est.WindowCycles = append(est.WindowCycles, r.cycles)
		est.WindowInstrs = append(est.WindowInstrs, r.instrs)
	}
	if len(cpis) < 2 {
		return runFullDetail(p, cfg, prm, stdin, ref)
	}
	est.Windows = len(cpis)
	est.MeanCPI, est.VarCPI, est.StdErrCPI = meanStdErr(cpis)
	est.CPILow, est.CPIHigh = confidenceInterval(est.MeanCPI, est.StdErrCPI, len(cpis))
	// Widen by the non-sampling-bias allowance: identical-CPI window
	// populations would otherwise report a degenerate zero-width CI that
	// no systematic estimate can honestly claim.
	bias := prm.BiasFrac * est.MeanCPI
	est.CPIHigh += bias
	if est.CPILow -= bias; est.CPILow < 0 {
		est.CPILow = 0
	}
	ftotal := float64(total)
	est.EstCycles = uint64(est.MeanCPI*ftotal + 0.5)
	est.CyclesLow = uint64(est.CPILow*ftotal + 0.5)
	est.CyclesHi = uint64(est.CPIHigh*ftotal + 0.5)
	return est, nil
}

// windowRes is one detailed window's measurement.
type windowRes struct {
	cycles, instrs       uint64 // measured region
	detCycles, detInstrs uint64 // total detailed cost
}

// windows is the pipeline's consuming end: window k restores snapshot
// k into a fresh timing machine, warms up and measures, writing slot k
// of results (so the estimate is independent of completion order).
type windows struct {
	p     *isa.Program
	cfg   core.Config
	prm   Params
	stdin []byte

	results []windowRes
	errs    []error
	failed  atomic.Bool // some window returned an error

	feed    chan capture // nil: windows run inline in hand
	drained chan error   // the pool's return, once every job has ended
}

type capture struct {
	k    int
	snap []byte
}

// start puts one job per scheduled window on the pool; each takes the
// next capture off feed, or ends unused when feed closes first. feed is
// unbuffered, so the snapshots alive at any moment are the one the
// producer is offering and one per busy worker.
func (ws *windows) start(pool Runner) {
	if pool == nil {
		return
	}
	ws.feed = make(chan capture)
	ws.drained = make(chan error, 1)
	go func() {
		ws.drained <- pool(len(ws.results), func(int) error {
			if c, ok := <-ws.feed; ok {
				ws.run(c.k, c.snap)
			}
			return nil // a failed window must not stop the pool draining feed
		})
	}()
}

// hand passes snapshot k to its window: to a pool worker when there is
// one (blocking while all are busy), else by running it here.
func (ws *windows) hand(k int, snap []byte) {
	if ws.feed == nil {
		ws.run(k, snap)
		return
	}
	ws.feed <- capture{k, snap}
}

// finish ends the hand-off, waits for the windows in flight and returns
// the lowest-index window error. Snapshots go out in index order and a
// window handed out always runs to its end, so that error is the same
// whatever the pool's width.
func (ws *windows) finish() error {
	var poolErr error
	if ws.feed != nil {
		close(ws.feed)
		poolErr = <-ws.drained
	}
	for _, err := range ws.errs {
		if err != nil {
			return err
		}
	}
	return poolErr
}

func (ws *windows) run(k int, snap []byte) {
	res, err := ws.measure(snap)
	if err != nil {
		ws.errs[k] = fmt.Errorf("sample: window %d: %w", k, err)
		ws.failed.Store(true)
		return
	}
	ws.results[k] = res
}

func (ws *windows) measure(snap []byte) (windowRes, error) {
	m, err := core.NewMultiscalar(ws.p, newEnv(ws.stdin), ws.cfg)
	if err != nil {
		return windowRes{}, err
	}
	if err := m.InjectWarm(snap); err != nil {
		return windowRes{}, err
	}
	var warmCycles, warmInstrs uint64
	if ws.prm.WarmupInstrs > 0 {
		m.SetCommitLimit(ws.prm.WarmupInstrs)
		r1, err := m.Run()
		if err != nil {
			return windowRes{}, err
		}
		warmCycles, warmInstrs = r1.Cycles, r1.Committed
	}
	m.SetCommitLimit(ws.prm.WarmupInstrs + ws.prm.WindowInstrs)
	r2, err := m.Run()
	if err != nil {
		return windowRes{}, err
	}
	return windowRes{
		cycles:    r2.Cycles - warmCycles,
		instrs:    r2.Committed - warmInstrs,
		detCycles: r2.Cycles,
		detInstrs: r2.Committed,
	}, nil
}

// runFullDetail is the fallback for runs too short to sample: one
// exact detailed run, judged in lockstep with the functional machine and
// reported as a zero-width interval.
func runFullDetail(p *isa.Program, cfg core.Config, prm Params, stdin []byte, ref Functional) (*Estimate, error) {
	m, err := core.NewMultiscalar(p, newEnv(stdin), cfg)
	if err != nil {
		return nil, err
	}
	m.Judge(interp.NewMachine(p, newEnv(stdin)), ref.TotalInstrs)
	r, err := m.Run()
	if err != nil {
		return nil, err
	}
	if d := m.Divergence(); d != nil {
		return nil, fmt.Errorf("sample: detailed run: %w", d)
	}
	cpi := 0.0
	if r.Committed > 0 {
		cpi = float64(r.Cycles) / float64(r.Committed)
	}
	return &Estimate{
		Params:         prm,
		TotalInstrs:    ref.TotalInstrs,
		Windows:        1,
		FullDetail:     true,
		MeanCPI:        cpi,
		CPILow:         cpi,
		CPIHigh:        cpi,
		EstCycles:      r.Cycles,
		CyclesLow:      r.Cycles,
		CyclesHi:       r.Cycles,
		DetailedCycles: r.Cycles,
		DetailedInstrs: r.Committed,
		Out:            ref.Out,
		ExitCode:       ref.ExitCode,
	}, nil
}

// InCI reports whether a cycle count lies inside the estimate's 95%
// confidence interval.
func (e *Estimate) InCI(cycles uint64) bool {
	return cycles >= e.CyclesLow && cycles <= e.CyclesHi
}

// ErrPct is the signed relative error of the estimate against a known
// full-run cycle count, in percent.
func (e *Estimate) ErrPct(fullCycles uint64) float64 {
	if fullCycles == 0 {
		return 0
	}
	return 100 * (float64(e.EstCycles) - float64(fullCycles)) / float64(fullCycles)
}

// DetailReduction is the ratio of a full run's cycles to the detailed
// cycles this sampled run actually simulated — the headline speed
// claim (≥10× on the long table workloads).
func (e *Estimate) DetailReduction(fullCycles uint64) float64 {
	if e.DetailedCycles == 0 {
		return 0
	}
	return float64(fullCycles) / float64(e.DetailedCycles)
}
