package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"multiscalar/internal/arb"
	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
	"multiscalar/internal/mem"
	"multiscalar/internal/predict"
	"multiscalar/internal/trace"
	simws "multiscalar/internal/workloads"
)

// Layer probes: microbenchmarks of one layer's exported entry points,
// each run for at least probeSeconds. A probe lives in the traced run of
// the workload its layer should move (its home):
//
//	tables_exact  asm.*  bench.*
//	exact_wide    core.ms{4,8,16}_kcps and the modelled-machine counts, interp.oracle_ms, arb.*, mem.*, predict.*
//	exact_narrow  core.ms1_kcps  core.scalar_kcps  core.noskip_slowdown
//	sampled_long  sample.*  interp.mips  interp.warm_mips  snapshot.*
//	serve_mix     serve.*  job.*  trace.*
//
// hostshare.*, span.*, core.ns_per_unit_tick, core.mallocs_per_kcycle
// and trace_overhead_pct are filled wherever they apply. Address and
// operation streams come from the run's seed.
const probeSeconds = 0.3

// repeatFor calls fn until at least seconds have passed and returns how
// many times it ran.
func repeatFor(seconds float64, fn func()) int {
	start := time.Now()
	n := 0
	for {
		fn()
		n++
		if time.Since(start).Seconds() >= seconds {
			return n
		}
	}
}

// perCall times fn over at least probeSeconds and returns the mean
// seconds per call.
func perCall(fn func()) float64 {
	start := time.Now()
	n := repeatFor(probeSeconds, fn)
	return time.Since(start).Seconds() / float64(n)
}

// opsPerSecond calls fn, which reports how many operations it made, for
// at least probeSeconds.
func opsPerSecond(fn func() int) float64 {
	ops := 0
	start := time.Now()
	repeatFor(probeSeconds, func() { ops += fn() })
	return float64(ops) / time.Since(start).Seconds()
}

// asmProbe assembles all ten suite sources in both modes at default scale.
func asmProbe(rc *runCtx) {
	type src struct {
		name, text string
	}
	var srcs []src
	kb := 0.0
	for _, w := range simws.All() {
		s := src{w.Name, w.Source(w.DefaultScale)}
		srcs = append(srcs, s)
		kb += 2 * float64(len(s.text)) / 1024
	}
	var err error
	sweep := perCall(func() {
		for _, s := range srcs {
			for _, mode := range []asm.Mode{asm.ModeScalar, asm.ModeMultiscalar} {
				if _, e := asm.Assemble(s.text, mode); e != nil {
					err = fmt.Errorf("%s: %w", s.name, e)
				}
			}
		}
	})
	rc.op(err == nil, "assembling: %v", err)
	rc.set("asm.assemble_ms", sweep*1e3)
	rc.set("asm.kb_per_s", kb/sweep)
}

// nopWarmer is the cheapest possible observer: interp.warm_mips against
// interp.mips is the cost of having a Warmer attached at all.
type nopWarmer struct{}

func (nopWarmer) Mem(uint32, bool)      {}
func (nopWarmer) Retire(uint32, uint32) {}

// interpProbe times the functional interpreter over progs, bare and
// with a no-op Warmer attached. It returns the seconds one bare pass
// over all of them takes.
func interpProbe(rc *runCtx, progs []*isa.Program) float64 {
	var err error
	var instrs uint64
	run := func(warm interp.Warmer) (secs float64) {
		instrs = 0
		for _, p := range progs {
			var n uint64
			secs += perCall(func() {
				m := interp.NewMachine(p, interp.NewSysEnv())
				m.Warm = warm
				if e := m.Run(job.DefaultMaxInstrs); e != nil {
					err = e
				}
				n = m.ICount
			})
			instrs += n
		}
		return secs
	}
	bare := run(nil)
	rc.set("interp.mips", float64(instrs)/bare/1e6)
	rc.set("interp.warm_mips", float64(instrs)/run(nopWarmer{})/1e6)
	rc.op(err == nil, "interpreting: %v", err)
	return bare
}

// arbProbe replays a seeded load/store stream through an 8-unit ARB the
// way the core drives it: units issue in ring order from the head, a
// violating store squashes the violator and its successors, and the
// head commits and advances once per round.
func arbProbe(rc *runCtx) {
	const units = 8
	cfg := core.DefaultConfig(units, 2, true)
	a := arb.New(units, cfg.NumBanks(), cfg.ARBEntries, cfg.ARBPolicy)
	backing := mem.NewMemory()
	rng := rand.New(rand.NewSource(rc.seed))
	type op struct {
		addr  uint32
		store bool
	}
	ops := make([]op, 1<<15)
	for i := range ops {
		ops[i] = op{0x10000000 + uint32(rng.Intn(4096))*4, rng.Intn(10) < 3}
	}
	head := 0
	rc.set("arb.ops_per_s", opsPerSecond(func() (calls int) {
		for i := 0; i < len(ops); {
			for d := 0; d < units; d++ {
				u := (head + d) % units
				for k := 0; k < 8 && i < len(ops); k, i = k+1, i+1 {
					calls++
					if !ops[i].store {
						a.Load(u, head, units, ops[i].addr, 4, backing)
						continue
					}
					if r := a.Store(u, head, units, ops[i].addr, 4, uint64(i)); r.Violator >= 0 {
						for v := (r.Violator - head + units) % units; v < units; v++ {
							a.ClearUnit((head + v) % units)
							calls++
						}
					}
				}
			}
			a.Commit(head, backing)
			calls++
			head = (head + 1) % units
		}
		return calls
	}))
}

// memProbe drives the banked data cache with a seeded stream whose miss
// rate is about the wide set's (misses over the oracle's loads and
// stores), and the backing store with seeded word reads.
func memProbe(rc *runCtx, missRate float64) {
	cfg := core.DefaultConfig(8, 2, true)
	d := mem.NewBankedDCache(cfg.NumBanks(), cfg.DBankBytes, cfg.DBlockBytes, cfg.DCacheHit, cfg.NumMSHRs, mem.NewBus())
	rng := rand.New(rand.NewSource(rc.seed))
	type access struct {
		addr  uint32
		write bool
	}
	stream := make([]access, 1<<16)
	cold := uint32(0x20000000) // a fresh block every time: always a miss
	for i := range stream {
		if rng.Float64() < missRate {
			cold += uint32(cfg.DBlockBytes)
			stream[i] = access{cold, false}
		} else {
			stream[i] = access{0x10000000 + uint32(rng.Intn(1024))*8, rng.Intn(4) == 0}
		}
	}
	now := uint64(0)
	rc.set("mem.dcache_access_per_s", opsPerSecond(func() int {
		for _, s := range stream {
			d.Access(now, s.addr, s.write)
			now++
		}
		return len(stream)
	}))

	m := mem.NewMemory()
	const words = 1 << 18
	for i := uint32(0); i < words; i++ {
		m.WriteWord(0x10000000+4*i, i)
	}
	addrs := make([]uint32, 1<<16)
	for i := range addrs {
		addrs[i] = 0x10000000 + 4*uint32(rng.Intn(words))
	}
	var sink uint32
	rc.set("mem.read_word_per_s", opsPerSecond(func() int {
		for _, a := range addrs {
			sink += m.ReadWord(a)
		}
		return len(addrs)
	}))
	rc.op(sink != 0, "memory read back zeros")
}

// predictProbe runs Predict + UpdateWith pairs over 48 task addresses
// whose outcomes follow seeded short cycles, as loop exits do.
func predictProbe(rc *runCtx) {
	var p predict.TaskPredictor
	rng := rand.New(rand.NewSource(rc.seed))
	type task struct {
		addr   uint32
		period int
		n      int
	}
	tasks := make([]task, 48)
	for i := range tasks {
		tasks[i] = task{addr: 0x400000 + uint32(rng.Intn(1<<12))*4, period: 2 + rng.Intn(7)}
	}
	rc.set("predict.task_ops_per_s", opsPerSecond(func() int {
		for r := 0; r < 1024; r++ {
			for i := range tasks {
				t := &tasks[i]
				actual := 0
				if t.n++; t.n%t.period == 0 {
					actual = 1
				}
				hist := p.History(t.addr)
				p.UpdateWith(hist, t.addr, actual, p.Predict(t.addr))
			}
		}
		return 1024 * len(tasks)
	}))
}

// snapshotProbe saves an 8-unit machine in the middle of a run, restores
// it into fresh machines, and resumes a finished-machine snapshot through
// job.Execute (what bench's run sharing does per duplicate point).
func snapshotProbe(rc *runCtx, spec *job.Spec, cycles uint64) error {
	prog, err := spec.Resolve()
	if err != nil {
		return err
	}
	newMachine := func() (*core.Multiscalar, error) {
		return core.NewMultiscalar(prog, interp.NewSysEnv(), spec.Config)
	}
	m, err := newMachine()
	if err != nil {
		return err
	}
	var snap []byte
	m.ScheduleCheckpoint(cycles/2, func() error {
		id := rc.rec.begin("snapshot.save", 0, spec.Workload)
		defer rc.rec.end(id)
		var err error
		rc.set("snapshot.save_us", 1e6*perCall(func() {
			if err == nil {
				snap, err = m.Save()
			}
		}))
		return err
	})
	if _, err := m.Run(); err != nil {
		return err
	}
	rc.set("snapshot.bytes", float64(len(snap)))

	var fresh []*core.Multiscalar
	for i := 0; i < 64; i++ {
		f, err := newMachine()
		if err != nil {
			return err
		}
		fresh = append(fresh, f)
	}
	id := rc.rec.begin("snapshot.restore", 0, spec.Workload)
	start := time.Now()
	for _, f := range fresh {
		if err := f.Restore(snap); err != nil {
			return err
		}
	}
	rc.set("snapshot.restore_us", 1e6*time.Since(start).Seconds()/float64(len(fresh)))
	rc.rec.end(id)

	done := *spec
	done.WantSnapshot = true
	out, err := job.Execute(&done, nil)
	if err != nil {
		return err
	}
	rc.set("snapshot.restored_run_ms", 1e3*perCall(func() {
		if err != nil {
			return
		}
		var o *job.Output
		if o, err = job.Execute(spec, &job.Runtime{Restore: out.Snapshot}); err == nil {
			rc.op(o.Result.Cycles == out.Result.Cycles, "restored run reports %d cycles, original %d", o.Result.Cycles, out.Result.Cycles)
		}
	}))
	return err
}

// traceProbe compares a run with the .mstrc artifact requested against
// the same run without it.
func traceProbe(rc *runCtx) error {
	plain := point{"example", 900, asm.ModeMultiscalar, core.DefaultConfig(8, 2, true), ""}.spec()
	traced := *plain
	traced.WantTrace = true
	var out *job.Output
	var err error
	run := func(s *job.Spec) float64 {
		return perCall(func() {
			if err == nil {
				out, err = job.Execute(s, nil)
			}
		})
	}
	off := run(plain)
	on := run(&traced)
	if err != nil {
		return err
	}
	tr, err := trace.ReadAll(bytes.NewReader(out.Trace))
	if err != nil {
		return err
	}
	rc.set("trace.on_slowdown", on/off)
	rc.set("trace.events_per_s", float64(len(tr.Events))/on)
	rc.set("trace.bytes_per_kcycle", float64(len(out.Trace))/(float64(out.Result.Cycles)/1e3))
	return nil
}

// jobProbe times the spec layer's hot entry points for the three ways a
// spec can name its program.
func jobProbe(rc *runCtx) error {
	w := simws.Get("gcc")
	byName := &job.Spec{Op: job.OpSimulate, Workload: w.Name, Scale: w.TestScale, Mode: asm.ModeMultiscalar, Config: core.DefaultConfig(8, 2, true)}
	bySource := *byName
	bySource.Workload, bySource.Source = "", w.Source(w.TestScale)
	prog, err := byName.Resolve()
	if err != nil {
		return err
	}
	byProgram := *byName
	byProgram.Workload, byProgram.Program = "", prog
	for _, p := range []struct {
		metric string
		spec   *job.Spec
	}{{"job.key_us", byName}, {"job.key_source_us", &bySource}, {"job.key_program_us", &byProgram}} {
		rc.set(p.metric, 1e6*perCall(func() {
			if _, e := p.spec.Key(); e != nil {
				err = e
			}
		}))
	}
	rc.set("job.resolve_hit_us", 1e6*perCall(func() {
		if _, e := byName.Resolve(); e != nil {
			err = e
		}
	}))
	return err
}
