package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"
)

const (
	buildDir  = ".bench_build"  // binaries, Go caches, scratch files: never committed
	outDir    = "benchmark/out" // span files and per-run detail: never committed
	minPasses = 3               // untraced passes per run, whatever the budget

	// Set-ups per run; setup_s is their median. A cheap set-up repeats
	// until a second has gone by, so a millisecond-scale one is a median
	// of many and stays steady.
	minSetups, maxSetups = 3, 25
)

// passResult is what one fixed-work pass measured.
type passResult struct {
	wall           float64 // s, timed by the workload around the fixed work only
	simWall        float64 // s, the part of wall that simulated (0: all of it)
	cycles, instrs uint64  // simulated work the pass accounted for
	jobs           int     // runs, points, estimates or requests completed
	rssKB          int64   // peak resident set while the pass ran: of the child when the work runs in one, else of this process

	// Measured by serve_mix; zero on the batch workloads, where the
	// harness derives them from wall and jobs.
	coldJobsPerS, hotJobsPerS, hotP50us, hotArtP50ms float64
}

// workload is one named set of inputs. set-up is repeated, each time
// from scratch; a pass is the fixed work; probes are the
// layer microbenchmarks whose home is this workload (traced run only).
type workload interface {
	setup(rc *runCtx) error
	pass(rc *runCtx) (passResult, error)
	probes(rc *runCtx) error
}

var workloads = map[string]func() workload{
	"tables_exact": func() workload { return &tablesExact{} },
	"exact_wide":   func() workload { return &exactRuns{points: widePoints(), wide: true} },
	"exact_narrow": func() workload { return &exactRuns{points: narrowPoints()} },
	"sampled_long": func() workload { return &sampledLong{} },
	"serve_mix":    func() workload { return &serveMix{} },
}

// runCtx is the state one workload run shares with its passes and probes.
type runCtx struct {
	name string
	seed int64
	rec  *recorder // the traced run's recorder (nil in an untraced run)
	tr   *recorder // rec while set-up and traced passes record spans, nil otherwise
	tmp  string    // scratch directory under buildDir

	// CPU profiles of the traced passes and the binary they belong to
	// (this process, unless the workload runs a child).
	profiles   []string
	profBinary string
	ownProfile bool // the workload profiles its child itself

	mu        sync.Mutex
	attempted int
	failed    int
	layer     map[string]float64
}

// op counts one operation and, when it failed, says why on stderr.
func (rc *runCtx) op(ok bool, format string, args ...any) {
	rc.mu.Lock()
	rc.attempted++
	if !ok {
		rc.failed++
		if rc.failed <= 10 {
			fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", rc.name, fmt.Sprintf(format, args...))
		}
	}
	rc.mu.Unlock()
}

// set records a per-layer metric.
func (rc *runCtx) set(name string, v float64) {
	rc.mu.Lock()
	rc.layer[name] = v
	rc.mu.Unlock()
}

func (rc *runCtx) get(name string) float64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.layer[name]
}

// metricValue is one reported number. Only value and unit reach the
// result line; the quartiles over passes go to the detail file that
// -compare reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// runResult is the detail record of one workload run.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine is the contract's last line of standard output.
func (r *runResult) resultLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]mv, len(r.Metrics))
	for k, v := range r.Metrics {
		m[k] = mv{v.Value, v.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m})
}

func detailPath(workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("result-%s-trace%d.json", workload, trace))
}

// runWorkload runs one workload in this process and reports it.
func runWorkload(name string, seed int64, seconds float64, traced bool) (*runResult, error) {
	mk := workloads[name]
	if mk == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	for _, d := range []string{outDir, filepath.Join(buildDir, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	tmp, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rc := &runCtx{name: name, seed: seed, tmp: tmp, profBinary: self, layer: map[string]float64{}}
	var rec *recorder
	if traced {
		rec = newRecorder()
		rc.rec, rc.tr = rec, rec // set-up of the traced run is traced too
	}
	w := mk()

	var setups []float64
	for i := 0; i < minSetups || (i < maxSetups && sum(setups) < 1); i++ {
		runtime.GC() // as before every pass: steadier times and peak RSS
		start := time.Now()
		if err := w.setup(rc); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Set-up's garbage goes back to the operating system, so that the
	// resident set watched during the passes is the passes' own.
	debug.FreeOSMemory()

	// Untraced passes fill the end-to-end metrics. The traced run
	// alternates untraced and traced passes so the overhead of tracing
	// is measured inside one process, minutes apart from nothing.
	var plain, withSpans []passResult
	measured := 0.0 // seconds inside passes' own timers
	for i := 0; ; i++ {
		enough := len(plain) >= minPasses
		if traced {
			enough = len(plain) >= 2 && len(withSpans) >= 2
		}
		if enough && measured >= seconds {
			break
		}
		tracePass := traced && i%2 == 1
		rc.tr = nil
		if tracePass {
			rc.tr = rec
		}
		runtime.GC() // every pass starts from a collected heap
		peak := watchRSS()
		p, err := profiledPass(w, rc, tracePass)
		if rss := peak(); p.rssKB == 0 {
			p.rssKB = rss
		}
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", name, i, err)
		}
		measured += p.wall
		if tracePass {
			withSpans = append(withSpans, p)
		} else {
			plain = append(plain, p)
		}
	}
	rc.tr = nil

	res := &runResult{Workload: name, Seed: seed, Seconds: seconds, Metrics: map[string]metricValue{}}
	if !traced {
		endToEndMetrics(rc, res, setups, plain)
	} else {
		res.Trace = 1
		if err := w.probes(rc); err != nil {
			return nil, fmt.Errorf("%s probes: %w", name, err)
		}
		if err := tracedMetrics(rc, rec, len(setups), plain, withSpans); err != nil {
			return nil, err
		}
		if err := rec.write(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
			return nil, err
		}
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{Value: rc.layer[d.Name], Unit: d.Unit}
		}
		for k := range rc.layer {
			if _, ok := res.Metrics[k]; !ok {
				return nil, fmt.Errorf("probe reported undeclared metric %q", k)
			}
		}
	}
	res.Attempted, res.Failed = rc.attempted, rc.failed
	res.Correct = rc.failed == 0
	detail, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(detailPath(name, res.Trace), detail, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// profiledPass runs one pass, under a CPU profile when it is a traced
// one (the hostshare.* fold reads the profiles afterwards).
func profiledPass(w workload, rc *runCtx, profile bool) (passResult, error) {
	if !profile || rc.ownProfile {
		return w.pass(rc)
	}
	path := filepath.Join(rc.tmp, "cpu-"+strconv.Itoa(len(rc.profiles))+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return passResult{}, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return passResult{}, err
	}
	p, err := w.pass(rc)
	pprof.StopCPUProfile()
	rc.profiles = append(rc.profiles, path)
	return p, err
}

// endToEndMetrics fills the ten end-to-end metrics from the set-ups and
// the untraced passes, each as the median over them.
func endToEndMetrics(rc *runCtx, res *runResult, setups []float64, passes []passResult) {
	series := map[string][]float64{"setup_s": setups}
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	for _, p := range passes {
		if p.simWall == 0 {
			p.simWall = p.wall
		}
		add("wall_s", p.wall)
		add("sim_mcps", float64(p.cycles)/p.simWall/1e6)
		add("sim_mips", float64(p.instrs)/p.simWall/1e6)
		if p.coldJobsPerS == 0 {
			// A batch workload: every job is computed, none is a hit, so
			// the serve-shaped metrics read the pass as a mean job rate
			// and a mean job latency.
			rate := float64(p.jobs) / p.wall
			p.coldJobsPerS, p.hotJobsPerS = rate, rate
			p.hotP50us, p.hotArtP50ms = 1e6/rate, 1e3/rate
		}
		add("cold_jobs_per_s", p.coldJobsPerS)
		add("hot_jobs_per_s", p.hotJobsPerS)
		add("hot_p50_us", p.hotP50us)
		add("hot_artifact_p50_ms", p.hotArtP50ms)
		add("sim_cycles", float64(p.cycles))
		add("peak_rss_mb", float64(p.rssKB)/1024)
	}
	// Fixed work: every pass should account for the same simulated
	// cycles. The median is reported, so one odd pass cannot move it.
	if c := sorted(series["sim_cycles"]); c[0] != c[len(c)-1] {
		fmt.Fprintf(os.Stderr, "WARNING %s: passes simulated between %.0f and %.0f cycles\n", rc.name, c[0], c[len(c)-1])
	}
	for _, d := range endToEnd {
		q1, med, q3 := quartiles(series[d.Name])
		res.Metrics[d.Name] = metricValue{Value: med, Unit: d.Unit, Q1: q1, Q3: q3, N: len(series[d.Name])}
	}
}

// watchRSS polls this process's resident set every 5 ms until the
// returned function is called, which reports the largest reading in KB.
// (VmHWM would need no polling, but it cannot be reset between passes
// and would carry set-up's peak into every one of them.)
func watchRSS() (peakKB func() int64) {
	read := func() int64 {
		data, err := os.ReadFile("/proc/self/statm")
		if err != nil {
			return 0
		}
		var size, resident int64
		fmt.Sscan(string(data), &size, &resident)
		return resident * int64(os.Getpagesize()) / 1024
	}
	done, result := make(chan struct{}), make(chan int64)
	go func() {
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		peak := read()
		for {
			select {
			case <-done:
				result <- max(peak, read())
				return
			case <-t.C:
				peak = max(peak, read())
			}
		}
	}()
	return func() int64 { close(done); return <-result }
}

// printResult writes every metric by name with its unit, then the
// contract's result line.
func printResult(res *runResult) error {
	table := endToEnd
	if res.Trace == 1 {
		table = perLayer
	}
	for _, d := range table {
		v := res.Metrics[d.Name]
		fmt.Printf("%-13s %-28s %16.6g %-10s", res.Workload, d.Name, v.Value, v.Unit)
		if v.N > 0 {
			fmt.Printf(" q1=%.6g q3=%.6g passes=%d", v.Q1, v.Q3, v.N)
		}
		fmt.Println()
	}
	line, err := res.resultLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
