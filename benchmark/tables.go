package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// tablesExact is the user-visible batch command: cold `msbench -all`
// child processes whose standard output must equal msbench_all.txt byte
// for byte.
type tablesExact struct {
	bin     string // the msbench binary built in set-up
	golden  []byte
	reports []msbenchReport // one per untraced pass
}

// msbenchReport is the part of msbench's -json report the ledger reads.
type msbenchReport struct {
	Sections []struct {
		Name    string  `json:"name"`
		Seconds float64 `json:"seconds"`
	} `json:"sections"`
	SimRuns         uint64  `json:"sim_runs"`
	SimCycles       uint64  `json:"sim_cycles"`
	CycleSkipRatio  float64 `json:"cycle_skip_ratio"`
	SimInstructions uint64  `json:"sim_instructions"`
	Builds          uint64  `json:"builds"`
	RunsRestored    uint64  `json:"runs_restored"`
}

// setup links msbench from source. The Go build cache is warm after the
// first time in a checkout, so what repeats is the link, which is why
// the binary is removed first: a steady cost rather than a no-op.
func (w *tablesExact) setup(rc *runCtx) error {
	bin, err := filepath.Abs(filepath.Join(buildDir, "msbench"))
	if err != nil {
		return err
	}
	if err := os.Remove(bin); err != nil && !os.IsNotExist(err) {
		return err
	}
	id := rc.tr.begin("go.build", 0, "msbench")
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/msbench").CombinedOutput()
	rc.tr.end(id)
	if err != nil {
		return fmt.Errorf("go build ./cmd/msbench: %v\n%s", err, out)
	}
	if w.golden, err = os.ReadFile("msbench_all.txt"); err != nil {
		return err
	}
	w.bin = bin
	rc.ownProfile, rc.profBinary = true, bin
	return nil
}

func (w *tablesExact) pass(rc *runCtx) (passResult, error) {
	var args []string
	if rc.tr != nil {
		prof := filepath.Join(rc.tmp, "msbench-"+strconv.Itoa(len(rc.profiles))+".pprof")
		args = append(args, "-cpuprofile", prof)
		rc.profiles = append(rc.profiles, prof)
	}
	p, rep, err := w.child(rc, args...)
	if err == nil && rc.tr == nil {
		w.reports = append(w.reports, rep)
	}
	return p, err
}

// child runs one cold `msbench -all -json` and checks its output.
func (w *tablesExact) child(rc *runCtx, extra ...string) (passResult, msbenchReport, error) {
	var rep msbenchReport
	reportPath := filepath.Join(rc.tmp, "report.json")
	cmd := exec.Command(w.bin, append([]string{"-all", "-json", reportPath}, extra...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	id := rc.tr.begin("child.msbench", 0, rc.name)
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	rc.tr.end(id)
	rc.op(err == nil, "msbench -all: %v: %s", err, stderr.Bytes())
	if err != nil {
		return passResult{}, rep, err
	}
	rc.op(bytes.Equal(stdout.Bytes(), w.golden), "msbench -all output differs from msbench_all.txt")
	data, err := os.ReadFile(reportPath)
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	if err != nil {
		return passResult{}, rep, fmt.Errorf("reading msbench report: %w", err)
	}
	if rc.tr != nil {
		// The child's own section timers, laid end to end from its start.
		at := rc.tr.startOf(id)
		for _, s := range rep.Sections {
			d := int64(s.Seconds * 1e9)
			rc.tr.add("bench.section."+s.Name, id, rc.name, at, at+d)
			at += d
		}
	}
	p := passResult{
		wall:   wall,
		cycles: rep.SimCycles,
		instrs: rep.SimInstructions,
		jobs:   int(rep.SimRuns + rep.RunsRestored),
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.rssKB = ru.Maxrss
	}
	return p, rep, nil
}

func (w *tablesExact) probes(rc *runCtx) error {
	sections := map[string][]float64{}
	var walls []float64
	for _, r := range w.reports {
		total := 0.0
		for _, s := range r.Sections {
			sections[s.Name] = append(sections[s.Name], s.Seconds)
			total += s.Seconds
		}
		walls = append(walls, total)
	}
	for _, name := range []string{"table2", "table3", "table4", "breakdown", "ablate", "sweep", "mix"} {
		rc.set("bench.section_s."+name, median(sections[name]))
	}
	last := w.reports[len(w.reports)-1]
	rc.set("bench.builds", float64(last.Builds))
	rc.set("bench.sim_runs", float64(last.SimRuns))
	rc.set("bench.runs_restored", float64(last.RunsRestored))
	rc.set("bench.skip_ratio", last.CycleSkipRatio)

	// What the worker pool buys: the sections' time on one worker over
	// their time on the default pool.
	_, serial, err := w.child(rc, "-par", "1")
	if err != nil {
		return err
	}
	one := 0.0
	for _, s := range serial.Sections {
		one += s.Seconds
	}
	rc.set("bench.pool_speedup", one/median(walls))

	asmProbe(rc)
	return nil
}
