package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// tracedMetrics fills the per-layer rows every workload's traced run
// has: span self times (per set-up, per traced pass, and the median per
// hot-phase request), the tracing overhead, and the hostshare.* fold of
// the traced passes' CPU profiles.
func tracedMetrics(rc *runCtx, rec *recorder, setups int, plain, withSpans []passResult) error {
	spans := rec.snapshot()
	self, rootTotal := selfTimes(spans)
	byName := map[string]int64{}
	hot := map[string][]float64{} // per hot-phase request, microseconds
	total := int64(0)
	for i, s := range spans {
		byName[s.Name] += self[i]
		total += self[i]
		if strings.HasPrefix(s.Req, "hot/") {
			hot[s.Name] = append(hot[s.Name], float64(self[i])/1e3)
		}
	}
	perSetup, perPass := 1e-9/float64(setups), 1e-9/float64(len(withSpans))
	rc.set("span.build_self_s", float64(byName["job.resolve"]+byName["go.build"])*perSetup)
	rc.set("span.oracle_self_s", float64(byName["job.oracle"])*perSetup)
	rc.set("span.execute_self_s", float64(byName["job.execute"])*perPass)
	rc.set("span.sample_run_self_s", float64(byName["sample.run"])*perPass)
	rc.set("span.http_roundtrip_self_us", median(hot["http.roundtrip"]))
	rc.set("span.http_handler_self_us", median(hot["http.handler"]))
	rc.set("span.serve_submit_self_us", median(hot["serve.submit"]))
	rc.set("span.self_sum_pct", 100*float64(total)/float64(rootTotal))

	wall := func(ps []passResult) float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, p.wall)
		}
		return median(xs)
	}
	rc.set("trace_overhead_pct", 100*(wall(withSpans)-wall(plain))/wall(plain))

	shares, err := hostShares(rc.profBinary, rc.profiles, rc.tmp)
	if err != nil {
		return err
	}
	for group, pct := range shares {
		rc.set("hostshare."+group, pct)
	}
	return nil
}

// shareGroup maps a Go package path to its hostshare.* row.
func shareGroup(pkg string) string {
	if layer, ok := strings.CutPrefix(pkg, "multiscalar/internal/"); ok {
		switch layer {
		case "pu", "core", "arb", "mem", "predict", "interp", "snapshot", "serve":
			return layer
		}
		return "other"
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime" // scheduler, GC and allocator
	case pkg == "encoding/json" || pkg == "encoding/base64" || pkg == "net" || strings.HasPrefix(pkg, "net/") ||
		pkg == "bufio" || pkg == "internal/poll" || pkg == "syscall":
		return "json_http" // codec and socket I/O
	}
	return "other"
}

// framePackage extracts the package path from a pprof frame name such
// as "multiscalar/internal/pu.(*Unit).Tick" or "pkg/path.fn[go.shape.int]".
func framePackage(frame string) string {
	if i := strings.IndexAny(frame, "[("); i >= 0 {
		frame = frame[:i]
	}
	slash := strings.LastIndex(frame, "/") + 1
	if dot := strings.Index(frame[slash:], "."); dot >= 0 {
		return frame[:slash+dot]
	}
	return frame
}

// foldTop folds `go tool pprof -top -unit=ms` output into percentage
// shares of flat samples per hostshare group. Frames that name no known
// package count as other, so the shares sum to 100.
func foldTop(top string) (map[string]float64, error) {
	shares := map[string]float64{}
	total, inTable := 0.0, false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", line, err)
		}
		shares[shareGroup(framePackage(f[5]))] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top reported no samples")
	}
	for g := range shares {
		shares[g] *= 100 / total
	}
	return shares, nil
}

// hostShares runs the toolchain's own pprof over the traced passes'
// profiles; nothing but the Go distribution is needed.
func hostShares(binary string, profiles []string, tmp string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000", "-nodefraction=0", binary}, profiles...)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+tmp)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out))
}
