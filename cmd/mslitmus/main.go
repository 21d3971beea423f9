// mslitmus generates memory-ordering litmus tests, judges the
// speculative machines in lockstep with the functional machine across a
// config matrix, and stress-fuzzes the ARB's capacity paths. See
// docs/litmus.md.
//
// Usage:
//
//	mslitmus -list                         catalogue the shape families
//	mslitmus -dump mp/pad8/fill4           print one generated program
//	mslitmus -corpus [-quick]              run the curated differential corpus
//	mslitmus -stress 500 -seed 1           run seeded random ARB stress programs
//	mslitmus -replay artifact.json         re-run a dumped mismatch artifact
//
// Any mismatch is a non-zero exit, and every failure report prints the
// seed that reproduces it: -stress always runs from -seed (its default
// when not given), so every run replays. -artifacts DIR dumps each
// mismatch as a self-contained JSON repro artifact.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/litmus"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list the shape catalogue and curated corpus")
		dump      = flag.String("dump", "", "print the generated source and outcomes for a corpus program `name`")
		corpus    = flag.Bool("corpus", false, "run the curated corpus across the differential config matrix")
		quick     = flag.Bool("quick", false, "with -corpus: the reduced matrix (units x policies, capacity-1 banks)")
		stressN   = flag.Int("stress", 0, "run `n` seeded random stress programs across tiny-bank configs (4,8 units x 1,2 ARB entries per bank x both overflow policies)")
		seed      = flag.Int64("seed", 0, "generation seed for -stress (and recorded in artifacts)")
		replay    = flag.String("replay", "", "replay a mismatch artifact `file`")
		artifacts = flag.String("artifacts", "", "write mismatch artifacts into `dir`")
	)
	flag.Parse()

	if *quick && !*corpus {
		fmt.Fprintln(os.Stderr, "mslitmus: -quick applies only with -corpus")
		os.Exit(2)
	}

	switch {
	case *list:
		listShapes()
	case *dump != "":
		os.Exit(dumpProgram(*dump))
	case *corpus:
		os.Exit(runCorpus(*quick, *seed, *artifacts))
	case *stressN > 0:
		os.Exit(runStress(*stressN, *seed, *artifacts))
	case *replay != "":
		os.Exit(replayArtifact(*replay))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func listShapes() {
	fmt.Println("shape families:")
	for _, name := range litmus.Shapes() {
		fmt.Printf("  %-9s %s\n", name, litmus.ShapeDoc(name))
	}
	fmt.Println("\ncurated corpus (use with -dump):")
	progs, err := litmus.Corpus()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mslitmus:", err)
		os.Exit(2)
	}
	for _, p := range progs {
		fmt.Printf("  %-18s oracle=%q\n", p.Name, p.Oracle.Out)
	}
}

func dumpProgram(name string) int {
	progs, err := litmus.Corpus()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mslitmus:", err)
		return 2
	}
	p := litmus.Find(progs, name)
	if p == nil && strings.HasPrefix(name, "rand/") {
		// rand programs are addressed by seed: rand/seed<N>, or the full
		// name the program reports, which ends in /seed<N>.
		last := name[strings.LastIndexByte(name, '/')+1:]
		digits, ok := strings.CutPrefix(last, "seed")
		if s, err := strconv.ParseInt(digits, 10, 64); ok && err == nil {
			r, err := litmus.Random(s)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mslitmus:", err)
				return 2
			}
			if name == "rand/"+last || name == r.Name {
				p = r
			}
		}
	}
	if p == nil {
		fmt.Fprintf(os.Stderr, "mslitmus: no corpus program %q (try -list)\n", name)
		return 2
	}
	fmt.Print(p.Source)
	fmt.Printf("\n; oracle output: %q (%d instructions)\n", p.Oracle.Out, p.Oracle.ICount)
	for _, out := range litmus.SortedForbidden(p.Forbidden) {
		fmt.Printf("; forbidden %-8q %s\n", out, p.Forbidden[out])
	}
	return 0
}

func runCorpus(quick bool, seed int64, artifactDir string) int {
	progs, err := litmus.Corpus()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mslitmus:", err)
		return 2
	}
	matrix := litmus.Matrix(quick)
	start := time.Now()
	mms := litmus.RunDiff(progs, matrix, seed)
	fmt.Printf("corpus: %d programs x %d configs = %d runs in %v, %d mismatches\n",
		len(progs), len(matrix), len(progs)*len(matrix), time.Since(start).Round(time.Millisecond), len(mms))
	return report(mms, seed, artifactDir)
}

func runStress(n int, seed int64, artifactDir string) int {
	rep, err := litmus.Stress(litmus.StressOpts{Seed: seed, Programs: n})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mslitmus: stress (seed %d): %v\n", seed, err)
		return 2
	}
	fmt.Print(rep)
	return report(rep.Mismatches, seed, artifactDir)
}

// report prints mismatches (each naming the seed that replays it),
// writes artifacts when requested, and picks the exit code.
func report(mms []*litmus.Mismatch, seed int64, artifactDir string) int {
	if len(mms) == 0 {
		fmt.Println("PASS")
		return 0
	}
	for i, mm := range mms {
		fmt.Fprintf(os.Stderr, "MISMATCH (seed %d): %s\n", seed, mm)
		if artifactDir == "" {
			continue
		}
		if err := os.MkdirAll(artifactDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "mslitmus:", err)
			continue
		}
		data, err := mm.Artifact.Encode()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mslitmus: encoding artifact:", err)
			continue
		}
		path := filepath.Join(artifactDir, fmt.Sprintf("mismatch-%03d-%s.json", i, sanitize(mm.Program.Name)))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mslitmus:", err)
			continue
		}
		fmt.Fprintf(os.Stderr, "  artifact: %s (replay with: mslitmus -replay %s)\n", path, path)
	}
	return 1
}

func replayArtifact(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mslitmus:", err)
		return 2
	}
	a, err := litmus.DecodeArtifact(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mslitmus:", err)
		return 2
	}
	fmt.Printf("replaying %s @ %s (seed %d)\n", a.Name, a.Entry, a.Seed)
	fmt.Printf("  recorded: %s\n", outcome(a.Divergence, a.Error))
	if a.Diagnosis != "" {
		fmt.Printf("  diagnosis: %s\n", a.Diagnosis)
	}
	r, err := a.Replay()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mslitmus:", err)
		return 2
	}
	fmt.Printf("  this run: %s\n", outcome(r.Divergence, r.Err))
	if r.Reproduced {
		fmt.Println("REPRODUCED")
		return 1
	}
	fmt.Println("did not reproduce (this run fails differently, or is judged sequential throughout)")
	return 0
}

// outcome renders a judged run's failure: its first divergence, its
// error, or that neither happened.
func outcome(d *core.DivergenceError, err string) string {
	switch {
	case d != nil:
		return d.Error()
	case err != "":
		return "error " + strconv.Quote(err)
	}
	return "sequential at every retire"
}

func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}
