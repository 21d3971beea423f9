package multiscalar_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"multiscalar/internal/litmus"
	"multiscalar/internal/serve"
)

// TestCommandLine runs the binaries whose flags depend on each other and
// holds each invocation to its exit code and output: a flag the chosen
// mode would ignore is a usage error naming the flag, a deleted flag is
// undefined, and every other flag of these binaries does its job once.
// Each example program runs to its speedup report.
func TestCommandLine(t *testing.T) {
	t.Parallel()
	bin := commands(t)
	tmp := t.TempDir()
	at := func(name string) string { return filepath.Join(tmp, name) }
	const hist = "testdata/histogram.s"
	// An artifact recording a failure the machine does not have: the
	// replay runs it judged again and finds nothing to reproduce.
	p, err := litmus.Generate(litmus.Params{Shape: "xviol"})
	if err != nil {
		t.Fatal(err)
	}
	e := litmus.MatrixEntry{Units: 4, Entries: 1}
	art := litmus.NewArtifact(p, e, &litmus.Mismatch{Program: p, Entry: e, Err: "a recorded failure"}, 1)
	data, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(at("artifact.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	undefined := func(flag string) string { return "flag provided but not defined: -" + flag }
	// stdout and stderr are substrings the stream must contain; an empty
	// stderr means nothing may be printed there. Cases run in order: a
	// later one may read what an earlier one wrote.
	type cliCase struct {
		bin            string
		args           []string
		code           int
		stdout, stderr string
	}
	cases := []cliCase{
		// A flag the chosen mode would ignore.
		{"msbench", []string{"-sections", "table1", "-sample-gate", "10"}, 2, "", "-sample-gate applies only to the sampled section"},
		{"msas", []string{"-encode", "-o", at("x.msb"), hist}, 2, "", "-encode cannot be combined with -o"},
		{"mslitmus", []string{"-quick", "-stress", "2"}, 2, "", "-quick applies only with -corpus"},

		// Deleted: each was another flag's special case or unused.
		{"msbench", []string{"-table", "3"}, 2, "", undefined("table")},
		{"msbench", []string{"-breakdown"}, 2, "", undefined("breakdown")},
		{"msbench", []string{"-ablate"}, 2, "", undefined("ablate")},
		{"msbench", []string{"-annotate"}, 2, "", undefined("annotate")},
		{"msbench", []string{"-sampled"}, 2, "", undefined("sampled")},
		{"msbench", []string{"-sweep"}, 2, "", undefined("sweep")},
		{"msbench", []string{"-mix"}, 2, "", undefined("mix")},
		{"mssim", []string{"-w", "example", "-checkpoint", at("snap")}, 2, "", undefined("checkpoint")},
		{"mssim", []string{"-w", "example", "-checkpoint-at", "500"}, 2, "", undefined("checkpoint-at")},
		{"mssim", []string{"-w", "example", "-restore", at("snap")}, 2, "", undefined("restore")},
		{"mssim", []string{"-w", "example", "-noskip"}, 2, "", undefined("noskip")},
		{"msbench", []string{"-all", "-noskip"}, 2, "", undefined("noskip")},
		{"msbench", []string{"-sections", "annotate"}, 2, "", "unknown section \"annotate\""},
		{"msbench", []string{"-units", "8", "-sections", "breakdown"}, 2, "", undefined("units")},
		{"msas", []string{"-O", hist}, 2, "", undefined("O")},
		{"mslitmus", []string{"-ci", "-corpus"}, 2, "", undefined("ci")},
		{"mslitmus", []string{"-units", "4,8", "-stress", "2"}, 2, "", undefined("units")},
		{"mslitmus", []string{"-entries", "1,2", "-stress", "2"}, 2, "", undefined("entries")},

		// What the remaining flags do.
		{"msbench", []string{"-sections", "table1"}, 0, "Table 1: functional unit latencies", ""},
		{"msbench", []string{"-sections", "table3", "-quick", "-par", "1"}, 0, "Table 3: in-order 1-way issue units", ""},
		{"msas", []string{"-mode", "scalar", hist}, 0, "0 tasks", ""},
		{"msas", []string{"-encode", hist}, 0, "binary encoding", ""},
		{"msas", []string{"-lint", "off", hist}, 0, "3 tasks", ""},
		{"msas", []string{"-o", at("h.msb"), hist}, 0, "wrote " + at("h.msb"), ""},
		{"mssim", []string{"-list"}, 0, "example", ""},
		{"mssim", []string{"-w", "example", "-units", "0"}, 0, "instructions:", ""},
		{"mssim", []string{"-f", at("h.msb"), "-units", "4", "-width", "2", "-ooo", "-stats", "-out"}, 0, "output: 32", ""},
		{"mssim", []string{"-w", "example", "-scale", "2", "-units", "1", "-stdin"}, 0, "cycles:", ""},
		{"mssim", []string{"-w", "example", "-scale", "2", "-units", "4", "-mstrc", at("run.mstrc")}, 0, "cycles:", ""},
		{"mssim", []string{"-w", "example", "-sample"}, 0, "sampled:", ""},
		{"mslitmus", []string{"-list"}, 0, "shape families", ""},
		{"mslitmus", []string{"-dump", "mp/pad8/fill4"}, 0, "oracle output", ""},
		{"mslitmus", []string{"-dump", "rand/pad4/fill0/n4/seed5"}, 0, "oracle output", ""},
		{"mslitmus", []string{"-dump", "rand/pad8/fill0/n4/seed5"}, 2, "", `no corpus program "rand/pad8/fill0/n4/seed5"`},
		{"mslitmus", []string{"-corpus", "-quick"}, 0, "0 mismatches", ""},
		{"mslitmus", []string{"-stress", "2", "-seed", "1", "-artifacts", at("artifacts")}, 0, "stress: seed=1 programs=2", ""},
		{"mslitmus", []string{"-replay", at("artifact.json")}, 0, "did not reproduce", ""},
		{"mstasks", []string{"-suppress", "init", "testdata/unannotated.s"}, 1, "", `suppressed function "init" is not the target of any jal`},
		{"mstasks", []string{"-suppress-all", "testdata/unannotated.s"}, 0, "tasks:", ""},

		// The views of the trace the mssim -mstrc row recorded.
		{"mstrace", []string{"-i", at("run.mstrc"), "-cycles"}, 0, "head=0 active=0 [....]", ""},
		{"mstrace", []string{"-i", at("run.mstrc"), "-metrics"}, 0, "example: 4 units", ""},
		{"mstrace", []string{"-i", at("run.mstrc"), "-events"}, 0, "desc-miss", ""},
		{"mstrace", []string{"-i", at("run.mstrc"), "-perfetto", at("trace.json")}, 0, "", "wrote " + at("trace.json")},

		// The examples drive the facade end to end.
		{"quickstart", nil, 0, "speedup", ""},
		{"linkedlist", nil, 0, "speedup", ""},
		{"stencil", nil, 0, "speedup", ""},
		{"customtask", nil, 0, "speedup", ""},
	}
	// Every example program is clean in each of mslint's three views.
	srcs, err := filepath.Glob("testdata/*.s")
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no testdata/*.s: %v", err)
	}
	for _, src := range srcs {
		cases = append(cases,
			cliCase{"mslint", []string{src}, 0, "", ""},
			cliCase{"mslint", []string{"-q", src}, 0, "", ""},
			cliCase{"mslint", []string{"-json", src}, 0, `"diags": null`, ""})
	}
	for _, c := range cases {
		name := c.bin + " " + strings.Join(c.args, " ")
		cmd := exec.Command(filepath.Join(bin, c.bin), c.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\nstderr: %s", name, code, c.code, stderr.String())
		}
		if !strings.Contains(stdout.String(), c.stdout) {
			t.Errorf("%s: stdout lacks %q:\n%s", name, c.stdout, stdout.String())
		}
		if c.stderr == "" && stderr.Len() > 0 || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%s: stderr %q, want %q", name, stderr.String(), c.stderr)
		}
	}
}

var (
	commandsOnce sync.Once
	commandsDir  string
	commandsErr  error
)

// commands builds every binary under cmd/ and examples/ in one go build,
// once per test binary, and returns the directory holding them (TestMain
// removes it).
func commands(t *testing.T) string {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain to build the commands with")
	}
	commandsOnce.Do(func() {
		if commandsDir, commandsErr = os.MkdirTemp("", "multiscalar-cmd"); commandsErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", commandsDir+string(filepath.Separator), "./cmd/...", "./examples/...").CombinedOutput()
		if err != nil {
			commandsErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if commandsErr != nil {
		t.Fatal(commandsErr)
	}
	return commandsDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if commandsDir != "" {
		os.RemoveAll(commandsDir)
	}
	os.Exit(code)
}

// TestServeAnswersFromSpillAfterRestart runs the built msserve with all
// five of its flags. A preset job submitted twice executes once and is
// answered the second time from memory, with the first answer's bytes
// but for the cached flag; a second daemon over the same -spill
// directory answers it from disk with those bytes again.
func TestServeAnswersFromSpillAfterRestart(t *testing.T) {
	t.Parallel()
	bin := commands(t)
	spill := t.TempDir()
	client := &http.Client{Timeout: time.Minute}
	get := func(url string) []byte {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v\n%s", url, resp.StatusCode, err, data)
		}
		return data
	}
	// start runs a daemon on a port of its own choosing and returns its
	// base URL, read from the line it prints once bound, and a stop that
	// kills it and waits for its exit (run again at cleanup, where it
	// finds nothing left to stop).
	start := func() (string, func()) {
		cmd := exec.Command(filepath.Join(bin, "msserve"), "-addr", "127.0.0.1:0", "-spill", spill,
			"-cache", "64", "-workers", "2", "-per-client", "1")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		stop := func() {
			cmd.Process.Kill()
			cmd.Wait()
		}
		t.Cleanup(stop)
		line, _ := bufio.NewReader(stderr).ReadString('\n')
		addr, ok := strings.CutPrefix(line, "msserve: listening on ")
		if !ok {
			t.Fatalf("msserve -addr 127.0.0.1:0 did not say where it listens: %q", line)
		}
		addr, _, _ = strings.Cut(addr, " ")
		return "http://" + addr, stop
	}
	submit := func(base string) []byte {
		const job = `{"client": "test", "job": {"workload": "example", "scale": -1, "preset": {"units": 2}}}`
		resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(job))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/jobs: %d %v\n%s", resp.StatusCode, err, data)
		}
		return data
	}
	metrics := func(base string) serve.Metrics {
		var m serve.Metrics
		if err := json.Unmarshal(get(base+"/v1/metrics"), &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	// sameAnswer holds a cached answer to the executed one's bytes.
	sameAnswer := func(what string, cached, executed []byte) {
		t.Helper()
		if !bytes.Contains(executed, []byte(`"cached":false,`)) {
			t.Fatalf("first answer is not an execution:\n%s", executed)
		}
		if !bytes.Contains(cached, []byte(`"cached":true,`)) {
			t.Errorf("%s answer is not from the cache:\n%s", what, cached)
		}
		if !bytes.Equal(bytes.Replace(cached, []byte(`"cached":true,`), []byte(`"cached":false,`), 1), executed) {
			t.Errorf("%s answer differs from the executed one but for the cached flag:\n%s\n%s", what, cached, executed)
		}
	}

	base, stop := start()
	first, second := submit(base), submit(base)
	sameAnswer("repeated", second, first)
	if m := metrics(base); m.Executed != 1 || m.CacheHits != 1 || m.Spilled != 1 {
		t.Errorf("after a repeat: executed %d, cache hits %d, spilled %d; want 1, 1, 1", m.Executed, m.CacheHits, m.Spilled)
	}

	stop()
	base, _ = start()
	sameAnswer("restarted", submit(base), first)
	if m := metrics(base); m.Executed != 0 || m.DiskHits != 1 {
		t.Errorf("after a restart: executed %d, disk hits %d; want 0, 1", m.Executed, m.DiskHits)
	}
}

// TestCommandFlagsMatchREADME holds README.md's "Command-line surface"
// table to the flags the binaries define: one row per binary and flag,
// each naming what exercises it, and no row for a flag that is gone.
// What a row names must exist: a backquoted Test function in the tree, a
// CI job › step in ci.yml, a ledger workload in BENCHMARK.json.
func TestCommandFlagsMatchREADME(t *testing.T) {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go: %v", err)
	}
	defined := map[string]bool{} // "binary -flag"
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bin := filepath.Base(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				defined[bin+" -"+name] = true
			}
			return true
		})
	}

	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, doc, ok := strings.Cut(string(raw), "\n## Command-line surface\n")
	if !ok {
		t.Fatal("README.md has no Command-line surface section")
	}
	doc, _, _ = strings.Cut(doc, "\n## ")
	exercisers := loadExercisers(t)
	rows := map[string]bool{}
	for _, line := range strings.Split(doc, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) < 5 || !strings.HasPrefix(strings.TrimSpace(cols[1]), "`") {
			continue
		}
		key := strings.Trim(strings.TrimSpace(cols[1]), "`") + " " + strings.Trim(strings.TrimSpace(cols[2]), "`")
		switch {
		case rows[key]:
			t.Errorf("README.md lists %s twice", key)
		case !defined[key]:
			t.Errorf("README.md lists %s, which no cmd/*/main.go defines", key)
		case strings.TrimSpace(cols[3]) == "":
			t.Errorf("README.md names nothing that exercises %s", key)
		}
		for _, item := range strings.Split(cols[3], ";") {
			if err := exercisers.resolve(strings.TrimSpace(item)); err != nil {
				t.Errorf("README.md's row for %s: %v", key, err)
			}
		}
		rows[key] = true
	}
	var missing []string
	for key := range defined {
		if !rows[key] {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("README.md's Command-line surface has no row for %s", key)
	}
}

// exercisers is what a README flag row may name: the tree's test
// functions, ci.yml's steps by job, and the ledger's workloads.
type exercisers struct {
	tests     map[string]bool
	steps     map[string][]string // job -> step names
	workloads map[string]bool
}

func loadExercisers(t *testing.T) *exercisers {
	ex := &exercisers{tests: map[string]bool{}, steps: map[string][]string{}, workloads: map[string]bool{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				ex.tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	job := ""
	for _, line := range strings.Split(string(ci), "\n") {
		if m := ciJob.FindStringSubmatch(line); m != nil {
			job = m[1]
			ex.steps[job] = nil
		} else if m := ciStep.FindStringSubmatch(line); m != nil && job != "" {
			ex.steps[job] = append(ex.steps[job], m[1])
		}
	}

	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		ex.workloads[w.Name] = true
	}
	return ex
}

var (
	// ciJob and ciStep capture a job id under ci.yml's jobs: and a step's
	// name.
	ciJob  = regexp.MustCompile(`^  ([A-Za-z0-9_-]+):\s*$`)
	ciStep = regexp.MustCompile(`^      - name: (.+?)\s*$`)
	// backquoted captures a code span's text.
	backquoted = regexp.MustCompile("`([^`]+)`")
)

// resolve checks one ;-separated item of an "exercised by" cell: a
// CI job › step (a leading part of the step's name), a ledger `workload`,
// or an item naming at least one `TestX`, every backquoted Test name
// being a test function of the tree.
func (ex *exercisers) resolve(item string) error {
	switch {
	case strings.HasPrefix(item, "CI "):
		jobPart, step, hasStep := strings.Cut(strings.TrimPrefix(item, "CI "), " › ")
		job := strings.Fields(jobPart)[0]
		steps, ok := ex.steps[job]
		if !ok {
			return fmt.Errorf("CI job %q is not in ci.yml", job)
		}
		if hasStep && !slices.ContainsFunc(steps, func(s string) bool { return strings.HasPrefix(s, step) }) {
			return fmt.Errorf("CI job %s has no step %q", job, step)
		}
		return nil
	case strings.HasPrefix(item, "ledger "):
		m := backquoted.FindStringSubmatch(item)
		if m == nil || !ex.workloads[m[1]] {
			return fmt.Errorf("%q names no workload of BENCHMARK.json", item)
		}
		return nil
	}
	named := false
	for _, m := range backquoted.FindAllStringSubmatch(item, -1) {
		if !strings.HasPrefix(m[1], "Test") {
			continue
		}
		if !ex.tests[m[1]] {
			return fmt.Errorf("%s is not a test function in the tree", m[1])
		}
		named = true
	}
	if !named {
		return fmt.Errorf("%q names no test, CI step or ledger workload", item)
	}
	return nil
}
