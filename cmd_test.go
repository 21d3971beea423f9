package multiscalar_test

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"multiscalar/internal/litmus"
)

// TestCommandLine runs the binaries whose flags depend on each other and
// holds each invocation to its exit code and output: a flag the chosen
// mode would ignore is a usage error naming the flag, a deleted flag is
// undefined, and every other flag of these binaries does its job once.
func TestCommandLine(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain to build the commands with")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/msbench", "./cmd/msas", "./cmd/mssim", "./cmd/mslitmus")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

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
	art := litmus.NewArtifact(p, e, &litmus.Mismatch{Program: p, Entry: e, Err: "a recorded failure"}, 1, nil)
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
	cases := []struct {
		bin            string
		args           []string
		code           int
		stdout, stderr string
	}{
		// A flag the chosen mode would ignore.
		{"msbench", []string{"-sections", "table1", "-sample-gate", "10"}, 2, "", "-sample-gate applies only to the sampled section"},
		{"msas", []string{"-encode", "-o", at("x.msb"), hist}, 2, "", "-encode cannot be combined with -o"},
		{"mssim", []string{"-w", "example", "-checkpoint-at", "500"}, 2, "", "-checkpoint-at applies only with -checkpoint"},
		{"mslitmus", []string{"-quick", "-stress", "2"}, 2, "", "-quick applies only with -corpus"},

		// Deleted: each was another flag's special case or unused.
		{"msbench", []string{"-table", "3"}, 2, "", undefined("table")},
		{"msbench", []string{"-breakdown"}, 2, "", undefined("breakdown")},
		{"msbench", []string{"-ablate"}, 2, "", undefined("ablate")},
		{"msbench", []string{"-annotate"}, 2, "", undefined("annotate")},
		{"msbench", []string{"-sampled"}, 2, "", undefined("sampled")},
		{"msbench", []string{"-sweep"}, 2, "", undefined("sweep")},
		{"msbench", []string{"-mix"}, 2, "", undefined("mix")},
		{"msbench", []string{"-sections", "annotate"}, 2, "", "unknown section \"annotate\""},
		{"msbench", []string{"-units", "8", "-sections", "breakdown"}, 2, "", undefined("units")},
		{"msas", []string{"-O", hist}, 2, "", undefined("O")},
		{"mslitmus", []string{"-ci", "-corpus"}, 2, "", undefined("ci")},
		{"mslitmus", []string{"-units", "4,8", "-stress", "2"}, 2, "", undefined("units")},
		{"mslitmus", []string{"-entries", "1,2", "-stress", "2"}, 2, "", undefined("entries")},

		// What the remaining flags do.
		{"msbench", []string{"-sections", "table1"}, 0, "Table 1: functional unit latencies", ""},
		{"msas", []string{"-mode", "scalar", hist}, 0, "0 tasks", ""},
		{"msas", []string{"-encode", hist}, 0, "binary encoding", ""},
		{"msas", []string{"-lint", "off", hist}, 0, "3 tasks", ""},
		{"msas", []string{"-o", at("h.msb"), hist}, 0, "wrote " + at("h.msb"), ""},
		{"mssim", []string{"-list"}, 0, "example", ""},
		{"mssim", []string{"-w", "example", "-units", "0"}, 0, "instructions:", ""},
		{"mssim", []string{"-f", at("h.msb"), "-units", "4", "-width", "2", "-ooo", "-stats", "-out"}, 0, "output: 32", ""},
		{"mssim", []string{"-w", "example", "-scale", "2", "-units", "1", "-stdin"}, 0, "cycles:", ""},
		{"mssim", []string{"-w", "example", "-units", "4", "-noskip", "-mstrc", at("run.mstrc")}, 0, "cycles:", ""},
		{"mssim", []string{"-w", "example", "-units", "4", "-checkpoint", at("snap"), "-checkpoint-at", "500"}, 0, "cycles:", ""},
		{"mssim", []string{"-w", "example", "-units", "4", "-restore", at("snap")}, 0, "taken at cycle 500", ""},
		{"mssim", []string{"-w", "example", "-sample"}, 0, "sampled:", ""},
		{"mslitmus", []string{"-list"}, 0, "shape families", ""},
		{"mslitmus", []string{"-dump", "mp/pad8/fill4"}, 0, "oracle output", ""},
		{"mslitmus", []string{"-corpus", "-quick"}, 0, "0 mismatches", ""},
		{"mslitmus", []string{"-stress", "2", "-seed", "1", "-artifacts", at("artifacts")}, 0, "stress: seed=1 programs=2", ""},
		{"mslitmus", []string{"-replay", at("artifact.json")}, 0, "did not reproduce", ""},
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

// TestCommandFlagsMatchREADME holds README.md's "Command-line surface"
// table to the flags the binaries define: one row per binary and flag,
// each naming what exercises it, and no row for a flag that is gone.
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
