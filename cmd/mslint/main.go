// mslint statically verifies the multiscalar annotation contract of a
// program: create-mask soundness, forward/release coverage, forward-bit
// placement, and stop/exit structure (see docs/lint.md for the full rule
// set). It accepts annotated assembly (.s) or a binary container (.msb)
// and prints one finding per line, or a JSON report with -json. The exit
// status is 0 when the program is clean or carries only warnings, 1 on
// hard errors, 2 on usage or input errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"multiscalar/internal/asm"
	"multiscalar/internal/isa"
	"multiscalar/internal/mslint"
)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "print the report as JSON")
		quiet   = flag.Bool("q", false, "suppress warnings; print errors only")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mslint [-json] [-q] file.s|file.msb")
		os.Exit(2)
	}
	path := flag.Arg(0)

	var (
		prog  *isa.Program
		lines map[uint32]int
	)
	if strings.HasSuffix(path, ".msb") {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		p, err := isa.ReadProgram(f)
		if err != nil {
			fatal(fmt.Errorf("%s: %v", path, err))
		}
		prog = p
	} else {
		src, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		// Assemble without the built-in lint gate: this tool IS the gate,
		// and it wants to report every finding rather than stop at the
		// first rejection.
		res, err := asm.AssembleOpts(string(src), asm.Options{Mode: asm.ModeMultiscalar, NoLint: true})
		if err != nil {
			fatal(err)
		}
		prog, lines = res.Prog, res.Lines
	}

	rep := mslint.Lint(prog, lines)
	if *jsonOut {
		out, err := rep.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", out)
	} else {
		for _, d := range rep.Diags {
			if *quiet && d.Severity != mslint.SevError {
				continue
			}
			fmt.Printf("%s: %s\n", path, d.String())
		}
		errs, warns := len(rep.Errors()), len(rep.Warnings())
		if errs+warns > 0 {
			fmt.Printf("%s: %d error(s), %d warning(s)\n", path, errs, warns)
		}
	}
	if rep.HasErrors() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mslint:", err)
	os.Exit(2)
}
