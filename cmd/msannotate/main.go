// msannotate runs the flow-sensitive annotation optimizer over an
// annotated assembly file: it computes the minimal sound create mask of
// every task, moves forward bits to last updates, removes dead sends,
// and inserts releases on flush-only paths (docs/annotate.md). The
// rewritten source is re-assembled under the annotation-contract lint
// gate and verified against the functional interpreter — identical
// output bytes and exit code — before anything is written.
//
// By default the optimized source goes to stdout and the per-task plan
// to stderr. -w rewrites the file in place, -o names an output file, -q
// silences the plan, and -plan prints only the plan (with -w, -o or -q
// it is a usage error). This is the optimizer's one command: to assemble
// the result, run msas on its output. The exit status is 0 on success
// (including "nothing to change"), 1 on any error, 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"os"

	"multiscalar"
)

func main() {
	var (
		inPlace  = flag.Bool("w", false, "rewrite the input file in place")
		out      = flag.String("o", "", "write the optimized source to this file")
		planOnly = flag.Bool("plan", false, "print the per-task plan without rewriting")
		quiet    = flag.Bool("q", false, "suppress the plan summary on stderr")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: msannotate [-w | -o out.s | -plan] [-q] file.s")
		os.Exit(2)
	}
	if *inPlace && *out != "" {
		fmt.Fprintln(os.Stderr, "msannotate: -w and -o are mutually exclusive")
		os.Exit(2)
	}
	// -plan writes nothing and prints only the plan: a flag that picks an
	// output or silences the plan would be ignored.
	given := map[string]bool{"w": *inPlace, "o": *out != "", "q": *quiet}
	for _, name := range []string{"w", "o", "q"} {
		if *planOnly && given[name] {
			fmt.Fprintf(os.Stderr, "msannotate: -plan cannot be combined with -%s\n", name)
			os.Exit(2)
		}
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	newSrc, plan, err := multiscalar.OptimizeSource(string(src))
	if err != nil {
		fatal(err)
	}
	if *planOnly {
		fmt.Print(plan.String())
		return
	}
	if !*quiet {
		fmt.Fprint(os.Stderr, plan.String())
		if n := plan.DroppedSends(); n > 0 {
			fmt.Fprintf(os.Stderr, "%d ring send(s) eliminated per full task round\n", n)
		}
	}
	switch {
	case *inPlace:
		if newSrc == string(src) {
			return
		}
		info, err := os.Stat(path)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, []byte(newSrc), info.Mode().Perm()); err != nil {
			fatal(err)
		}
	case *out != "":
		if err := os.WriteFile(*out, []byte(newSrc), 0o644); err != nil {
			fatal(err)
		}
	default:
		fmt.Print(newSrc)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msannotate:", err)
	os.Exit(1)
}
