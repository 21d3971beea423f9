// msas assembles a multiscalar assembly file and prints a listing: every
// instruction with its address and annotation bits, the task descriptors
// with create masks and targets, and the data segment size. With -mode
// scalar it shows the scalar build instead (annotations stripped). With
// -encode it appends each instruction's binary encoding.
//
// Multiscalar builds are checked against the annotation contract
// (docs/lint.md): hard violations reject the build with one line per
// finding, warnings are printed to stderr alongside the listing. Disable
// with -lint off.
package main

import (
	"flag"
	"fmt"
	"os"

	"multiscalar"
	"multiscalar/internal/asm"
	"multiscalar/internal/isa"
)

func main() {
	var (
		modeFlag = flag.String("mode", "multiscalar", "build mode: scalar or multiscalar")
		encode   = flag.Bool("encode", false, "also print the binary encoding of each instruction")
		out      = flag.String("o", "", "write a binary container (.msb) instead of a listing")
		lintFlag = flag.String("lint", "on", "annotation-contract check: on (reject errors, print warnings) or off")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: msas [-mode scalar|multiscalar] [-lint on|off] [-encode | -o out.msb] file.s")
		os.Exit(2)
	}
	if *encode && *out != "" {
		fmt.Fprintln(os.Stderr, "msas: -encode cannot be combined with -o (the binary container carries no listing)")
		os.Exit(2)
	}
	if *lintFlag != "on" && *lintFlag != "off" {
		fmt.Fprintln(os.Stderr, "msas: -lint must be on or off")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	opts := []multiscalar.AssembleOption{}
	if *modeFlag != "scalar" {
		opts = append(opts, multiscalar.WithMode(multiscalar.ModeMultiscalar))
	}
	if *lintFlag == "off" {
		opts = append(opts, multiscalar.WithoutLint())
	}
	res, err := multiscalar.Assemble(string(src), opts...)
	if err != nil {
		// A lint rejection still carries the full report; show every
		// finding, not just the folded error.
		if res != nil && res.Lint != nil {
			for _, d := range res.Lint.Diags {
				fmt.Fprintf(os.Stderr, "msas: %s: %s\n", flag.Arg(0), d.String())
			}
			os.Exit(1)
		}
		fatal(err)
	}
	p := res.Prog
	if res.Lint != nil {
		for _, d := range res.Lint.Warnings() {
			fmt.Fprintf(os.Stderr, "msas: %s: warning: %s\n", flag.Arg(0), d.String())
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := isa.WriteProgram(f, p); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d instructions, %d tasks\n", *out, len(p.Text), len(p.Tasks))
		return
	}
	fmt.Print(asm.Listing(p))
	if *encode {
		fmt.Printf("\n; binary encoding (%d bytes/instruction)\n", isa.EncodedSize)
		for i := range p.Text {
			addr := isa.TextBase + uint32(i)*isa.InstrSize
			fmt.Printf("  0x%04x  % x\n", addr, p.Text[i].Encode(nil))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msas:", err)
	os.Exit(1)
}
