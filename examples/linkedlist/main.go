// Linkedlist runs the paper's running example (Figures 2-4): the symbol
// buffer / linked-list search program of Figure 3, annotated in the style
// of Figure 4. It prints the task structure (descriptor, create mask,
// forward and stop bits) of the actual binary, then measures the scalar
// baseline against multiscalar configurations — reproducing the paper's
// claim that this loop, which a superscalar cannot parallelize, speeds up
// on a multiscalar processor.
package main

import (
	"fmt"
	"log"

	"multiscalar"
	"multiscalar/internal/isa"
)

func main() {
	w := multiscalar.GetWorkload("example")
	prog, err := w.Build(multiscalar.ModeMultiscalar, 100)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Task structure (compare with Figure 4 of the paper) ==")
	for _, td := range prog.TaskList() {
		fmt.Printf("task %-14s entry=0x%04x create=%v targets=%v\n",
			td.Name, td.Entry, td.Create, td.Targets)
	}
	fmt.Println("\nannotated instructions of the OUTER task:")
	outer := prog.TaskAt(mustSym(prog, "OUTER"))
	for addr := outer.Entry; ; addr += isa.InstrSize {
		in := prog.InstrAt(addr)
		if in == nil {
			break
		}
		if in.Fwd || in.Stop != isa.StopNone {
			fmt.Printf("  0x%04x  %s\n", addr, in)
		}
		if in.Stop == isa.StopAlways && addr > outer.Entry {
			break
		}
	}

	scProg, err := w.Build(multiscalar.ModeScalar, 100)
	if err != nil {
		log.Fatal(err)
	}
	sres, err := multiscalar.Run(scProg, multiscalar.ScalarConfig(1, false))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nscalar baseline: %d cycles (IPC %.2f)\n", sres.Cycles, sres.IPC())
	for _, units := range []int{4, 8} {
		res, err := multiscalar.Run(prog, multiscalar.DefaultConfig(units, 1, false))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d units: %d cycles, speedup %.2f, prediction %.1f%%, squashes ctl=%d mem=%d\n",
			units, res.Cycles, res.Speedup(sres), 100*res.PredAccuracy(),
			res.CtlSquashes, res.MemSquashes)
	}
	fmt.Println("\nNote the memory-order squashes: two concurrent searches of the same")
	fmt.Println("symbol conflict through process()'s counter update, exactly the")
	fmt.Println("scenario Section 2.3 walks through.")
}

func mustSym(p *multiscalar.Program, name string) uint32 {
	a, ok := p.Symbol(name)
	if !ok {
		log.Fatalf("symbol %s missing", name)
	}
	return a
}
