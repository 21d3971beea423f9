// Quickstart: write a small annotated multiscalar program, run it on the
// oracle, the scalar baseline, and an 8-unit multiscalar processor, and
// compare. This is the minimal end-to-end tour of the public API.
package main

import (
	"fmt"
	"log"

	"multiscalar"
)

// The program sums the cubes of the first 200 integers. Each loop
// iteration is a task: the induction variable $s0 and the accumulator
// $s1 are the only values live between tasks (the create mask), both
// forwarded as soon as they are produced (!f), and the backward branch
// carries a stop bit (!s) so a task is exactly one iteration. The
// induction variable is updated first so successor tasks can start
// immediately (the paper's Section 3.2.2 advice); the multiplies of
// neighbouring iterations then overlap across units.
const src = `
main:
	li $s0, 200
	li $s1, 0
	j  loop !s
loop:
	move $t0, $s0
	addi $s0, $s0, -1 !f
	mul  $t1, $t0, $t0
	mul  $t1, $t1, $t0
	add  $s1, $s1, $t1 !f
	bnez $s0, loop !s
done:
	move $a0, $s1
	li $v0, 1          ; print_int
	syscall
	li $v0, 10         ; exit
	li $a0, 0
	syscall
	.task main targets=loop create=$s0,$s1
	.task loop targets=loop,done create=$s0,$s1
	.task done
`

func main() {
	// One source, two binaries: the scalar build strips all multiscalar
	// information.
	ms, err := multiscalar.Assemble(src, multiscalar.WithMode(multiscalar.ModeMultiscalar))
	if err != nil {
		log.Fatal(err)
	}
	sc, err := multiscalar.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	msProg, scProg := ms.Prog, sc.Prog

	// Functional oracle.
	oracle, err := multiscalar.Interpret(msProg, multiscalar.WithMaxInstrs(1<<30))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oracle:      output=%q, %d instructions\n", oracle.Out, oracle.Instructions)

	// Scalar baseline (1-way in-order, 1-cycle dcache); Run judges every
	// timing run against the oracle.
	sres, err := multiscalar.Run(scProg, multiscalar.ScalarConfig(1, false))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scalar:      %d cycles, IPC %.2f\n", sres.Cycles, sres.IPC())

	// Multiscalar with 2, 4, 8 units.
	for _, units := range []int{2, 4, 8} {
		res, err := multiscalar.Run(msProg, multiscalar.DefaultConfig(units, 1, false))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d units:     %d cycles, speedup %.2f, %d tasks, prediction %.1f%%\n",
			units, res.Cycles, res.Speedup(sres), res.TasksRetired, 100*res.PredAccuracy())
	}
}
