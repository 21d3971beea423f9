// Customtask demonstrates the automatic task partitioner: the program
// below carries no annotations at all — no task descriptors, no forward
// or stop bits. Partition() builds the CFG, finds the loops, forms tasks,
// computes create masks trimmed by dead-register analysis, and places the
// tag bits; the program then runs on a multiscalar processor.
package main

import (
	"fmt"
	"log"

	"multiscalar"
)

// An un-annotated program: dot product of two vectors, then a scaling
// function applied per element through a function call.
const src = `
	.data
va:	.space 800
vb:	.space 800
	.text
main:
	; initialize both vectors
	li  $t0, 0
init:
	sll $t1, $t0, 2
	addi $t2, $t0, 3
	sw  $t2, va($t1)
	addi $t3, $t0, 7
	sw  $t3, vb($t1)
	addi $t0, $t0, 1
	slt $at, $t0, 200
	bnez $at, init

	; dot product
	li  $t0, 0
	li  $s1, 0
dot:
	sll $t1, $t0, 2
	lw  $t2, va($t1)
	lw  $t3, vb($t1)
	mul $t4, $t2, $t3
	add $s1, $s1, $t4
	addi $t0, $t0, 1
	slt $at, $t0, 200
	bnez $at, dot

	move $a0, $s1
	jal  scale
	move $a0, $v0
	li $v0, 1
	syscall
	li $v0, 10
	li $a0, 0
	syscall

scale:
	sra $v0, $a0, 4
	jr  $ra
`

func main() {
	res, err := multiscalar.Assemble(src, multiscalar.WithMode(multiscalar.ModeMultiscalar))
	if err != nil {
		log.Fatal(err)
	}
	prog := res.Prog
	if len(prog.Tasks) != 0 {
		log.Fatal("expected an un-annotated program")
	}

	// The partitioner plays the role of the paper's modified GCC.
	if err := multiscalar.Partition(prog, multiscalar.PartitionOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioner produced %d tasks:\n", len(prog.Tasks))
	for _, td := range prog.TaskList() {
		fmt.Printf("  %-12s entry=0x%04x create=%v targets=%d\n",
			td.Name, td.Entry, td.Create, len(td.Targets))
	}

	// The scalar baseline runs the plain build (no tag bits).
	sc, err := multiscalar.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	sres, err := multiscalar.Run(sc.Prog, multiscalar.ScalarConfig(1, false))
	if err != nil {
		log.Fatal(err)
	}
	mres, err := multiscalar.Run(prog, multiscalar.DefaultConfig(8, 1, false))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nscalar: %d cycles; 8 units: %d cycles (speedup %.2f)\n",
		sres.Cycles, mres.Cycles, mres.Speedup(sres))
	fmt.Printf("output: %s\n", mres.Out)
}
