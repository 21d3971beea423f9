package taskpart

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/cfg"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/mslint"
	"multiscalar/internal/workloads"
)

// eachWorkloadPartition partitions every suite workload's scalar build
// (no hand annotations) in both suppression modes and hands each result
// to fn under the name testdata/partition_hashes.txt lists it by.
func eachWorkloadPartition(t *testing.T, fn func(name string, p *isa.Program, part *Partition)) {
	t.Helper()
	for _, w := range workloads.All() {
		for _, mode := range []string{"default", "suppress-all"} {
			p, err := w.Build(asm.ModeScalar, w.TestScale)
			if err != nil {
				t.Fatal(err)
			}
			part, err := Run(p, Options{SuppressAllCalls: mode == "suppress-all"})
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, mode, err)
			}
			fn(w.Name+" "+mode, p, part)
		}
	}
}

// TestPartitionsPinned holds the bytes of the 20 workload partitions to
// the recording: a change to what a task is (the cfg walk, its flow
// passes) or to where the partitioner cuts shows up here as a named
// partition, not as a cycle count somewhere downstream.
func TestPartitionsPinned(t *testing.T) {
	f, err := os.Open("testdata/partition_hashes.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			i := strings.LastIndexByte(line, ' ')
			want[line[:i]] = line[i+1:]
		}
	}
	tasks := 0
	eachWorkloadPartition(t, func(name string, p *isa.Program, part *Partition) {
		tasks += len(part.Tasks)
		var buf bytes.Buffer
		if err := isa.WriteProgram(&buf, p); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want[name] {
			t.Errorf("%s: partition hashes to %s, recorded %s", name, got, want[name])
		}
		delete(want, name)
	})
	if len(want) != 0 || tasks != 136 {
		t.Errorf("%d tasks (recorded 136), recorded partitions not produced: %v", tasks, want)
	}
}

// TestDescriptorMatchesRegion: what the partitioner writes in a
// descriptor is what the shared walk finds in the program it tagged —
// the targets are exactly the region's exits, the create mask holds
// nothing the region does not write, the walk has nothing to object to —
// and the partition lints clean and commits the oracle's run on 4 and 8
// units, forwarding no stale value.
func TestDescriptorMatchesRegion(t *testing.T) {
	eachWorkloadPartition(t, func(name string, p *isa.Program, part *Partition) {
		g := cfg.Build(p)
		g.Analyze()
		for _, ti := range part.Tasks {
			td := ti.Desc
			r := g.TaskRegion(td)
			exits := map[uint32]bool{}
			for _, e := range r.Exits {
				exits[e.Target] = true
			}
			same := len(exits) == len(td.Targets)
			for _, tgt := range td.Targets {
				same = same && exits[tgt]
			}
			if !same {
				t.Errorf("%s: task %s targets %v, its region exits to %v", name, td.Name, td.Targets, exits)
			}
			if extra := td.Create.Minus(r.Defs()); !extra.Empty() {
				t.Errorf("%s: task %s creates %v, which its region never writes", name, td.Name, extra)
			}
			if len(r.Problems) != 0 {
				t.Errorf("%s: task %s: region problems %+v", name, td.Name, r.Problems)
			}
		}
		if rep := mslint.Lint(p, nil); rep.Err() != nil {
			t.Errorf("%s: %v", name, rep.Err())
		}

		env := interp.NewSysEnv()
		om := interp.NewMachine(p, env)
		if err := om.Run(100_000_000); err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		for _, units := range []int{4, 8} {
			c := core.DefaultConfig(units, 2, true)
			m, err := core.NewMultiscalar(p, interp.NewSysEnv(), c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("%s on %d units: %v", name, units, err)
			}
			if res.Out != env.Out.String() || res.Committed != om.ICount {
				t.Errorf("%s on %d units: committed %d instructions with output %q, oracle %d with %q",
					name, units, res.Committed, res.Out, om.ICount, env.Out.String())
			}
		}
	})
}

// TestRegisterReadAfterReturn: FN leaves $t5 for its caller, and the
// continuation adds it in (615 on the oracle). No calling convention
// keeps $t5 live after a return; the continuation does. The loop after
// the write makes FN two tasks, so the first one's mask depends on what
// is live at the loop header, which global liveness takes from what is
// live after FN's return.
func TestRegisterReadAfterReturn(t *testing.T) {
	p := assembleRaw(t, `
main:
	li   $s0, 6
	li   $s1, 0
CALL:
	move $a0, $s0
	jal  FN
	add  $s1, $s1, $v0
	add  $s1, $s1, $t5
	addi $s0, $s0, -1
	bnez $s0, CALL
	move $a0, $s1
	li   $v0, 1
	syscall
	li   $v0, 10
	li   $a0, 0
	syscall
FN:
	sll  $t0, $a0, 3
	sll  $t1, $a0, 1
	add  $t0, $t0, $t1
	addi $v0, $t0, 50
	sll  $t5, $a0, 2
	add  $t5, $t5, $a0
	li   $t2, 3
FWAIT:
	addi $t2, $t2, -1
	bnez $t2, FWAIT
	jr   $ra
`)
	if _, err := Run(p, Options{}); err != nil {
		t.Fatal(err)
	}
	if fn, _ := p.Symbol("FN"); !p.TaskAt(fn).Create.Has(isa.RegT0 + 5) {
		t.Errorf("FN create = %v", p.TaskAt(fn).Create)
	}
	om := interp.NewMachine(p, interp.NewSysEnv())
	if err := om.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	for _, units := range []int{4, 8} {
		c := core.DefaultConfig(units, 1, false)
		m, err := core.NewMultiscalar(p, interp.NewSysEnv(), c)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := m.Run(); err != nil || res.Out != "615" || res.Committed != om.ICount {
			t.Errorf("%d units ran to %+v, %v; the oracle prints 615 after %d instructions", units, res, err, om.ICount)
		}
	}
}

// TestIndirectCallIsConservative: what a jalr's callee writes is not
// known to the walk, so a task holding one forwards nothing early and
// creates everything live out of it; the flush sends the final values.
func TestIndirectCallIsConservative(t *testing.T) {
	const src = `
main:
	li   $s1, 1
	la   $t0, bump
	jalr $t0
	li   $s0, 3
loop:
	add  $s1, $s1, $s0
	addi $s0, $s0, -1
	bnez $s0, loop
	jal  bump
	move $a0, $s1
	li   $v0, 1
	syscall
	li   $v0, 10
	li   $a0, 0
	syscall
bump:
	addi $s1, $s1, 5
	jr   $ra
`
	if _, err := Run(assembleRaw(t, src), Options{}); err == nil {
		t.Error("an indirect call partitioned without SuppressAllCalls")
	}
	p := assembleRaw(t, src)
	if _, err := Run(p, Options{SuppressAllCalls: true}); err != nil {
		t.Fatal(err)
	}
	if p.InstrAt(p.Entry).Fwd {
		t.Error("$s1 forwarded ahead of an indirect call that rewrites it")
	}
	if td := p.TaskAt(p.Entry); !td.Create.Has(isa.RegS0 + 1) {
		t.Errorf("create = %v", td.Create)
	}
	c := core.DefaultConfig(4, 2, true)
	m, err := core.NewMultiscalar(p, interp.NewSysEnv(), c)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m.Run(); err != nil || res.Out != "17" { // 1 + 5 + 5 + 3 + 2 + 1
		t.Errorf("ran to %v, %v", res, err)
	}
}
