package workloads_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/job"
	"multiscalar/internal/workloads"
)

// ledgerBuilds are the programs the benchmark ledger's workloads build:
// exact_wide's six, exact_narrow's three in both modes, and
// sampled_long's two.
var ledgerBuilds = []struct {
	name  string
	scale int
	modes []asm.Mode
}{
	{"example", 3600, []asm.Mode{asm.ModeMultiscalar}},
	{"example", 7200, []asm.Mode{asm.ModeScalar, asm.ModeMultiscalar}},
	{"example", 14400, []asm.Mode{asm.ModeMultiscalar}},
	{"compress", 48000, []asm.Mode{asm.ModeMultiscalar}},
	{"compress", 192000, []asm.Mode{asm.ModeScalar, asm.ModeMultiscalar}},
	{"gcc", 51200, []asm.Mode{asm.ModeMultiscalar}},
	{"xlisp", 3840, []asm.Mode{asm.ModeMultiscalar}},
	{"tomcatv", 192, []asm.Mode{asm.ModeMultiscalar}},
	{"tomcatv", 384, []asm.Mode{asm.ModeScalar, asm.ModeMultiscalar}},
	{"wc", 8192, []asm.Mode{asm.ModeMultiscalar}},
	{"wc", 32768, []asm.Mode{asm.ModeMultiscalar}},
}

// buildHashes renders one "<workload>@<scale> source <sha256>" line per
// workload at its test and default scales and at every ledger scale,
// then one "<workload>@<scale> <mode> <program hash>" line per ledger
// build. Each workload is generated and built on its own goroutine.
func buildHashes(t *testing.T) string {
	t.Helper()
	names := workloads.Names()
	parts := make([]string, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := workloads.Get(name)
			scales := []int{w.TestScale, w.DefaultScale}
			for _, lb := range ledgerBuilds {
				if lb.name == name {
					scales = append(scales, lb.scale)
				}
			}
			slices.Sort(scales)
			var b strings.Builder
			for _, scale := range slices.Compact(scales) {
				fmt.Fprintf(&b, "%s@%d source %x\n", name, scale, sha256.Sum256([]byte(w.Source(scale))))
			}
			for _, lb := range ledgerBuilds {
				if lb.name != name {
					continue
				}
				for _, mode := range lb.modes {
					p, err := w.Build(mode, lb.scale)
					if err != nil {
						t.Error(err)
						return
					}
					h, err := job.ProgramHash(p)
					if err != nil {
						t.Error(err)
						return
					}
					fmt.Fprintf(&b, "%s@%d %v %x\n", name, lb.scale, mode, h)
				}
			}
			parts[i] = b.String()
		}()
	}
	wg.Wait()
	return strings.Join(parts, "")
}

// TestBuildsPinned: every generated source and every program the ledger
// builds, byte for byte as recorded before the generators and the
// assembler's data path were rewritten to write and read each data line
// in one pass. A changed line names the source or build that moved.
func TestBuildsPinned(t *testing.T) {
	t.Parallel()
	want, err := os.ReadFile("testdata/build_hashes.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(buildHashes(t), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d sources and builds hashed, %d recorded", len(got)-1, len(wantLines)-1)
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("bytes moved\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}
