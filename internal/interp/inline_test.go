package interp

import (
	"os/exec"
	"strings"
	"testing"
)

// TestMemoryHitPathsInlined: the load and store µops read and write
// through mem.Memory's TLB fast paths, and the interpreter's speed rests
// on the compiler inlining all three into the µop loop. A fast path that
// grows past the inliner's budget turns every load into a call; this
// fails then, naming it.
func TestMemoryHitPathsInlined(t *testing.T) {
	t.Parallel()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain to build the package with")
	}
	out, err := exec.Command("go", "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{"ReadWordHit", "WriteWordHit", "ByteHit"} {
		if want := "inlining call to mem.(*Memory)." + fn; !strings.Contains(string(out), want) {
			t.Errorf("the compiler no longer reports %q in this package", want)
		}
	}
}
