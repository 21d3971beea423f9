package multiscalar_test

import (
	"os"
	"path/filepath"
	"testing"

	"multiscalar"
)

// TestTestdataPrograms keeps the example .s files in testdata/ working:
// they assemble in both modes, interpret cleanly, and (when annotated)
// verify on a multiscalar machine.
func TestTestdataPrograms(t *testing.T) {
	files, err := filepath.Glob("testdata/*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := multiscalar.Assemble(string(src))
			if err != nil {
				t.Fatalf("scalar assemble: %v", err)
			}
			oracle, err := multiscalar.Interpret(sc.Prog, multiscalar.WithMaxInstrs(1<<24))
			if err != nil {
				t.Fatalf("interpret: %v", err)
			}
			if oracle.ExitCode != 0 {
				t.Fatalf("exit code %d", oracle.ExitCode)
			}

			ms, err := multiscalar.Assemble(string(src), multiscalar.WithMode(multiscalar.ModeMultiscalar))
			if err != nil {
				t.Fatalf("multiscalar assemble: %v", err)
			}
			msProg := ms.Prog
			if len(msProg.Tasks) == 0 {
				// Un-annotated example: partition it automatically.
				if err := multiscalar.Partition(msProg, multiscalar.PartitionOptions{}); err != nil {
					t.Fatalf("partition: %v", err)
				}
			}
			res, err := multiscalar.Run(msProg, multiscalar.DefaultConfig(8, 1, false))
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			if res.Out != oracle.Out {
				t.Fatalf("out = %q, scalar-build oracle = %q", res.Out, oracle.Out)
			}
		})
	}
}
