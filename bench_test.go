// Benchmark harness: one sub-benchmark per msbench section (the paper's
// tables, the breakdown, the ablations, the sweep, the mixes and the
// sampled estimates), each regenerated from cold at the workloads' fast
// test scale so `go test -bench .` stays tractable. The headline numbers
// are msbench's tables: `go run ./cmd/msbench -all` at full scale.
package multiscalar_test

import (
	"io"
	"testing"

	"multiscalar/internal/bench"
)

// BenchmarkSections times each section of the msbench registry. Every
// iteration starts with empty build, oracle and result stores, so it
// measures the section's simulations, not memo hits.
func BenchmarkSections(b *testing.B) {
	for _, name := range bench.SectionNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.ResetMemo()
				if _, err := bench.RunSections(map[string]bool{name: true}, bench.Options{Scale: bench.Scale(-1)}, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
