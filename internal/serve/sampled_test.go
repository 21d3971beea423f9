package serve

import (
	"context"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/job"
)

// TestSubmitSampled runs a sampled job through the real executor: the
// result carries the estimate, and a duplicate submission is served
// from the cache.
func TestSubmitSampled(t *testing.T) {
	eng := NewLocal(Options{CacheEntries: 4})
	spec := &job.Spec{
		Op:       job.OpSampled,
		Workload: "cmp",
		Mode:     asm.ModeMultiscalar,
		Config:   core.DefaultConfig(4, 1, false),
	}

	res, err := eng.Submit(context.Background(), "client", spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled == nil {
		t.Fatal("sampled job result carries no estimate")
	}
	if res.Sampled.EstCycles == 0 || res.Sampled.TotalInstrs == 0 {
		t.Errorf("degenerate estimate: %d cycles over %d instrs",
			res.Sampled.EstCycles, res.Sampled.TotalInstrs)
	}
	if res.Op != "sampled" {
		t.Errorf("result op %q, want %q", res.Op, "sampled")
	}

	again, err := SubmitDecoded(context.Background(), eng, "client", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("duplicate sampled submission was not served from the cache")
	}
	if again.Sampled == nil || again.Sampled.EstCycles != res.Sampled.EstCycles {
		t.Error("cached estimate differs from the original")
	}
}
