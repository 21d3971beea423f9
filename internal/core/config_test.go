package core

import (
	"strings"
	"testing"
)

// TestValidateRejects: each geometry no machine can be built at is an
// error naming its field, and the default machines are accepted.
func TestValidateRejects(t *testing.T) {
	for name, edit := range map[string]func(*Config){
		"num_units = 0":         func(c *Config) { c.NumUnits = 0 },
		"rob_size = 65537":      func(c *Config) { c.ROBSize = 1<<16 + 1 },
		"icache_bytes = 32":     func(c *Config) { c.ICacheBytes = 32 },
		"branch_entries = 0":    func(c *Config) { c.BranchEntries = 0 },
		"branch_entries = 1000": func(c *Config) { c.BranchEntries = 1000 },
		"branch_entries = 3":    func(c *Config) { c.BranchEntries = 3 },
		// A negative latency simulated a machine faster than Table 1, and
		// zero ran exactly as one.
		"latencies.IntMul = -1":   func(c *Config) { c.Latencies.IntMul = -1 },
		"latencies.IntAddSub = 0": func(c *Config) { c.Latencies.IntAddSub = 0 },
		"latencies.MemLoad = 0":   func(c *Config) { c.Latencies.MemLoad = 0 },
		"latencies.DPDiv = 65537": func(c *Config) { c.Latencies.DPDiv = 1<<16 + 1 },
	} {
		c := DefaultConfig(4, 1, false)
		edit(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "config "+name) {
			t.Errorf("%s: %v; want an error naming it", name, err)
		}
	}
	c := DefaultConfig(4, 1, false)
	c.Latencies.IntMul, c.Latencies.DPDiv = 1, 1<<16
	if err := c.Validate(); err != nil {
		t.Errorf("latencies at their bounds: %v", err)
	}
	for _, c := range sampleConfigs() {
		for _, entries := range []int{1, 2, 2048, 1 << 20} {
			c.BranchEntries = entries
			if err := c.Validate(); err != nil {
				t.Errorf("branch_entries = %d: %v", entries, err)
			}
		}
	}
}
