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
	} {
		c := DefaultConfig(4, 1, false)
		edit(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "config "+name) {
			t.Errorf("%s: %v; want an error naming it", name, err)
		}
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
