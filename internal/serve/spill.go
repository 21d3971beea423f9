package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// spill is the on-disk half of the result cache: one JSON file per job
// key, content-addressed under a two-byte shard directory, so a result
// survives eviction from the in-memory job.Store — and daemon restarts.
// The payload is the canonical Result (the artifacts — snapshots, .mstrc
// traces — ride inside it base64-encoded), so a spilled entry answers
// later submissions byte-identically. The empty spill is disabled.
type spill string

func (d spill) path(key string) string {
	return filepath.Join(string(d), key[:2], key+".json")
}

// store persists a freshly executed result and reports whether it is on
// disk now. A failed write only costs a later re-execution, so the cause
// is not propagated.
func (d spill) store(key string, res *Result) bool {
	if d == "" {
		return false
	}
	data, err := json.Marshal(res)
	if err != nil {
		return false
	}
	path := d.path(key)
	if os.MkdirAll(filepath.Dir(path), 0o755) != nil {
		return false
	}
	// Write-then-rename so a crashed daemon never leaves a torn entry a
	// restarted one would serve.
	tmp := path + ".tmp"
	return os.WriteFile(tmp, data, 0o644) == nil && os.Rename(tmp, path) == nil
}

// load returns the spilled result for key, or nil when the spill is
// disabled, absent, or unreadable (a corrupt file is treated as a miss).
func (d spill) load(key string) *Result {
	if d == "" {
		return nil
	}
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil || res.Key != key {
		return nil
	}
	return &res
}
