package serve

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
)

// spill is the on-disk half of the result cache: one file per job key,
// content-addressed under a two-byte shard directory, so a result
// survives eviction from the in-memory job.Store — and daemon restarts.
// A file is a CRC-32C of the result's encoded bytes (little-endian)
// followed by those bytes: the /v1/jobs response the execution wrote,
// artifacts — snapshots, .mstrc traces — inside it base64-encoded. A
// spilled entry is served as those bytes without being decoded, so the
// checksum is what stands between a damaged file and a served answer.
// The empty spill is disabled.
type spill string

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (d spill) path(key string) string {
	return filepath.Join(string(d), key[:2], key+".json")
}

// store persists a freshly executed, sealed result and reports whether
// it is on disk now. A failed write only costs a later re-execution, so
// the cause is not propagated.
func (d spill) store(res *Result) bool {
	if d == "" {
		return false
	}
	path := d.path(res.Key)
	if os.MkdirAll(filepath.Dir(path), 0o755) != nil {
		return false
	}
	data := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+len(res.wire)), crc32.Checksum(res.wire, castagnoli))
	data = append(data, res.wire...)
	// Write-then-rename so a crashed daemon never leaves a torn entry a
	// restarted one would serve.
	tmp := path + ".tmp"
	return os.WriteFile(tmp, data, 0o644) == nil && os.Rename(tmp, path) == nil
}

// load returns the spilled result for key, holding only its encoded
// bytes, or nil when the spill is disabled or the file is absent,
// unreadable, fails its checksum, or is not this key's result — a
// damaged or old-format file is a miss, and the re-execution rewrites it.
func (d spill) load(key string) *Result {
	if d == "" {
		return nil
	}
	data, err := os.ReadFile(d.path(key))
	if err != nil || len(data) < 4 {
		return nil
	}
	wire := data[4:]
	if binary.LittleEndian.Uint32(data) != crc32.Checksum(wire, castagnoli) || !sealedFor(wire, key) {
		return nil
	}
	return &Result{Key: key, wire: wire}
}
