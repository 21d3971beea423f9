package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// CanonicalConfigVersion is the version tag MarshalCanonical emits and
// UnmarshalCanonicalConfig accepts. Bump it whenever a semantic Config
// field is added, removed, or reinterpreted: cache keys derived from the
// canonical encoding must never alias across meanings.
const CanonicalConfigVersion = 3

// canonicalConfig is the wire form of a Config: the version, then every
// semantic field under the stable name and in the order Config's own
// json tags give it, none omitted. The runtime-only fields (Sink, NoSkip)
// are tagged out — two configurations that differ only in how a run is
// observed or ticked describe the same machine and must encode
// identically. Version 3 dropped no_skip and the latencies MemLoad and
// MemStore, none of which moved a Result.
type canonicalConfig struct {
	V int `json:"v"`
	Config
}

// MarshalCanonical encodes the configuration as its one canonical,
// versioned JSON form: fixed field order, every semantic field present,
// the runtime-only fields (Sink, NoSkip) excluded. Two Config values
// describe the same machine if and only if their canonical encodings are
// byte-equal, which is what makes the encoding usable as a cache-key
// component (internal/job, internal/bench, internal/serve).
func (c Config) MarshalCanonical() ([]byte, error) {
	return json.Marshal(canonicalConfig{V: CanonicalConfigVersion, Config: c})
}

// UnmarshalCanonicalConfig decodes a canonical encoding produced by
// MarshalCanonical (or assembled by an API client). Unknown versions are
// rejected rather than half-decoded, and so is an encoding that is not
// the canonical form's field set: an unknown field (a misspelled name
// would otherwise be dropped) or an omitted or null one (it would
// otherwise decode as zero). Key order and spacing are free.
func UnmarshalCanonicalConfig(data []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w canonicalConfig
	var fields map[string]any
	if err := dec.Decode(&w); err != nil {
		return Config{}, fmt.Errorf("core: decoding canonical config: %w", err)
	}
	if err := json.Unmarshal(data, &fields); err != nil {
		return Config{}, fmt.Errorf("core: decoding canonical config: %w", err)
	}
	if w.V != CanonicalConfigVersion {
		return Config{}, fmt.Errorf("core: canonical config version %d (want %d)", w.V, CanonicalConfigVersion)
	}
	enc, err := w.MarshalCanonical()
	if err != nil {
		return Config{}, err
	}
	var want map[string]any
	if err := json.Unmarshal(enc, &want); err != nil {
		return Config{}, err
	}
	if name := firstMissing(fields, want, ""); name != "" {
		return Config{}, fmt.Errorf("core: canonical config has no %s field (every field is required)", name)
	}
	return w.Config, nil
}

// firstMissing returns the alphabetically first key path of want that
// got lacks or holds as null, descending into nested objects, or "".
func firstMissing(got, want map[string]any, prefix string) string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok || g == nil {
			return prefix + k
		}
		if w, ok := want[k].(map[string]any); ok {
			g, _ := g.(map[string]any) // a non-object already failed to decode
			if name := firstMissing(g, w, prefix+k+"."); name != "" {
				return name
			}
		}
	}
	return ""
}
