package core

import (
	"encoding/json"
	"fmt"
)

// CanonicalConfigVersion is the version tag MarshalCanonical emits and
// UnmarshalCanonicalConfig accepts. Bump it whenever a semantic Config
// field is added, removed, or reinterpreted: cache keys derived from the
// canonical encoding must never alias across meanings.
const CanonicalConfigVersion = 2

// canonicalConfig is the wire form of a Config: the version, then every
// semantic field under the stable name and in the order Config's own
// json tags give it, none omitted. The runtime-only attachment (Sink) is
// tagged out — two configurations that differ only in observers
// describe the same machine and must encode identically.
type canonicalConfig struct {
	V int `json:"v"`
	Config
}

// MarshalCanonical encodes the configuration as its one canonical,
// versioned JSON form: fixed field order, every semantic field present,
// the runtime-only attachment (Sink) excluded. Two Config values
// describe the same machine if and only if their canonical encodings are
// byte-equal, which is what makes the encoding usable as a cache-key
// component (internal/job, internal/bench, internal/serve).
func (c Config) MarshalCanonical() ([]byte, error) {
	return json.Marshal(canonicalConfig{V: CanonicalConfigVersion, Config: c})
}

// UnmarshalCanonicalConfig decodes a canonical encoding produced by
// MarshalCanonical (or assembled by an API client). Unknown versions are
// rejected rather than half-decoded.
func UnmarshalCanonicalConfig(data []byte) (Config, error) {
	var w canonicalConfig
	if err := json.Unmarshal(data, &w); err != nil {
		return Config{}, fmt.Errorf("core: decoding canonical config: %w", err)
	}
	if w.V != CanonicalConfigVersion {
		return Config{}, fmt.Errorf("core: canonical config version %d (want %d)", w.V, CanonicalConfigVersion)
	}
	return w.Config, nil
}
