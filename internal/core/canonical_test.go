package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"multiscalar/internal/arb"
	"multiscalar/internal/trace"
)

type nopSink struct{}

func (nopSink) Emit(trace.Event) {}

func sampleConfigs() []Config {
	cfgs := []Config{
		DefaultConfig(8, 1, false),
		DefaultConfig(8, 2, true),
		DefaultConfig(4, 1, false),
		DefaultConfig(1, 1, false),
		ScalarConfig(1, false),
		ScalarConfig(2, true),
	}
	c := DefaultConfig(8, 1, false)
	c.ARBPolicy = arb.PolicySquash
	c.ARBEntries = 2
	cfgs = append(cfgs, c)
	c = DefaultConfig(8, 1, false)
	c.StaticPredict = true
	c.SharedFPUnits = 1
	c.RingLatency = 4
	c.Latencies.IntMul = 24
	cfgs = append(cfgs, c)
	return cfgs
}

// TestCanonicalBytesPinned: the canonical encoding is a cache-key
// component and a litmus-artifact field, so its bytes are an interface.
// The literals change only with a CanonicalConfigVersion bump; they were
// last recorded at version 3, which dropped no_skip, MemLoad and MemStore.
func TestCanonicalBytesPinned(t *testing.T) {
	const latencies = `"latencies":{"IntAddSub":1,"ShiftLogic":1,"IntMul":4,"IntDiv":12,"Branch":1,"SPAddSub":2,"SPMul":4,"SPDiv":12,"DPAddSub":2,"DPMul":5,"DPDiv":18}`
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"DefaultConfig(8,2,true)", DefaultConfig(8, 2, true),
			`{"v":3,"num_units":8,"issue_width":2,"out_of_order":true,"rob_size":16,"fetchq_size":8,` + latencies +
				`,"icache_bytes":32768,"icache_block":64,"dbank_bytes":8192,"dblock_bytes":64,"dcache_hit":2,"num_mshrs":4,"arb_entries":256,"arb_policy":0,"ring_latency":1,"desc_cache_entries":1024,"static_predict":false,"shared_fp_units":0,"branch_entries":2048,"max_cycles":2000000000}`},
		{"ScalarConfig(1,false)", ScalarConfig(1, false),
			`{"v":3,"num_units":1,"issue_width":1,"out_of_order":false,"rob_size":16,"fetchq_size":8,` + latencies +
				`,"icache_bytes":32768,"icache_block":64,"dbank_bytes":65536,"dblock_bytes":64,"dcache_hit":1,"num_mshrs":4,"arb_entries":256,"arb_policy":0,"ring_latency":1,"desc_cache_entries":1024,"static_predict":false,"shared_fp_units":0,"branch_entries":2048,"max_cycles":2000000000}`},
	} {
		got, err := tc.cfg.MarshalCanonical()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: canonical bytes moved\n got %s\nwant %s", tc.name, got, tc.want)
		}
		if back, err := UnmarshalCanonicalConfig([]byte(tc.want)); err != nil || back != tc.cfg {
			t.Errorf("%s: the pinned encoding no longer decodes to its config: %v", tc.name, err)
		}
	}
}

// TestCanonicalFieldSetEnforced: a canonical config is the whole field
// set, in any order and spacing. A misspelled field is refused rather
// than dropped, and an omitted or null field is refused rather than
// decoded as zero (a typo of arb_entries used to yield a 0-entry ARB
// that Validate accepts).
func TestCanonicalFieldSetEnforced(t *testing.T) {
	enc, err := DefaultConfig(4, 1, false).MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	good := string(enc)
	edit := func(s, old, new string) string {
		if !strings.Contains(s, old) {
			t.Fatalf("%s not in %s", old, s)
		}
		return strings.Replace(s, old, new, 1)
	}
	i := strings.Index(good, `,"latencies":{`)
	latencies := good[i : i+strings.Index(good[i:], "}")+1]
	typo := edit(good, `"arb_entries":256`, `"arb_entires":8`)
	for _, tc := range []struct{ name, data, want string }{
		{"misspelled", typo, `unknown field "arb_entires"`},
		{"misspelled, latencies omitted", edit(typo, latencies, ``), `unknown field "arb_entires"`},
		{"latencies omitted", edit(good, latencies, ``), "no latencies field"},
		{"omitted", edit(good, `,"arb_entries":256`, ``), "no arb_entries field"},
		{"null", edit(good, `"arb_entries":256`, `"arb_entries":null`), "no arb_entries field"},
		{"omitted latency", edit(good, `"IntMul":4,`, ``), "no latencies.IntMul field"},
		{"unknown latency", edit(good, `"IntMul":4,`, `"IntMul":4,"FMA":3,`), `unknown field "FMA"`},
		{"trailing data", good + `{}`, "invalid character"},
	} {
		if _, err := UnmarshalCanonicalConfig([]byte(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v; want an error containing %q", tc.name, err, tc.want)
		}
	}
	moved := edit(good, `"v":3,`, ``)
	moved = moved[:len(moved)-1] + `,"v":3}`
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, []byte(moved), "", "  "); err != nil {
		t.Fatal(err)
	}
	if got, err := UnmarshalCanonicalConfig(spaced.Bytes()); err != nil || got != DefaultConfig(4, 1, false) {
		t.Errorf("reordered and indented canonical config: %v", err)
	}
}

func TestMarshalCanonicalRoundTrip(t *testing.T) {
	for i, c := range sampleConfigs() {
		enc, err := c.MarshalCanonical()
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		enc2, err := c.MarshalCanonical()
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("config %d: canonical encoding not deterministic", i)
		}
		got, err := UnmarshalCanonicalConfig(enc)
		if err != nil {
			t.Fatalf("config %d: decode: %v", i, err)
		}
		if got != c {
			t.Fatalf("config %d: round trip mismatch:\n got %#v\nwant %#v", i, got, c)
		}
	}
}

// TestCanonicalExcludesObservers pins that the runtime-only fields never
// reach the encoding: a configuration with an event sink or with dense
// ticking keys identically to the bare machine description.
func TestCanonicalExcludesObservers(t *testing.T) {
	c := DefaultConfig(8, 1, false)
	bare, err := c.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	c.Sink = nopSink{}
	c.NoSkip = true
	observed, err := c.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bare, observed) {
		t.Fatalf("observers changed the canonical encoding:\n%s\nvs\n%s", bare, observed)
	}
}

func TestCanonicalVersionRejected(t *testing.T) {
	if _, err := UnmarshalCanonicalConfig([]byte(`{"v":99}`)); err == nil {
		t.Fatal("unknown canonical version accepted")
	}
	if _, err := UnmarshalCanonicalConfig([]byte(`not json`)); err == nil {
		t.Fatal("malformed canonical config accepted")
	}
}
