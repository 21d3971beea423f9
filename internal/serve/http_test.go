package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"multiscalar/internal/core"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) *T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return &v
}

// TestBatchSweepRepeatFullyCached is the acceptance path end to end: a
// batch sweep submitted twice over HTTP. The second submission must
// report every job cached — zero new simulations — with result payloads
// byte-identical to the first run.
func TestBatchSweepRepeatFullyCached(t *testing.T) {
	eng := NewLocal(Options{CacheEntries: 64})
	srv := httptest.NewServer(NewHandler(eng))
	defer srv.Close()

	req := BatchRequest{
		Client: "itest",
		Sweep: &BatchSweep{
			Base:  WireJob{Workload: "example", Scale: -1, Verify: true},
			Units: []int{1, 2, 4},
		},
	}
	marshalResults := func(b *BatchResponse) []string {
		out := make([]string, len(b.Results))
		for i, jr := range b.Results {
			if jr.Error != "" {
				t.Fatalf("job %d failed: %s", i, jr.Error)
			}
			data, err := json.Marshal(jr.Result.withCached(false))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(data)
		}
		return out
	}

	resp1 := decode[BatchResponse](t, postJSON(t, srv, "/v1/batch", req))
	if resp1.Count != 3 || resp1.Errors != 0 || resp1.Executed != 3 || resp1.Cached != 0 {
		t.Fatalf("first submission: %+v", resp1)
	}
	first := marshalResults(resp1)

	executedBefore := eng.Metrics().Executed
	resp2 := decode[BatchResponse](t, postJSON(t, srv, "/v1/batch", req))
	if resp2.Count != 3 || resp2.Cached != 3 || resp2.Executed != 0 || resp2.Errors != 0 {
		t.Fatalf("repeat submission not fully cached: %+v", resp2)
	}
	if got := eng.Metrics().Executed; got != executedBefore {
		t.Fatalf("repeat submission ran %d new simulations", got-executedBefore)
	}
	for i, payload := range marshalResults(resp2) {
		if payload != first[i] {
			t.Fatalf("job %d: repeat payload differs:\n%s\nvs\n%s", i, payload, first[i])
		}
	}

	// The scalar baseline point really took the scalar path and the
	// multiscalar points sped up over it.
	var r1, r4 struct{ Cycles uint64 }
	pick := func(i int, into *struct{ Cycles uint64 }) {
		var w struct {
			Sim struct{ Cycles uint64 } `json:"sim"`
		}
		if err := json.Unmarshal([]byte(first[i]), &w); err != nil {
			t.Fatal(err)
		}
		into.Cycles = w.Sim.Cycles
	}
	pick(0, &r1)
	pick(2, &r4)
	if r1.Cycles == 0 || r4.Cycles == 0 || r4.Cycles >= r1.Cycles {
		t.Fatalf("sweep results implausible: scalar=%d cycles, 4 units=%d cycles", r1.Cycles, r4.Cycles)
	}
}

func TestSingleJobAndMetricsEndpoints(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewLocal(Options{CacheEntries: 8})))
	defer srv.Close()

	req := SubmitRequest{
		Client: "solo",
		Job:    WireJob{Workload: "example", Scale: -1, Preset: &WirePreset{Units: 2}},
	}
	res := decode[Result](t, postJSON(t, srv, "/v1/jobs", req))
	if res.Cached || res.Sim == nil || res.Sim.Cycles == 0 || res.Key == "" {
		t.Fatalf("job response: %+v", res)
	}
	res2 := decode[Result](t, postJSON(t, srv, "/v1/jobs", req))
	if !res2.Cached || res2.Key != res.Key {
		t.Fatalf("resubmission: %+v", res2)
	}

	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decode[Metrics](t, mresp)
	if m.Jobs != 2 || m.Executed != 1 || m.CacheHits != 1 {
		t.Fatalf("metrics: %+v", m)
	}

	h, err := http.Get(srv.URL + "/healthz")
	if err != nil || h.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", h.StatusCode, err)
	}
	h.Body.Close()
}

func TestBadRequestsRejected(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewLocal(Options{CacheEntries: 8})))
	defer srv.Close()

	cases := []struct {
		body string
		want string
	}{
		{`{"job":{"preset":{"units":2}}}`, "exactly one of"},
		{`{"job":{"workload":"example","op":"explode"}}`, "unknown op"},
		{`{"job":{"workload":"nope","preset":{"units":2}}}`, "unknown workload"},
		{`{"job":{"workload":"example"}}`, "config or a preset"},
		{`{}`, "empty batch"},
	}
	for i, c := range cases {
		path := "/v1/jobs"
		if i == len(cases)-1 {
			path = "/v1/batch"
		}
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("case %d: accepted %q", i, c.body)
		}
		if !strings.Contains(e.Error, c.want) {
			t.Fatalf("case %d: error %q does not mention %q", i, e.Error, c.want)
		}
	}
}

// endlessBody is a request body that never ends: a JSON string opened
// and then filled for as long as anyone reads. It counts what was read.
type endlessBody struct{ read int64 }

func (b *endlessBody) Read(p []byte) (int, error) {
	n := 0
	if b.read == 0 {
		n = copy(p, `{"job":{"source":"`)
	}
	for i := n; i < len(p); i++ {
		p[i] = 'a'
	}
	b.read += int64(len(p))
	return len(p), nil
}

func (b *endlessBody) Close() error { return nil }

// TestOversizedBodyRefused: a body past maxRequestBytes is answered 413
// with a named error after at most the bound (and the decoder's
// read-ahead) has been read — not buffered to its end, which for this
// body never comes — and the handler goes on serving.
func TestOversizedBodyRefused(t *testing.T) {
	h := NewHandler(NewLocal(Options{CacheEntries: 8}))
	for _, path := range []string{"/v1/jobs", "/v1/batch"} {
		body := &endlessBody{}
		req := httptest.NewRequest(http.MethodPost, path, body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "request body exceeds") {
			t.Errorf("%s: status %d, body %q; want 413 naming the bound", path, rec.Code, rec.Body.String())
		}
		if body.read > maxRequestBytes+1<<20 {
			t.Errorf("%s: %d bytes read of a body refused at %d", path, body.read, maxRequestBytes)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz after oversized requests: status %d", rec.Code)
	}
}

// TestRemovedMachineFieldRejected: the wire "machine" selector went with
// the second machine. A request that still sends one is told so, not run
// as if it had not.
func TestRemovedMachineFieldRejected(t *testing.T) {
	h := NewHandler(NewLocal(Options{CacheEntries: 8}))
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"job":{"workload":"example","machine":"scalar","preset":{"units":1}}}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `unknown field \"machine\"`) {
		t.Errorf("status %d, body %q; want 400 naming the field", rec.Code, rec.Body.String())
	}
}

// TestHostileConfigIsABadRequest: a configuration no machine can be built
// from is answered 400 with the field named when the job is decoded, never
// run (it used to panic a worker), and the server goes on serving.
func TestHostileConfigIsABadRequest(t *testing.T) {
	h := NewHandler(NewLocal(Options{CacheEntries: 8}))
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		return rec
	}
	cfg := core.DefaultConfig(4, 1, false)
	cfg.ROBSize = -1
	enc, err := cfg.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	rec := post(`{"job":{"workload":"example","scale":-1,"config":` + string(enc) + `}}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "config rob_size = -1") {
		t.Errorf("status %d, body %q; want 400 naming rob_size", rec.Code, rec.Body.String())
	}
	if rec := post(`{"job":{"workload":"example","scale":-1,"preset":{"units":4}}}`); rec.Code != http.StatusOK {
		t.Errorf("a sound job after the hostile one: status %d, body %q", rec.Code, rec.Body.String())
	}
}

// TestOneSpellingPerInput: a job has one key however the wire spells its
// machine. A preset with max_cycles, the full config carrying the same
// bound, and the full default config with max_cycles beside it are one
// run, so they are one key and one cache entry. A trace is asked for one
// way, "op": "trace"; a "trace" field is refused, not ignored.
func TestOneSpellingPerInput(t *testing.T) {
	cfg := core.DefaultConfig(4, 1, false)
	def, err := cfg.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxCycles = 100000
	bounded, err := cfg.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	spellings := map[string]WireJob{
		"preset + max_cycles": {Workload: "wc", Scale: -1, Preset: &WirePreset{Units: 4}, MaxCycles: 100000},
		"config bound":        {Workload: "wc", Scale: -1, Config: bounded},
		"config + max_cycles": {Workload: "wc", Scale: -1, Config: def, MaxCycles: 100000},
	}
	keys := map[string]string{}
	for name, w := range spellings {
		s, err := w.Decode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if keys[name], err = s.Key(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for name, k := range keys {
		if want := keys["preset + max_cycles"]; k != want {
			t.Errorf("%s: key %s, want the preset's %s", name, k, want)
		}
	}

	h := NewHandler(NewLocal(Options{CacheEntries: 8}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"job":{"workload":"example","scale":-1,"preset":{"units":4},"trace":true}}`)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `unknown field \"trace\"`) {
		t.Errorf("status %d, body %q; want 400 naming the field", rec.Code, rec.Body.String())
	}
}
