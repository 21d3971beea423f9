package serve

import (
	"bytes"
	"encoding/json"
	"io"
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

// TestSweepRepeatFullyCached is the acceptance path end to end: a
// config sweep, one POST /v1/jobs per configuration, submitted twice.
// The second pass must be answered wholly from the cache — zero new
// simulations — with bytes equal to the first pass but for the cached
// flag.
func TestSweepRepeatFullyCached(t *testing.T) {
	eng := NewLocal(Options{CacheEntries: 64})
	srv := httptest.NewServer(NewHandler(eng))
	defer srv.Close()

	units := []int{1, 2, 4}
	pass := func() [][]byte {
		out := make([][]byte, len(units))
		for i, u := range units {
			resp := postJSON(t, srv, "/v1/jobs", SubmitRequest{
				Client: "itest",
				Job:    WireJob{Workload: "example", Scale: -1, Verify: true, Preset: &WirePreset{Units: u}},
			})
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%d units: status %d, err %v: %s", u, resp.StatusCode, err, body)
			}
			out[i] = body
		}
		return out
	}

	first := pass()
	for i, b := range first {
		if !bytes.Contains(b, []byte(`"cached":false,`)) {
			t.Fatalf("%d units: first submission not executed: %.200s", units[i], b)
		}
	}
	executedBefore := eng.Metrics().Executed
	if executedBefore != uint64(len(units)) {
		t.Fatalf("first pass executed %d jobs, want %d", executedBefore, len(units))
	}
	for i, b := range pass() {
		if !bytes.Contains(b, []byte(`"cached":true,`)) {
			t.Fatalf("%d units: repeat submission not cached: %.200s", units[i], b)
		}
		if !bytes.Equal(uncached(b), first[i]) {
			t.Fatalf("%d units: repeat payload differs: %s", units[i], firstDiff(uncached(b), first[i]))
		}
	}
	if got := eng.Metrics().Executed; got != executedBefore {
		t.Fatalf("repeat submission ran %d new simulations", got-executedBefore)
	}

	// The scalar baseline point really took the scalar path and the
	// multiscalar points sped up over it.
	cycles := func(b []byte) uint64 {
		var w struct {
			Sim struct{ Cycles uint64 } `json:"sim"`
		}
		if err := json.Unmarshal(b, &w); err != nil {
			t.Fatal(err)
		}
		return w.Sim.Cycles
	}
	if c1, c4 := cycles(first[0]), cycles(first[2]); c1 == 0 || c4 == 0 || c4 >= c1 {
		t.Fatalf("sweep results implausible: scalar=%d cycles, 4 units=%d cycles", c1, c4)
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

	// One job per request: there is no batch route.
	b, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(`{"jobs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	b.Body.Close()
	if b.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/batch: status %d, want 404", b.StatusCode)
	}
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
		{`{"sweep":{"base":{"workload":"example"},"units":[1,2]}}`, `unknown field "sweep"`},
		{`{"jobs":[{"workload":"example","preset":{"units":2}}]}`, `unknown field "jobs"`},
	}
	for i, c := range cases {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
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
	eng := NewLocal(Options{CacheEntries: 8})
	h := NewHandler(eng)
	body := &endlessBody{}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", body))
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "request body exceeds") {
		t.Errorf("status %d, body %q; want 413 naming the bound", rec.Code, rec.Body.String())
	}
	if body.read > maxRequestBytes+1<<20 {
		t.Errorf("%d bytes read of a body refused at %d", body.read, maxRequestBytes)
	}
	if st := eng.aliases.Stats(); st.Runs != 0 || st.Entries != 0 {
		t.Errorf("alias store %+v; an oversized body is refused before it is digested", st)
	}
	rec = httptest.NewRecorder()
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
	cfg = core.DefaultConfig(4, 1, false)
	cfg.BranchEntries = 1000 // indexed by mask: not a power of two
	if enc, err = cfg.MarshalCanonical(); err != nil {
		t.Fatal(err)
	}
	rec = post(`{"job":{"workload":"example","scale":-1,"config":` + string(enc) + `}}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "config branch_entries = 1000") {
		t.Errorf("status %d, body %q; want 400 naming branch_entries", rec.Code, rec.Body.String())
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
