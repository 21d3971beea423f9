package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync/atomic"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/job"
	"multiscalar/internal/workloads"
)

// written is what /v1/jobs writes for r, with the cached flag cleared.
func written(r *Result) string {
	rec := httptest.NewRecorder()
	writeResult(rec, r.withCached(false))
	return rec.Body.String()
}

// uncached clears the cached flag of one written response, so answers
// that differ only in it compare equal.
func uncached(b []byte) []byte {
	return bytes.Replace(b, []byte(`"cached":true,`), []byte(`"cached":false,`), 1)
}

// TestCorruptSpillIsAMiss: a spill file that is not byte for byte what
// the execution stored is never served. Each damaged file — including
// one whose JSON still parses under the right key — is a miss that
// re-executes, counts no disk hit, answers the executed payload and
// rewrites the file.
func TestCorruptSpillIsAMiss(t *testing.T) {
	snapshot := make([]byte, 48)
	for i := range snapshot {
		snapshot[i] = byte(i * 37)
	}
	var executions atomic.Int64
	exec := func(s *job.Spec) (*job.Output, error) {
		executions.Add(1)
		return &job.Output{Result: &core.Result{Cycles: 12345, Out: "spilled"}, Snapshot: snapshot}, nil
	}
	cases := []struct {
		name   string
		damage func(t *testing.T, file []byte, first *Result) []byte
	}{
		{"snapshot byte", func(t *testing.T, file []byte, _ *Result) []byte {
			at := bytes.Index(file, []byte(`"snapshot":"`))
			if at < 0 {
				t.Fatalf("no snapshot in %q", file)
			}
			at += len(`"snapshot":"`) + 10
			out := bytes.Clone(file)
			out[at] = map[bool]byte{true: 'B', false: 'A'}[out[at] == 'A']
			return out
		}},
		{"cycles digit", func(t *testing.T, file []byte, _ *Result) []byte {
			out := bytes.Replace(file, []byte(`"Cycles":12345`), []byte(`"Cycles":22345`), 1)
			if bytes.Equal(out, file) {
				t.Fatalf("no cycles in %q", file)
			}
			return out
		}},
		{"truncated", func(_ *testing.T, file []byte, _ *Result) []byte {
			return file[:len(file)/2]
		}},
		{"old format", func(t *testing.T, _ []byte, first *Result) []byte {
			// The earlier layout: the typed result marshalled, no checksum.
			old, err := json.Marshal(first.withCached(false))
			if err != nil {
				t.Fatal(err)
			}
			return old
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			executions.Store(0)
			first, err := testEngine(Options{SpillDir: dir}, exec).Submit(context.Background(), "c", simSpec(4))
			if err != nil {
				t.Fatal(err)
			}
			path := spill(dir).path(first.Key)
			stored, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.damage(t, stored, first), 0o644); err != nil {
				t.Fatal(err)
			}

			eng := testEngine(Options{SpillDir: dir}, exec)
			res, err := eng.Submit(context.Background(), "c", simSpec(4))
			if err != nil {
				t.Fatal(err)
			}
			if m := eng.Metrics(); res.Cached || m.DiskHits != 0 || m.Executed != 1 || executions.Load() != 2 {
				t.Fatalf("damaged spill file was served: cached=%v metrics %+v", res.Cached, m)
			}
			if got, want := written(res), written(first); got != want {
				t.Fatalf("re-executed payload differs:\n%s\nvs\n%s", got, want)
			}
			if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, stored) {
				t.Fatalf("re-execution did not rewrite the spill file (err %v)", err)
			}
		})
	}
}

// firstDiff describes where two responses part, without printing
// megabytes of artifact.
func firstDiff(a, b []byte) string {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return fmt.Sprintf("%d vs %d bytes, first difference at byte %d: %.60q vs %.60q", len(a), len(b), n, a[n:], b[n:])
}

// answerCase is one kind of job, submitted over /v1/jobs when it has a
// wire form and straight to the engine, written as /v1/jobs writes,
// when it has none (sampled jobs are not on the wire).
type answerCase struct {
	name string
	wire *WireJob
	spec *job.Spec
}

func answerCases(t *testing.T) []answerCase {
	preset := func(units, width int) *WirePreset { return &WirePreset{Units: units, Width: width} }
	wires := []struct {
		name string
		wire WireJob
	}{
		{"simulate", WireJob{Workload: "example", Scale: -1, Preset: preset(2, 1), Verify: true}},
		{"trace", WireJob{Op: "trace", Workload: "example", Scale: -1, Preset: preset(2, 2)}},
		{"snapshot", WireJob{Workload: "example", Scale: -1, Preset: preset(4, 2), Snapshot: true}},
		{"assemble", WireJob{Op: "assemble", Workload: "example", Scale: -1}},
	}
	var cases []answerCase
	for _, w := range wires {
		spec, err := w.wire.Decode()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, answerCase{name: w.name, wire: &w.wire, spec: spec})
	}
	sampled := &job.Spec{Op: job.OpSampled, Workload: "cmp", Mode: asm.ModeMultiscalar, Config: core.DefaultConfig(4, 1, false)}
	return append(cases, answerCase{name: "sampled", spec: sampled})
}

// answer submits c and returns the response body, checking the status
// and that Content-Length matches it.
func (c answerCase) answer(t *testing.T, eng *Local) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	if c.wire != nil {
		body, err := json.Marshal(SubmitRequest{Client: "t", Job: *c.wire})
		if err != nil {
			t.Fatal(err)
		}
		NewHandler(eng).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	} else {
		res, err := eng.Submit(context.Background(), "t", c.spec)
		if err != nil {
			t.Fatal(err)
		}
		writeResult(rec, res)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", c.name, rec.Code, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("%s: Content-Length %s for %d bytes", c.name, cl, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

// TestEveryAnswerWritesTheSameBytes: for each kind of job, the executing
// response, a memory hit, a spill hit and a hit on a restarted engine
// are the same bytes but for the cached flag, and the executing response
// is the typed result encoded as every other response is, and a memory
// hit on a trace job allocates less than the payload it writes.
func TestEveryAnswerWritesTheSameBytes(t *testing.T) {
	cases := answerCases(t)
	dir := t.TempDir()
	eng := NewLocal(Options{CacheEntries: 1, SpillDir: dir})
	executed := make([][]byte, len(cases))
	for i, c := range cases {
		executed[i] = c.answer(t, eng)
		hits := eng.Metrics().CacheHits
		if mem := c.answer(t, eng); !bytes.Equal(uncached(mem), executed[i]) || eng.Metrics().CacheHits != hits+1 {
			t.Fatalf("%s: memory hit differs from the executing response: %s", c.name, firstDiff(uncached(mem), executed[i]))
		}
	}
	// One resident entry: every key but the last was evicted, and each
	// answer below evicts the one before it.
	restarted := NewLocal(Options{CacheEntries: 8, SpillDir: dir})
	for i, c := range cases {
		for _, e := range []*Local{eng, restarted} {
			hits := e.Metrics().DiskHits
			got := c.answer(t, e)
			if e.Metrics().DiskHits != hits+1 || !bytes.Equal(uncached(got), executed[i]) || bytes.Equal(got, executed[i]) {
				t.Fatalf("%s: spill hit (disk hits %d -> %d) differs from the executing response: %s",
					c.name, hits, e.Metrics().DiskHits, firstDiff(got, executed[i]))
			}
		}
	}

	// The executing response is the typed result's encoding: each job
	// executes again on a fresh engine, whose result is typed.
	for i, c := range cases {
		typed, err := NewLocal(Options{}).Submit(context.Background(), "ref", c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if typed.Cached || typed.Op == "" {
			t.Fatalf("%s: the executing submission's result is not typed: %+v", c.name, typed)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(typed.withCached(false)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(executed[i], want.Bytes()) {
			t.Fatalf("%s: executing response is not the typed result's encoding: %s", c.name, firstDiff(executed[i], want.Bytes()))
		}
	}

	// A memory hit writes the sealed bytes in place; restarted holds the
	// trace job since its spill hit.
	h, body := NewHandler(restarted), requestBody(t, *cases[1].wire)
	alloc := testing.Benchmark(func(b *testing.B) { serveHits(b, h, body) }).AllocedBytesPerOp()
	if payload := len(executed[1]); alloc >= int64(payload) {
		t.Fatalf("a memory hit on a trace job allocates %d bytes for a %d-byte payload", alloc, payload)
	}
	t.Logf("trace memory hit: %d B allocated for a %d-byte payload", alloc, len(executed[1]))
}

// discard is a ResponseWriter that keeps nothing of the body, so a hit's
// allocations are the handler's own.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// requestBody is the POST /v1/jobs body for j.
func requestBody(tb testing.TB, j WireJob) []byte {
	body, err := json.Marshal(SubmitRequest{Client: "b", Job: j})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// hitHandler returns eng's handler after one request of each body has
// executed its job.
func hitHandler(tb testing.TB, eng *Local, bodies ...[]byte) http.Handler {
	h := NewHandler(eng)
	for _, body := range bodies {
		h.ServeHTTP(&discard{h: http.Header{}}, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	}
	if m := eng.Metrics(); m.Executed != uint64(len(bodies)) {
		tb.Fatalf("%d jobs did not execute: %+v", len(bodies), m)
	}
	return h
}

// serveHits posts the bodies round-robin, b.N times.
func serveHits(b *testing.B, h http.Handler, bodies ...[]byte) {
	w := &discard{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.h = http.Header{}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(bodies[i%len(bodies)])))
	}
}

// BenchmarkHit times a cache hit through the HTTP handler, request bytes
// in to response bytes out: a trace job from memory, and from the spill
// (one resident entry and two keys, so every request reads its result
// back from disk); and a verified simulate job given as source text
// (cmp at its test scale, a 16 KB body), from memory.
func BenchmarkHit(b *testing.B) {
	trace := func(units int) WireJob {
		return WireJob{Op: "trace", Workload: "example", Scale: -1, Preset: &WirePreset{Units: units, Width: 2}}
	}
	b.Run("memory", func(b *testing.B) {
		body := requestBody(b, trace(2))
		serveHits(b, hitHandler(b, NewLocal(Options{}), body), body)
	})
	b.Run("spill", func(b *testing.B) {
		first, second := requestBody(b, trace(2)), requestBody(b, trace(4))
		eng := NewLocal(Options{CacheEntries: 1, SpillDir: b.TempDir()})
		h := hitHandler(b, eng, first, second)
		before := eng.Metrics().DiskHits
		serveHits(b, h, first, second)
		if got := eng.Metrics().DiskHits - before; got != uint64(b.N) {
			b.Fatalf("%d of %d hits came from the spill", got, b.N)
		}
	})
	b.Run("source", func(b *testing.B) {
		w := workloads.Get("cmp")
		body := requestBody(b, WireJob{Source: w.Source(w.TestScale), Preset: &WirePreset{Units: 4}, Verify: true})
		serveHits(b, hitHandler(b, NewLocal(Options{}), body), body)
	})
}

// TestCachedResultsAreBytesOnly: the cache keeps a result's encoded
// bytes and nothing else. The executing submission gets the typed
// fields; a memory hit and a spill hit are the same shape, bytes only,
// and SubmitDecoded fills the typed fields back from them.
func TestCachedResultsAreBytesOnly(t *testing.T) {
	ctx := context.Background()
	eng := testEngine(Options{CacheEntries: 1, SpillDir: t.TempDir()}, func(s *job.Spec) (*job.Output, error) {
		return &job.Output{Result: &core.Result{Cycles: uint64(s.Config.NumUnits)}, Snapshot: []byte{1, 2, 3}}, nil
	})
	first, err := eng.Submit(ctx, "c", simSpec(4))
	if err != nil || first.Cached || first.Sim == nil || first.Snapshot == nil {
		t.Fatalf("executing submission: %+v, %v", first, err)
	}
	mem, err := eng.Submit(ctx, "c", simSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(ctx, "c", simSpec(8)); err != nil { // evicts units=4
		t.Fatal(err)
	}
	disk, err := eng.Submit(ctx, "c", simSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.CacheHits != 1 || m.DiskHits != 1 {
		t.Fatalf("want one memory and one spill hit: %+v", m)
	}
	for _, hit := range []*Result{mem, disk} {
		if !hit.Cached || hit.Op != "" || hit.Sim != nil || hit.Snapshot != nil || written(hit) != written(first) {
			t.Fatalf("cached result is not the encoded bytes alone: %+v", hit)
		}
	}

	decoded, err := SubmitDecoded(ctx, eng, "c", simSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(decoded.withCached(false))
	want, _ := json.Marshal(first)
	if !decoded.Cached || string(got) != string(want) {
		t.Fatalf("decoded hit differs from the executed result:\n%s\nvs\n%s", got, want)
	}
}
