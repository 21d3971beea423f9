package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/job"
)

// post sends one /v1/jobs body to h and returns the recorded answer.
func post(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	return rec
}

// presetBody is the /v1/jobs body of an example simulate job on units
// units, sent by client.
func presetBody(tb testing.TB, client string, units int) []byte {
	body := requestBody(tb, WireJob{Workload: "example", Scale: -1, Preset: &WirePreset{Units: units}})
	return bytes.Replace(body, []byte(`"client":"b"`), []byte(`"client":"`+client+`"`), 1)
}

// fakeRun is an executor that answers every job at once with its unit
// count as the cycle count, and fails jobs on 16 units.
func fakeRun(s *job.Spec) (*job.Output, error) {
	if s.Config.NumUnits == 16 {
		return nil, errors.New("sixteen units refused")
	}
	return &job.Output{Result: &core.Result{Cycles: uint64(s.Config.NumUnits)}}, nil
}

// TestMetricsOfARequestSequence: a fixed sequence of /v1/jobs requests —
// repeats, a second client's spelling of one job, a malformed body, a
// failing job, evictions and spill hits — leaves the counters the
// engine kept before requests were aliased by digest.
func TestMetricsOfARequestSequence(t *testing.T) {
	eng := testEngine(Options{CacheEntries: 2, SpillDir: t.TempDir()}, fakeRun)
	h := NewHandler(eng)
	a, a2, b, c, d := presetBody(t, "x", 2), presetBody(t, "y", 2), presetBody(t, "x", 4), presetBody(t, "x", 8), presetBody(t, "x", 3)
	fail := presetBody(t, "x", 16)
	statuses := ""
	for _, body := range [][]byte{a, a, b, a2, c, d, a, []byte(`{"job":`), fail, fail, b, c, a2, d, d, a} {
		statuses += fmt.Sprint(post(h, body).Code, " ")
	}
	if want := "200 200 200 200 200 200 200 400 422 422 200 200 200 200 200 200 "; statuses != want {
		t.Errorf("statuses %s, want %s", statuses, want)
	}
	m := eng.Metrics()
	got := fmt.Sprintf("jobs=%d executed=%d cache_hits=%d disk_hits=%d errors=%d evictions=%d spilled=%d",
		m.Jobs, m.Executed, m.CacheHits, m.DiskHits, m.Errors, m.Evictions, m.Spilled)
	if want := "jobs=15 executed=4 cache_hits=4 disk_hits=5 errors=2 evictions=7 spilled=4"; got != want {
		t.Errorf("metrics %s, want %s", got, want)
	}
}

// TestRepeatedBodyIsNotDecoded: a body seen before is answered through
// its alias — the alias store runs no flight for it, so nothing decodes
// the body — from memory and from the spill alike, with the bytes the
// executing response wrote.
func TestRepeatedBodyIsNotDecoded(t *testing.T) {
	eng := testEngine(Options{CacheEntries: 1, SpillDir: t.TempDir()}, fakeRun)
	h := NewHandler(eng)
	a, b := presetBody(t, "x", 2), presetBody(t, "x", 4)
	first := post(h, a).Body.Bytes()
	for i := 0; i < 3; i++ { // memory hits
		if got := post(h, a).Body.Bytes(); !bytes.Equal(uncached(got), first) || bytes.Equal(got, first) {
			t.Fatalf("memory hit %d: %s", i, firstDiff(got, first))
		}
	}
	post(h, b) // evicts a's result to the spill
	if got := post(h, a).Body.Bytes(); !bytes.Equal(uncached(got), first) {
		t.Fatalf("spill hit: %s", firstDiff(got, first))
	}
	if st := eng.aliases.Stats(); st.Runs != 2 || st.Hits != 4 || st.Entries != 2 {
		t.Errorf("alias store %+v; want 2 decodes (one per body) and 4 aliased answers", st)
	}
	if m := eng.Metrics(); m.Executed != 2 || m.CacheHits != 3 || m.DiskHits != 1 {
		t.Errorf("metrics %+v; want 2 executed, 3 memory hits, 1 spill hit", m)
	}
}

// TestMalformedBodyIsRefusedEveryTime: a body that does not decode, or
// decodes to no job, is a 400 on every request — its failure is never
// aliased — and counts no job.
func TestMalformedBodyIsRefusedEveryTime(t *testing.T) {
	eng := testEngine(Options{CacheEntries: 8}, fakeRun)
	h := NewHandler(eng)
	bodies := map[string]string{
		`{"job":`: "decoding request",
		`{"job":{"workload":"example","op":"explode"}}`:                 "bad job: unknown op",
		`{"job":{"workload":"example","preset":{"units":2}},"extra":1}`: `unknown field \"extra\"`,
	}
	for body, want := range bodies {
		for i := 0; i < 3; i++ {
			if rec := post(h, []byte(body)); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
				t.Errorf("%s, request %d: status %d, body %q; want 400 naming %q", body, i, rec.Code, rec.Body, want)
			}
		}
	}
	if st := eng.aliases.Stats(); st.Entries != 0 || st.Hits != 0 || st.Runs != 9 {
		t.Errorf("alias store %+v; want every request decoded and none aliased", st)
	}
	if m := eng.Metrics(); m.Jobs != 0 {
		t.Errorf("metrics %+v; a refused body is no job", m)
	}
}

// TestEvictedAliasReexecutes: an alias whose result was evicted with no
// spill to fall back on decodes its body again and re-executes the job,
// answering the bytes of the first execution.
func TestEvictedAliasReexecutes(t *testing.T) {
	eng := NewLocal(Options{CacheEntries: 1})
	h := NewHandler(eng)
	a, b := presetBody(t, "x", 2), presetBody(t, "x", 4)
	first := post(h, a)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body)
	}
	post(h, b) // evicts a's result; there is no spill
	again := post(h, a)
	if !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
		t.Fatalf("re-executed answer differs: %s", firstDiff(again.Body.Bytes(), first.Body.Bytes()))
	}
	if st := eng.aliases.Stats(); st.Runs != 2 || st.Hits != 1 {
		t.Errorf("alias store %+v; want the third request aliased", st)
	}
	if m := eng.Metrics(); m.Executed != 3 || m.CacheHits != 0 || m.DiskHits != 0 {
		t.Errorf("metrics %+v; want a's job executed twice", m)
	}
}

// TestConcurrentFirstRequestsDecodeOnce: identical first requests that
// arrive together decode the body once and execute the job once; the
// others wait for that answer and count as cache hits, as concurrent
// duplicates always have.
func TestConcurrentFirstRequestsDecodeOnce(t *testing.T) {
	var executions atomic.Int64
	eng := testEngine(Options{CacheEntries: 8}, func(s *job.Spec) (*job.Output, error) {
		executions.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the admission window
		return fakeRun(s)
	})
	h := NewHandler(eng)
	body := presetBody(t, "x", 8)
	const n = 16
	answers := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i] = uncached(post(h, body).Body.Bytes())
		}()
	}
	wg.Wait()
	for i, a := range answers {
		if !bytes.Equal(a, answers[0]) {
			t.Fatalf("answer %d differs: %s", i, firstDiff(a, answers[0]))
		}
	}
	if st := eng.aliases.Stats(); st.Runs != 1 || st.Hits != n-1 {
		t.Errorf("alias store %+v; want one decode for %d identical requests", st, n)
	}
	if m := eng.Metrics(); executions.Load() != 1 || m.Jobs != n || m.Executed != 1 || m.CacheHits != n-1 {
		t.Errorf("%d executions, metrics %+v; want 1 execution and %d hits", executions.Load(), m, n-1)
	}
}

// TestAliasTableIsBounded: the alias table holds at most
// aliasesPerResult digests per cached result, however many distinct
// bodies arrive — here twenty clients' spellings of one job.
func TestAliasTableIsBounded(t *testing.T) {
	eng := testEngine(Options{CacheEntries: 2}, fakeRun)
	h := NewHandler(eng)
	const clients, bound = 20, 2 * aliasesPerResult
	for i := 0; i < clients; i++ {
		if rec := post(h, presetBody(t, fmt.Sprint("client-", i), 2)); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if st := eng.aliases.Stats(); st.Entries > bound {
			t.Fatalf("after %d bodies the alias table holds %d entries, over its bound %d", i+1, st.Entries, bound)
		}
	}
	if st := eng.aliases.Stats(); st.Entries != bound || st.Evictions != clients-bound {
		t.Errorf("alias store %+v; want %d entries and %d evictions", st, bound, clients-bound)
	}
	if m := eng.Metrics(); m.Executed != 1 || m.CacheHits != clients-1 {
		t.Errorf("metrics %+v; twenty spellings of one job are one execution", m)
	}
}
