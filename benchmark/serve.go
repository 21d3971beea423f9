package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"multiscalar/internal/job"
	"multiscalar/internal/serve"
	simws "multiscalar/internal/workloads"
)

const (
	serveClients  = 2     // closed loop: a client sends its next request when the last response is fully read
	coldRequests  = 1200  // every catalogue job once plus Zipf(1.1) repeats, shuffled
	hotRequests   = 30000 // Zipf(1.1) over the same catalogue, all answered from memory or spill
	serveCacheCap = 64    // resident results: under the catalogue size, so the cold phase evicts and spills
	zipfS         = 1.1
	rankStride    = 67 // coprime with the catalogue size: the popularity order visits every class early
	spanHeader    = "X-Ledger-Span"
)

// entry is one distinct job of the serve_mix catalogue.
type entry struct {
	wire     serve.WireJob
	artifact bool // the response carries a program, trace or snapshot payload
}

// catalogue is the 160 distinct jobs, all at workload test scale. It does
// not depend on the seed, so sim_cycles is the same for every seed.
func catalogue() []entry {
	var es []entry
	ws := simws.All()
	preset := func(units, width int, ooo bool) *serve.WirePreset {
		return &serve.WirePreset{Units: units, Width: width, OOO: ooo}
	}
	for _, w := range ws { // 80 simulate-by-workload, verified
		for _, units := range []int{1, 2, 4, 8} {
			for _, ooo := range []bool{false, true} {
				width := 1
				if ooo {
					width = 2
				}
				es = append(es, entry{wire: serve.WireJob{Workload: w.Name, Scale: w.TestScale, Preset: preset(units, width, ooo), Verify: true}})
			}
		}
	}
	for _, w := range ws { // 30 simulate-by-source
		for _, units := range []int{2, 4, 8} {
			es = append(es, entry{wire: serve.WireJob{Source: w.Source(w.TestScale), Preset: preset(units, 1, false), Verify: true}})
		}
	}
	for _, w := range ws { // 20 assemble
		for _, mode := range []string{"scalar", "multiscalar"} {
			es = append(es, entry{wire: serve.WireJob{Op: "assemble", Workload: w.Name, Scale: w.TestScale, Mode: mode}, artifact: true})
		}
	}
	for _, w := range ws { // 20 trace
		for _, units := range []int{4, 8} {
			es = append(es, entry{wire: serve.WireJob{Op: "trace", Workload: w.Name, Scale: w.TestScale, Preset: preset(units, 2, true)}, artifact: true})
		}
	}
	for _, w := range ws { // 10 snapshot-artifact
		es = append(es, entry{wire: serve.WireJob{Workload: w.Name, Scale: w.TestScale, Preset: preset(4, 2, false), Snapshot: true}, artifact: true})
	}
	return es
}

// plan returns the cold and hot request sequences as catalogue indices:
// a pure function of the seed and the catalogue size. Popularity is a
// fixed stride through the catalogue (so every class of job has members
// at the head of the distribution and every seed offers the same mix);
// the seed draws the Zipf repeats and the arrival order.
func plan(seed int64, n int) (cold, hot []int) {
	rng := rand.New(rand.NewSource(seed))
	rank := make([]int, n) // popularity rank -> catalogue index
	for r := range rank {
		rank[r] = r * rankStride % n
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	cold = append(cold, rank...)
	for len(cold) < coldRequests {
		cold = append(cold, rank[zipf.Uint64()])
	}
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	hot = make([]int, hotRequests)
	for i := range hot {
		hot[i] = rank[zipf.Uint64()]
	}
	return cold, hot
}

// requestBodies encodes each catalogue entry's POST /v1/jobs body.
func requestBodies(es []entry) ([][]byte, error) {
	bodies := make([][]byte, len(es))
	for i, e := range es {
		b, err := json.Marshal(serve.SubmitRequest{Job: e.wire})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

type serveMix struct {
	entries   []entry
	bodies    [][]byte
	cold, hot []int

	passes    []servePass // untraced passes, for the serve.* rows
	queuePeak int         // deepest queue seen while polling (traced passes only)
}

// servePass keeps what one pass measured beyond its passResult.
type servePass struct {
	hotSmall, hotArtifact, coldMiss []float64 // sorted latencies, seconds
	afterCold, atEnd                serve.Metrics
}

// site is one fresh service: engine, handler and loopback listener.
type site struct {
	local *serve.Local
	srv   *httptest.Server
}

func newSite(rc *runCtx, dir string) *site {
	local := serve.NewLocal(serve.Options{CacheEntries: serveCacheCap, SpillDir: dir})
	var h http.Handler
	if rc.tr == nil {
		h = serve.NewHandler(local)
	} else {
		h = &tracedHandler{inner: serve.NewHandler(&tracedEngine{inner: local, tr: rc.tr}), tr: rc.tr}
	}
	return &site{local: local, srv: httptest.NewServer(h)}
}

// setup is everything needed before the first request can be sent: the
// catalogue, the seeded request plan, the encoded bodies, and a service
// that answers /healthz.
func (w *serveMix) setup(rc *runCtx) error {
	id := rc.tr.begin("setup", 0, rc.name)
	defer rc.tr.end(id)
	w.entries = catalogue()
	var err error
	if w.bodies, err = requestBodies(w.entries); err != nil {
		return err
	}
	w.cold, w.hot = plan(rc.seed, len(w.entries))
	dir, err := os.MkdirTemp(rc.tmp, "spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s := newSite(rc, dir)
	defer s.srv.Close()
	resp, err := http.Get(s.srv.URL + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

func (w *serveMix) pass(rc *runCtx) (passResult, error) {
	job.ResetBuildMemo()
	dir, err := os.MkdirTemp(rc.tmp, "spill-")
	if err != nil {
		return passResult{}, err
	}
	defer os.RemoveAll(dir)
	s := newSite(rc, dir)
	defer s.srv.Close()

	ph := &phaseState{w: w, rc: rc, url: s.srv.URL + "/v1/jobs", seed: maphash.MakeSeed(), ref: make([]uint64, len(w.entries))}
	var sp servePass
	stopPoll := func() {}
	if rc.tr != nil {
		stopPoll = pollQueueDepth(s.local, &w.queuePeak)
	}
	cold := ph.run("cold", w.cold)
	stopPoll()
	sp.afterCold = s.local.Metrics()
	hot := ph.run("hot", w.hot)
	sp.atEnd = s.local.Metrics()

	for _, r := range hot.samples {
		if w.entries[r.entry].artifact {
			sp.hotArtifact = append(sp.hotArtifact, r.latency)
		} else {
			sp.hotSmall = append(sp.hotSmall, r.latency)
		}
	}
	for _, r := range cold.samples {
		if !r.cached {
			sp.coldMiss = append(sp.coldMiss, r.latency)
		}
	}
	sp.hotSmall, sp.hotArtifact, sp.coldMiss = sorted(sp.hotSmall), sorted(sp.hotArtifact), sorted(sp.coldMiss)
	if rc.tr == nil {
		w.passes = append(w.passes, sp)
	}
	return passResult{
		wall:         cold.wall + hot.wall,
		simWall:      cold.wall, // the hot phase simulates nothing
		cycles:       cold.cycles,
		instrs:       cold.instrs,
		jobs:         len(w.cold) + len(w.hot),
		coldJobsPerS: float64(len(w.cold)) / cold.wall,
		hotJobsPerS:  float64(len(w.hot)) / hot.wall,
		hotP50us:     percentile(sp.hotSmall, 0.5) * 1e6,
		hotArtP50ms:  percentile(sp.hotArtifact, 0.5) * 1e3,
	}, nil
}

// pollQueueDepth samples the engine's queue depth every 2 ms until the
// returned stop function is called.
func pollQueueDepth(e serve.Engine, peak *int) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				*peak = max(*peak, e.Metrics().QueueDepth)
			}
		}
	}()
	return func() { close(done); <-exited }
}

// phaseState is shared by the clients of one pass.
type phaseState struct {
	w    *serveMix
	rc   *runCtx
	url  string
	seed maphash.Seed

	mu  sync.Mutex
	ref []uint64 // per catalogue entry: hash of the first response payload seen
}

type reqSample struct {
	entry   int
	latency float64 // request written to response body fully read, seconds
	cached  bool
}

type phaseResult struct {
	wall           float64
	samples        []reqSample
	cycles, instrs uint64 // summed over the jobs this phase executed
}

// run sends seq from serveClients closed-loop clients that share one
// cursor, so the request bytes on the wire do not depend on scheduling.
func (ph *phaseState) run(name string, seq []int) phaseResult {
	var next atomic.Int64
	perClient := make([]phaseResult, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := name + "/c" + strconv.Itoa(c)
			root := ph.rc.tr.begin("client."+name, 0, req)
			defer ph.rc.tr.end(root)
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			out := &perClient[c]
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				ph.request(client, &buf, seq[i], name == "hot", root, req, out)
			}
		}(c)
	}
	wg.Wait()
	total := phaseResult{wall: time.Since(start).Seconds()}
	for _, p := range perClient {
		total.samples = append(total.samples, p.samples...)
		total.cycles += p.cycles
		total.instrs += p.instrs
	}
	return total
}

var cachedField = []byte(`"cached":`)

// request sends one job and checks the response: 200, and the payload
// equal to the first response for the same job but for the cached flag.
func (ph *phaseState) request(client *http.Client, buf *bytes.Buffer, e int, hot bool, root int, req string, out *phaseResult) {
	rc := ph.rc
	hr, err := http.NewRequest(http.MethodPost, ph.url, bytes.NewReader(ph.w.bodies[e]))
	if err != nil {
		rc.op(false, "job %d: %v", e, err)
		return
	}
	hr.Header.Set("Content-Type", "application/json")
	id := rc.tr.begin("http.roundtrip", root, req)
	if id != 0 {
		hr.Header.Set(spanHeader, strconv.Itoa(id))
	}
	start := time.Now()
	resp, err := client.Do(hr)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	latency := time.Since(start).Seconds()
	rc.tr.end(id)
	if err != nil || resp.StatusCode != http.StatusOK {
		rc.op(false, "job %d: %v %s", e, err, buf.Bytes())
		return
	}
	body := buf.Bytes()
	at := bytes.Index(body, cachedField)
	if at < 0 {
		rc.op(false, "job %d: response has no cached field", e)
		return
	}
	val := at + len(cachedField)
	cached := bytes.HasPrefix(body[val:], []byte("true"))
	end := val + len("false")
	if cached {
		end = val + len("true")
	}
	var h maphash.Hash
	h.SetSeed(ph.seed)
	h.Write(body[:val])
	h.Write(body[end:])
	sum := h.Sum64() | 1 // 0 marks "not seen yet"
	ph.mu.Lock()
	if ph.ref[e] == 0 {
		ph.ref[e] = sum
	}
	same := ph.ref[e] == sum
	ph.mu.Unlock()
	out.samples = append(out.samples, reqSample{entry: e, latency: latency, cached: cached})
	switch {
	case !same:
		rc.op(false, "job %d: payload differs from the first response for the same key", e)
	case hot && !cached:
		rc.op(false, "job %d: executed again in the hot phase", e)
	case cached:
		rc.op(true, "")
	default:
		var r struct {
			Sim *struct{ Cycles, Committed uint64 } `json:"sim"`
		}
		err := json.Unmarshal(body, &r)
		rc.op(err == nil, "job %d: decoding response: %v", e, err)
		if err == nil && r.Sim != nil {
			out.cycles += r.Sim.Cycles
			out.instrs += r.Sim.Committed
		}
	}
}

// tracedHandler and tracedEngine are the benchmark's own decorators
// around serve's handler and engine: they put http.handler and
// serve.submit spans under the client's http.roundtrip span.
type tracedHandler struct {
	inner http.Handler
	tr    *recorder
}

type spanKey struct{}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	id := h.tr.begin("http.handler", parent, "")
	h.inner.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
	h.tr.end(id)
}

type tracedEngine struct {
	inner serve.Engine
	tr    *recorder
}

func (e *tracedEngine) Submit(ctx context.Context, client string, spec *job.Spec) (*serve.Result, error) {
	parent, _ := ctx.Value(spanKey{}).(int)
	id := e.tr.begin("serve.submit", parent, "")
	defer e.tr.end(id)
	return e.inner.Submit(ctx, client, spec)
}

func (e *tracedEngine) Metrics() serve.Metrics { return e.inner.Metrics() }

func (w *serveMix) probes(rc *runCtx) error {
	pick := func(f func(servePass) float64) float64 {
		var xs []float64
		for _, p := range w.passes {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	rc.set("serve.hot_p99_us", pick(func(p servePass) float64 { return 1e6 * tailPercentile(p.hotSmall, 0.99) }))
	rc.set("serve.hot_p999_us", pick(func(p servePass) float64 { return 1e6 * tailPercentile(p.hotSmall, 0.999) }))
	rc.set("serve.cold_miss_p50_ms", pick(func(p servePass) float64 { return 1e3 * percentile(p.coldMiss, 0.5) }))
	rc.set("serve.cold_miss_p90_ms", pick(func(p servePass) float64 { return 1e3 * tailPercentile(p.coldMiss, 0.9) }))
	last := w.passes[len(w.passes)-1]
	rc.set("serve.executed", float64(last.atEnd.Executed))
	rc.set("serve.cache_hits", float64(last.atEnd.CacheHits))
	rc.set("serve.disk_hits", float64(last.atEnd.DiskHits))
	rc.set("serve.evictions", float64(last.atEnd.Evictions))
	rc.set("serve.spilled", float64(last.atEnd.Spilled))
	rc.set("serve.queue_depth_max", float64(w.queuePeak))
	rc.set("serve.hit_rate_cold", float64(last.afterCold.CacheHits+last.afterCold.DiskHits)/float64(last.afterCold.Jobs))
	hotP50 := pick(func(p servePass) float64 { return 1e6 * percentile(p.hotSmall, 0.5) })

	if err := serveProbe(rc, w, hotP50); err != nil {
		return err
	}
	if err := jobProbe(rc); err != nil {
		return err
	}
	return traceProbe(rc)
}

// serveProbe times the stages of a cache hit one at a time, in process:
// request decode, engine lookup, response encode (small and artifact),
// and a hit that has to come back from the spill directory.
func serveProbe(rc *runCtx, w *serveMix, hotP50us float64) error {
	dir, err := os.MkdirTemp(rc.tmp, "probe-spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	decode := func(e int) (*job.Spec, error) {
		var req serve.SubmitRequest
		if err := json.Unmarshal(w.bodies[e], &req); err != nil {
			return nil, err
		}
		return req.Job.Decode()
	}
	small, artifact := 0, 0
	for i, e := range w.entries {
		if e.wire.Op == "trace" && artifact == 0 {
			artifact = i
		}
	}
	local := serve.NewLocal(serve.Options{CacheEntries: serveCacheCap, SpillDir: filepath.Join(dir, "a")})
	results := map[int]*serve.Result{}
	for _, e := range []int{small, artifact} {
		spec, err := decode(e)
		if err == nil {
			results[e], err = local.Submit(ctx, "probe", spec)
		}
		if err != nil {
			return err
		}
	}

	rc.set("serve.decode_us", 1e6*perCall(func() {
		if _, e := decode(small); e != nil {
			err = e
		}
	}))
	spec, _ := decode(small)
	rc.set("serve.submit_hit_us", 1e6*perCall(func() {
		r, e := local.Submit(ctx, "probe", spec)
		if e != nil || !r.Cached {
			err = fmt.Errorf("resident key was not a hit: %v", e)
		}
	}))
	var buf bytes.Buffer
	encode := func(r *serve.Result) func() {
		return func() { // as serve's writeJSON does
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			if e := enc.Encode(r); e != nil {
				err = e
			}
		}
	}
	rc.set("serve.encode_us", 1e6*perCall(encode(results[small])))
	rc.set("serve.encode_artifact_us", 1e6*perCall(encode(results[artifact])))
	rc.set("serve.http_overhead_us", hotP50us-rc.get("serve.decode_us")-rc.get("serve.submit_hit_us")-rc.get("serve.encode_us"))

	// One resident slot and two keys: every submission finds its result
	// evicted and reads it back from the spill directory.
	tiny := serve.NewLocal(serve.Options{CacheEntries: 1, SpillDir: filepath.Join(dir, "b")})
	var pair []*job.Spec
	for _, e := range []int{small, small + 1} {
		s, e2 := decode(e)
		if e2 == nil {
			_, e2 = tiny.Submit(ctx, "probe", s)
		}
		if e2 != nil {
			return e2
		}
		pair = append(pair, s)
	}
	before := tiny.Metrics().DiskHits
	n := 0
	rc.set("serve.spill_load_us", 1e6*perCall(func() {
		if _, e := tiny.Submit(ctx, "probe", pair[n%2]); e != nil {
			err = e
		}
		n++
	}))
	rc.op(tiny.Metrics().DiskHits-before == uint64(n), "spill probe: %d of %d submissions were disk hits", tiny.Metrics().DiskHits-before, n)
	return err
}
