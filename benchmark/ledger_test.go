package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("one sample is its own quartiles, got %v %v %v", q1, med, q3)
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
}

func TestPercentileAndTenBeyondRule(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 0.5); got != 500 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(s, 0.99); got != 990 {
		t.Errorf("p99 = %v", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true},     // 10 beyond
		{999, 0.99, false},     // 9 beyond
		{30000, 0.999, true},   // the hot phase's p99.9
		{160, 0.9, true},       // the cold misses' p90
		{160, 0.99, false},     // but not their p99
		{29999, 0.9999, false}, // 2 beyond
	} {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if tailPercentile(s[:100], 0.99) != 0 {
		t.Error("an under-sampled tail must read 0")
	}
	if tailPercentile(s, 0.99) != 990 {
		t.Error("a well-sampled tail must read through")
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50}, // overlaps span 2: coverage is the union
		{ID: 4, Parent: 1, Name: "b", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "c", Start: 62, End: 80},  // leaks past its parent: clipped
		{ID: 6, Parent: 0, Name: "open", Start: 5, End: 0}, // never ended: ignored
	}
	self, roots := selfTimes(spans)
	if want := []int64{50, 20, 30, 2, 18, 0}; !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if roots != 100 {
		t.Errorf("root total %d, want 100", roots)
	}

	// Properly nested, sequential spans: self times add up to the root.
	nested := []span{
		{ID: 1, Name: "pass", Start: 0, End: 90},
		{ID: 2, Parent: 1, Name: "x", Start: 0, End: 40},
		{ID: 3, Parent: 2, Name: "y", Start: 5, End: 25},
		{ID: 4, Parent: 1, Name: "x", Start: 40, End: 85},
	}
	self, roots = selfTimes(nested)
	if total := int64(sum64(self)); total != roots {
		t.Errorf("nested self times sum to %d, root is %d", total, roots)
	}
}

func sum64(xs []int64) (t int64) {
	for _, x := range xs {
		t += x
	}
	return t
}

func TestRecorderNilIsUntraced(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, "")
	r.end(id)
	if id != 0 || r.snapshot() != nil {
		t.Error("a nil recorder must record nothing")
	}
	r = newRecorder()
	a := r.begin("outer", 0, "req")
	b := r.begin("inner", a, "") // inherits the request id
	r.end(b)
	r.end(a)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != a || s[1].Req != "req" || s[0].End < s[1].End || s[1].Start < s[0].Start {
		t.Errorf("spans not nested: %+v", s)
	}
}

func TestJobMixIsAPureFunctionOfTheSeed(t *testing.T) {
	es := catalogue()
	counts := map[string]int{}
	keys := map[string]bool{}
	for _, e := range es {
		class := "workload"
		switch {
		case e.wire.Op == "assemble" || e.wire.Op == "trace":
			class = e.wire.Op
		case e.wire.Snapshot:
			class = "snapshot"
		case e.wire.Source != "":
			class = "source"
		}
		counts[class]++
		if (class == "workload" || class == "source") == e.artifact {
			t.Errorf("%s job has artifact=%v", class, e.artifact)
		}
		spec, err := e.wire.Decode()
		if err != nil {
			t.Fatalf("%s job does not decode: %v", class, err)
		}
		key, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[key] = true
	}
	want := map[string]int{"workload": 80, "source": 30, "assemble": 20, "trace": 20, "snapshot": 10}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("catalogue classes %v, want %v", counts, want)
	}
	if len(keys) != 160 {
		t.Errorf("%d distinct job keys, want 160", len(keys))
	}

	wire := func(seed int64) []byte {
		bodies, err := requestBodies(catalogue())
		if err != nil {
			t.Fatal(err)
		}
		cold, hot := plan(seed, len(bodies))
		if len(cold) != coldRequests || len(hot) != hotRequests {
			t.Fatalf("plan lengths %d/%d", len(cold), len(hot))
		}
		seen := map[int]bool{}
		var b bytes.Buffer
		for _, i := range cold {
			seen[i] = true
			b.Write(bodies[i])
		}
		if len(seen) != len(bodies) {
			t.Errorf("seed %d: the cold phase touches %d of %d jobs, so the hot phase would miss", seed, len(seen), len(bodies))
		}
		for _, i := range hot {
			b.Write(bodies[i])
		}
		return b.Bytes()
	}
	a, again, other := wire(7), wire(7), wire(8)
	if !bytes.Equal(a, again) {
		t.Error("the same seed must issue byte-identical requests")
	}
	if bytes.Equal(a, other) {
		t.Error("a different seed must issue a different mix")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTablesMeetTheContract(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind string, ds []metricDef) {
		for _, d := range ds {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s metric %q (unit %q) is outside the contract's alphabet", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better=%q", d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("%s is declared twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end-to-end", endToEnd)
	check("per-layer", perLayer)
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	widest := 0.0
	for _, d := range endToEnd {
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		widest = max(widest, d.Bound)
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" || d.Bound != widest {
		t.Errorf("setup_s must be declared in seconds, lower-is-better, with the widest bound: %+v", d)
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	for name := range exactLayer {
		if !seen[name] {
			t.Errorf("exactLayer names undeclared metric %q", name)
		}
	}
	if len(workloadDefs) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(workloadDefs), len(workloads))
	}
	for _, w := range workloadDefs {
		if workloads[w.Name] == nil || !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: unimplemented, misnamed, or its why is over 200 characters", w.Name)
		}
	}
}

func TestBenchmarkJSONIsWhatTheHarnessEmits(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the metric tables: regenerate it with `bash benchmark/run.sh -describe > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
}

func TestFoldTopSharesSumTo100(t *testing.T) {
	top := `File: ledger
Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      470ms 47.00%  multiscalar/internal/pu.(*Unit).tryIssue
     100ms 10.00% 50.00%      100ms 10.00%  multiscalar/internal/pu.qpush[go.shape.45aa] (inline)
     200ms 20.00% 70.00%      200ms 20.00%  runtime.mallocgc
     100ms 10.00% 80.00%      100ms 10.00%  encoding/json.(*encodeState).string
      50ms  5.00% 85.00%       50ms  5.00%  multiscalar/internal/isa.Op.IsControl (inline)
      50ms  5.00% 90.00%       50ms  5.00%  internal/runtime/atomic.(*Uint32).Load
     100ms 10.00%   100%      100ms 10.00%  <unknown>
`
	shares, err := foldTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"pu": 50, "runtime": 25, "json_http": 10, "other": 15}
	total := 0.0
	for g, v := range shares {
		total += v
		if math.Abs(v-want[g]) > 1e-9 {
			t.Errorf("hostshare.%s = %v, want %v", g, v, want[g])
		}
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	for frame, pkg := range map[string]string{
		"multiscalar/internal/core.(*Multiscalar).Run": "multiscalar/internal/core",
		"net/http.(*conn).serve":                       "net/http",
		"runtime.memmove":                              "runtime",
		"main.(*phaseState).request":                   "main",
	} {
		if got := framePackage(frame); got != pkg {
			t.Errorf("framePackage(%q) = %q, want %q", frame, got, pkg)
		}
	}
	if _, err := foldTop("no table here"); err == nil {
		t.Error("output without samples must be an error")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.08}
	higher := metricDef{Name: "sim_mcps", Better: "higher", Bound: 0.08}
	exact := metricDef{Name: "sim_cycles", Better: "lower"}
	tight := func(v float64) metricValue { return metricValue{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 5} }
	for _, c := range []struct {
		d    metricDef
		a, b metricValue
		want string
	}{
		{lower, tight(10), tight(10.5), "ok"},
		{lower, tight(10), tight(11), "REGRESSED"},
		{lower, tight(10), tight(5), "ok"},
		{higher, tight(10), tight(9), "REGRESSED"},
		{higher, tight(10), tight(12), "ok"},
		{lower, tight(10), metricValue{Value: 11, Q1: 10, Q3: 12, N: 5}, "unresolved"},
		{exact, metricValue{Value: 100}, metricValue{Value: 100}, "ok"},
		{exact, metricValue{Value: 100}, metricValue{Value: 99}, "DIFFERENT"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %v -> %v judged %s, want %s", c.d.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
