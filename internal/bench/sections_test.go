package bench

import (
	"strings"
	"testing"
	"time"
)

func TestParseSectionsValid(t *testing.T) {
	sel, err := ParseSections("table2, sweep ,,sampled")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 || !sel["table2"] || !sel["sweep"] || !sel["sampled"] {
		t.Fatalf("selection %v", sel)
	}
	if sel, err := ParseSections(""); err != nil || len(sel) != 0 {
		t.Fatalf("empty value: sel=%v err=%v", sel, err)
	}
}

// TestParseSectionsUnknownListsValidNames pins the fix: an unknown name
// errors and the error enumerates every valid section, rather than
// silently selecting nothing.
func TestParseSectionsUnknownListsValidNames(t *testing.T) {
	_, err := ParseSections("table2,bogus")
	if err == nil {
		t.Fatal("unknown section accepted")
	}
	for _, name := range SectionNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list valid section %q", err, name)
		}
	}
	if !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("error %q does not name the offending section", err)
	}
}

// TestSectionsMatchSequential is the determinism contract for the one
// fan-out: the whole -all table, every section overlapping every other,
// renders byte-identically on one runner and on many, and reports one
// timed section per row in registry order.
func TestSectionsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the -all table three times")
	}
	sel := map[string]bool{}
	for _, name := range AllSections() {
		sel[name] = true
	}
	var want string
	for _, w := range []int{1, 2, 8} {
		var out strings.Builder
		ResetMemo()
		withWorkers(t, w, func() {
			secs, err := RunSections(sel, Options{Scale: -1}, &out)
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range AllSections() {
				if secs[i].Name != name {
					t.Fatalf("workers=%d: section %d is %q, want %q", w, i, secs[i].Name, name)
				}
			}
		})
		if w == 1 {
			want = out.String()
		} else if out.String() != want {
			t.Errorf("workers=%d: -all output differs from one worker's:\n--- 1 ---\n%s--- %d ---\n%s", w, want, w, out.String())
		}
	}
}

// TestSectionSecondsSumToWall pins the -json report's meaning when
// sections overlap: a section's seconds run from the previous section's
// output being ready to its own, so a section that finished before its
// predecessor costs (almost) nothing, none is negative, output keeps
// registry order, and the sections sum to the fan-out's wall time.
func TestSectionSecondsSumToWall(t *testing.T) {
	sleepy := func(d time.Duration, text string) block {
		return func(Options) (string, error) {
			time.Sleep(d)
			return text, nil
		}
	}
	rows := []section{
		{"slow", true, []block{sleepy(80*time.Millisecond, "a0")}},
		{"fast", true, []block{sleepy(time.Millisecond, "b0"), sleepy(time.Millisecond, "b1")}},
		{"mid", true, []block{sleepy(20*time.Millisecond, "c0")}},
	}
	var out strings.Builder
	var secs []Section
	var err error
	start := time.Now()
	withWorkers(t, 4, func() { secs, err = runSections(rows, Options{}, &out) })
	wall := time.Since(start).Seconds()
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "a0\nb0\nb1\nc0\n" {
		t.Fatalf("output %q not in registry order", got)
	}
	r := &Report{Sections: secs}
	if _, err := r.Finalize(); err != nil {
		t.Fatal(err)
	}
	for i, s := range secs {
		if s.Name != rows[i].name || s.Seconds < 0 {
			t.Errorf("section %d: %+v", i, s)
		}
	}
	if secs[1].Seconds > 0.02 {
		t.Errorf("fast section, done before slow, charged %.3fs", secs[1].Seconds)
	}
	if r.TotalSeconds < 0.08 || r.TotalSeconds > wall {
		t.Errorf("total_seconds %.3f, want between the slowest section (0.08) and the wall time %.3f", r.TotalSeconds, wall)
	}
}

func TestParseSectionsSuggestsClosest(t *testing.T) {
	_, err := ParseSections("tabel2")
	if err == nil || !strings.Contains(err.Error(), `did you mean "table2"?`) {
		t.Fatalf("typo suggestion missing: %v", err)
	}
	// A name nothing like any section gets no speculative suggestion.
	_, err = ParseSections("zzzzzzzz")
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("implausible suggestion: %v", err)
	}
}
