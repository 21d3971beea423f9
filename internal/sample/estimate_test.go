package sample

import (
	"math"
	"testing"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStdErrGolden(t *testing.T) {
	cases := []struct {
		name               string
		xs                 []float64
		mean, vari, stderr float64
	}{
		{"empty", nil, 0, 0, 0},
		{"single", []float64{2.5}, 2.5, 0, 0},
		{"constant", []float64{3, 3, 3, 3}, 3, 0, 0},
		// variance = ((1.5)^2*2 + (0.5)^2*2)/3 = 5/3; stderr = sqrt(5/12)
		{"spread", []float64{1, 2, 3, 4}, 2.5, 5.0 / 3.0, math.Sqrt(5.0 / 12.0)},
		// classic: mean 2, unbiased variance 1
		{"unit", []float64{1, 2, 3}, 2, 1, math.Sqrt(1.0 / 3.0)},
	}
	for _, c := range cases {
		mean, vari, stderr := meanStdErr(c.xs)
		if !almost(mean, c.mean, 1e-12) || !almost(vari, c.vari, 1e-12) || !almost(stderr, c.stderr, 1e-12) {
			t.Errorf("%s: got mean=%g var=%g stderr=%g, want %g %g %g",
				c.name, mean, vari, stderr, c.mean, c.vari, c.stderr)
		}
	}
}

func TestTCritGolden(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{0, 0}, {1, 12.706}, {2, 4.303}, {5, 2.571}, {10, 2.228},
		{29, 2.045}, {35, 2.021}, {50, 2.000}, {100, 1.980}, {1000, 1.960},
	}
	for _, c := range cases {
		if got := tCrit(c.df); got != c.want {
			t.Errorf("tCrit(%d) = %g, want %g", c.df, got, c.want)
		}
	}
	// Monotone non-increasing in df: more observations never widen the CI.
	prev := tCrit(1)
	for df := 2; df <= 200; df++ {
		cur := tCrit(df)
		if cur > prev {
			t.Fatalf("tCrit not monotone at df=%d: %g > %g", df, cur, prev)
		}
		prev = cur
	}
}

func TestConfidenceIntervalGolden(t *testing.T) {
	// n=5 (df=4, t=2.776): mean 10, stderr 0.5 → half-width 1.388
	lo, hi := confidenceInterval(10, 0.5, 5)
	if !almost(lo, 10-1.388, 1e-9) || !almost(hi, 10+1.388, 1e-9) {
		t.Errorf("CI = [%g, %g], want [8.612, 11.388]", lo, hi)
	}
	// Zero stderr collapses to a point.
	lo, hi = confidenceInterval(7, 0, 9)
	if lo != 7 || hi != 7 {
		t.Errorf("zero-stderr CI = [%g, %g], want point 7", lo, hi)
	}
	// The lower bound clamps at zero: CPIs cannot be negative.
	lo, _ = confidenceInterval(0.1, 1.0, 4)
	if lo != 0 {
		t.Errorf("lower bound %g, want clamp to 0", lo)
	}
}

func TestRegimeDerivation(t *testing.T) {
	p := regime(1_000_000, 2_000, 8) // avg task 500 instrs
	if p.WarmupInstrs != 2*8*500 {
		t.Errorf("warm-up %d, want %d (two pipeline-fills of tasks)", p.WarmupInstrs, 2*8*500)
	}
	if p.WindowInstrs != 2*p.WarmupInstrs {
		t.Errorf("window %d, want twice the warm-up %d", p.WindowInstrs, p.WarmupInstrs)
	}
	if p.PeriodInstrs == 0 || p.OffsetInstrs != p.PeriodInstrs/4 {
		t.Errorf("period %d / offset %d: offset should be period/4", p.PeriodInstrs, p.OffsetInstrs)
	}
	if p.BiasFrac != 0.02 {
		t.Errorf("bias allowance %g, want 0.02", p.BiasFrac)
	}
}

func TestSchedule(t *testing.T) {
	p := Params{WindowInstrs: 200, WarmupInstrs: 100, PeriodInstrs: 1000, OffsetInstrs: 250}
	pts := p.schedule(3300)
	want := []uint64{250, 1250, 2250} // 3250+300 > 3300 excludes the fourth
	if len(pts) != len(want) {
		t.Fatalf("schedule = %v, want %v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", pts, want)
		}
	}
	if got := p.schedule(200); got != nil {
		t.Errorf("run shorter than a span scheduled windows: %v", got)
	}
}
