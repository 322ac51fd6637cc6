package analytic

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
)

func TestTruncatedCoordinationLimits(t *testing.T) {
	mttq := cluster.Seconds(10)
	const n = 8192
	full := ExpectedCoordinationTime(n, mttq)
	// No timeout → full expectation.
	if got := ExpectedCoordinationTruncated(n, mttq, 0); math.Abs(got-full) > 1e-12 {
		t.Fatalf("no-timeout truncation = %v, want %v", got, full)
	}
	// Huge timeout → approaches the full expectation.
	if got := ExpectedCoordinationTruncated(n, mttq, cluster.Minutes(30)); math.Abs(got-full)/full > 1e-3 {
		t.Fatalf("huge-timeout truncation = %v, want ≈ %v", got, full)
	}
	// Tiny timeout → approaches the timeout itself (almost surely hit).
	tiny := cluster.Seconds(5)
	if got := ExpectedCoordinationTruncated(n, mttq, tiny); math.Abs(got-tiny)/tiny > 0.01 {
		t.Fatalf("tiny-timeout truncation = %v, want ≈ %v", got, tiny)
	}
	// Monotone in the timeout.
	prev := 0.0
	for _, sec := range []float64{10, 40, 80, 120, 300} {
		got := ExpectedCoordinationTruncated(n, mttq, cluster.Seconds(sec))
		if got < prev {
			t.Fatalf("truncated expectation not monotone at %vs", sec)
		}
		prev = got
	}
	if ExpectedCoordinationTruncated(0, mttq, 1) != 0 {
		t.Fatal("degenerate n should give 0")
	}
}

// TestTruncatedMatchesSampling cross-checks the integral against direct
// sampling of min(Y, T).
func TestTruncatedMatchesSampling(t *testing.T) {
	const n = 4096
	mttq := cluster.Seconds(10)
	timeout := cluster.Seconds(100)
	want := ExpectedCoordinationTruncated(n, mttq, timeout)
	d := rng.MaxOfNExponentials{N: n, PerNodeMean: mttq}
	src := rng.New(7)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		y := d.Sample(src)
		if y > timeout {
			y = timeout
		}
		sum += y
	}
	got := sum / trials
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("sampled %v vs integral %v", got, want)
	}
}

func TestCoordinationEfficiencyLimits(t *testing.T) {
	mttq := cluster.Seconds(10)
	interval := cluster.Minutes(30)
	dump := cluster.Seconds(47)

	// Without failures (huge MTBF) and without timeout this reduces to
	// the failure-free fraction interval/(interval+E[Y]+dump).
	eff, p, err := CoordinationEfficiency(65536, mttq, 0, interval, dump, cluster.Minutes(10), 1e12)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("abort probability without timeout = %v", p)
	}
	want := FailureFreeFraction(interval, ExpectedCoordinationTime(65536, mttq), dump)
	if math.Abs(eff-want) > 1e-6 {
		t.Fatalf("failure-free coordination efficiency = %v, want %v", eff, want)
	}

	// A suicidal timeout (20 s at 64K processors) gives p ≈ 1, eff ≈ 0.
	eff, p, err = CoordinationEfficiency(65536, mttq, cluster.Seconds(20), interval, dump, cluster.Minutes(10), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.999 || eff > 1e-3 {
		t.Fatalf("collapse case: eff=%v p=%v", eff, p)
	}
}

// TestCoordinationEfficiencyReproducesFig6Ordering: the analytic model
// predicts the same timeout ordering the simulation shows at 8192
// processors with MTTF 3 yr (Figure 6): 120 s ≈ no timeout > 80 s ≫ 40 s.
func TestCoordinationEfficiencyReproducesFig6Ordering(t *testing.T) {
	mttq := cluster.Seconds(10)
	interval := cluster.Minutes(30)
	dump := cluster.Seconds(47)
	restart := cluster.Minutes(10)
	mtbf := cluster.Years(3) / 1024 // 1024 nodes

	eval := func(timeout float64) float64 {
		eff, _, err := CoordinationEfficiency(8192, mttq, timeout, interval, dump, restart, mtbf)
		if err != nil {
			t.Fatal(err)
		}
		return eff
	}
	noTimeout := eval(0)
	e120 := eval(cluster.Seconds(120))
	e80 := eval(cluster.Seconds(80))
	e40 := eval(cluster.Seconds(40))
	if math.Abs(e120-noTimeout) > 0.02 {
		t.Fatalf("120s (%v) should be close to no timeout (%v)", e120, noTimeout)
	}
	if !(e80 < e120-0.05) {
		t.Fatalf("80s (%v) should be clearly below 120s (%v)", e80, e120)
	}
	if !(e40 < e80) {
		t.Fatalf("40s (%v) should be below 80s (%v)", e40, e80)
	}
}

func TestCoordinationEfficiencyValidation(t *testing.T) {
	if _, _, err := CoordinationEfficiency(10, 1, 0, 0, 0, 0, 1); err == nil {
		t.Error("zero interval accepted")
	}
	if _, _, err := CoordinationEfficiency(0, 1, 0, 1, 0, 0, 1); err == nil {
		t.Error("zero n accepted")
	}
	if _, _, err := CoordinationEfficiency(10, -1, 0, 1, 0, 0, 1); err == nil {
		t.Error("negative mttq accepted")
	}
}
