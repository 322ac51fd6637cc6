package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/rng"
)

func TestYoungKnownValue(t *testing.T) {
	// δ = 56.8 s ≈ 0.01578 h (Table 3 dump+quiesce), system MTBF ≈ 1.07 h
	// (8192 nodes at 1 yr): τ_opt = √(2·δ·M) ≈ 0.184 h ≈ 11 min — the
	// paper's remark that the theoretical optimum is below 15 minutes.
	mtbf, err := SystemMTBF(8192, cluster.Years(1))
	if err != nil {
		t.Fatal(err)
	}
	tau, err := YoungOptimalInterval(cluster.Seconds(56.8), mtbf)
	if err != nil {
		t.Fatal(err)
	}
	if tau < cluster.Minutes(8) || tau > cluster.Minutes(15) {
		t.Fatalf("Young optimum = %v h, want under 15 minutes (paper §7.1)", tau)
	}
}

func TestYoungFormula(t *testing.T) {
	tau, err := YoungOptimalInterval(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tau-20) > 1e-12 {
		t.Fatalf("√(2·2·100) = %v, want 20", tau)
	}
}

func TestDalyReducesToYoungForSmallOverhead(t *testing.T) {
	// For δ ≪ M, Daly ≈ Young − δ + small correction.
	young, _ := YoungOptimalInterval(0.001, 1000)
	daly, err := DalyOptimalInterval(0.001, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(daly-young)/young > 0.01 {
		t.Fatalf("Daly %v far from Young %v at tiny overhead", daly, young)
	}
}

func TestDalyLargeOverheadClamp(t *testing.T) {
	daly, err := DalyOptimalInterval(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if daly != 4 {
		t.Fatalf("δ ≥ 2M should clamp to MTBF: got %v", daly)
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := YoungOptimalInterval(0, 1); err == nil {
		t.Error("Young accepted zero overhead")
	}
	if _, err := DalyOptimalInterval(1, 0); err == nil {
		t.Error("Daly accepted zero MTBF")
	}
	if _, err := Efficiency(0, 1, 1, 1); err == nil {
		t.Error("Efficiency accepted zero interval")
	}
	if _, err := Efficiency(1, -1, 1, 1); err == nil {
		t.Error("Efficiency accepted negative overhead")
	}
	if _, err := SystemMTBF(0, 1); err == nil {
		t.Error("SystemMTBF accepted zero nodes")
	}
}

func TestEfficiencyLimits(t *testing.T) {
	// With a huge MTBF and tiny overhead, efficiency approaches
	// τ/(τ+δ).
	eff, err := Efficiency(1, 0.01, 0.1, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eff-1/1.01) > 1e-4 {
		t.Fatalf("failure-free efficiency = %v, want ≈ %v", eff, 1/1.01)
	}
	// Tiny MTBF: efficiency collapses.
	eff2, err := Efficiency(1, 0.01, 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if eff2 > 0.01 {
		t.Fatalf("efficiency at MTBF≪τ = %v, want ≈0", eff2)
	}
}

func TestExpectedCoordinationTimeLogarithmic(t *testing.T) {
	mttq := cluster.Seconds(10)
	// Doubling n adds ≈ MTTQ·ln2 for large n.
	e1 := ExpectedCoordinationTime(1<<20, mttq)
	e2 := ExpectedCoordinationTime(1<<21, mttq)
	if math.Abs((e2-e1)-mttq*math.Ln2) > 1e-9 {
		t.Fatalf("doubling increment = %v, want MTTQ·ln2 = %v", e2-e1, mttq*math.Ln2)
	}
	if ExpectedCoordinationTime(0, mttq) != 0 || ExpectedCoordinationTime(5, 0) != 0 {
		t.Fatal("degenerate inputs should give 0")
	}
}

func TestCoordinationAbortProbability(t *testing.T) {
	mttq := cluster.Seconds(10)
	// Timeout far above E[Y]: almost never aborts.
	if p := CoordinationAbortProbability(8192, mttq, cluster.Minutes(10)); p > 1e-6 {
		t.Fatalf("huge timeout abort prob = %v", p)
	}
	// Timeout far below E[Y]: almost always aborts.
	if p := CoordinationAbortProbability(8192, mttq, cluster.Seconds(20)); p < 0.99 {
		t.Fatalf("tiny timeout abort prob = %v", p)
	}
	// Monotone decreasing in timeout.
	prev := 1.0
	for _, sec := range []float64{20, 40, 60, 80, 100, 120} {
		p := CoordinationAbortProbability(65536, mttq, cluster.Seconds(sec))
		if p > prev+1e-12 {
			t.Fatalf("abort probability not monotone at %vs", sec)
		}
		prev = p
	}
	if CoordinationAbortProbability(100, mttq, 0) != 0 {
		t.Fatal("no timeout should mean no aborts")
	}
}

// TestAbortProbabilityMatchesSampling cross-checks the closed form against
// direct sampling of the max-of-n distribution.
func TestAbortProbabilityMatchesSampling(t *testing.T) {
	const n = 4096
	mttq := cluster.Seconds(10)
	timeout := cluster.Seconds(80)
	want := CoordinationAbortProbability(n, mttq, timeout)
	d := rng.MaxOfNExponentials{N: n, PerNodeMean: mttq}
	src := rng.New(42)
	const trials = 50000
	aborts := 0
	for i := 0; i < trials; i++ {
		if d.Sample(src) > timeout {
			aborts++
		}
	}
	got := float64(aborts) / trials
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("sampled abort rate %v vs closed form %v", got, want)
	}
}

func TestFailureFreeFraction(t *testing.T) {
	if f := FailureFreeFraction(0.5, 0.0028, 0.013); math.Abs(f-0.5/(0.5+0.0028+0.013)) > 1e-12 {
		t.Fatalf("fraction = %v", f)
	}
	if FailureFreeFraction(0, 1, 1) != 0 {
		t.Fatal("zero interval should give 0")
	}
}

func TestSystemMTBF(t *testing.T) {
	m, err := SystemMTBF(8192, cluster.Years(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-cluster.Years(1)/8192) > 1e-12 {
		t.Fatalf("system MTBF = %v", m)
	}
}

// TestEfficiencyMonotoneInMTBF: more reliable systems are never less
// efficient, for arbitrary parameters.
func TestEfficiencyMonotoneInMTBF(t *testing.T) {
	f := func(iRaw, oRaw, mRaw uint16) bool {
		interval := float64(iRaw%1000+1) / 100
		overhead := float64(oRaw%100+1) / 1000
		m1 := float64(mRaw%100+1) / 10
		m2 := m1 * 2
		e1, err1 := Efficiency(interval, overhead, 0.1, m1)
		e2, err2 := Efficiency(interval, overhead, 0.1, m2)
		return err1 == nil && err2 == nil && e2 >= e1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
