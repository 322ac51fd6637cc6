package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestPairedAccumulatorMeanMatchesLegs(t *testing.T) {
	var p PairedAccumulator
	var flat Accumulator
	r := rng.New(4)
	for i := 0; i < 500; i++ {
		a, b := r.Float64(), r.Float64()
		p.AddPair(a, b)
		flat.Add(a)
		flat.Add(b)
	}
	if math.Abs(p.Mean()-flat.Mean()) > 1e-12 {
		t.Fatalf("paired mean %v != flat mean %v", p.Mean(), flat.Mean())
	}
	if p.Pairs() != 500 || p.Legs() != 1000 {
		t.Fatalf("counts pairs=%d legs=%d, want 500/1000", p.Pairs(), p.Legs())
	}
	if math.Abs(p.LegVariance()-flat.Variance()) > 1e-12 {
		t.Fatalf("leg variance %v != flat variance %v", p.LegVariance(), flat.Variance())
	}
}

// Perfectly anticorrelated pairs (b = 1−a) collapse the pair variance to
// zero and the variance-reduction factor to +Inf; independent pairs leave
// it near 1; positively correlated pairs push it below 1.
func TestVarianceReductionFactorRegimes(t *testing.T) {
	r := rng.New(9)
	var anti, indep, comono PairedAccumulator
	for i := 0; i < 4000; i++ {
		a := r.Float64()
		anti.AddPair(a, 1-a)
		indep.AddPair(a, r.Float64())
		comono.AddPair(a, a)
	}
	if f := anti.VarianceReductionFactor(); !math.IsInf(f, 1) {
		t.Errorf("antithetic factor = %v, want +Inf", f)
	}
	if f := indep.VarianceReductionFactor(); f < 0.8 || f > 1.25 {
		t.Errorf("independent factor = %v, want ≈ 1", f)
	}
	if f := comono.VarianceReductionFactor(); f > 0.6 {
		t.Errorf("comonotone factor = %v, want ≈ 0.5", f)
	}
	if rho := anti.LegCorrelation(); rho > -0.99 {
		t.Errorf("antithetic leg correlation = %v, want ≈ -1", rho)
	}
	if rho := comono.LegCorrelation(); rho < 0.99 {
		t.Errorf("comonotone leg correlation = %v, want ≈ 1", rho)
	}
}

func TestPairedCIUsesPairCount(t *testing.T) {
	var p PairedAccumulator
	r := rng.New(12)
	for i := 0; i < 30; i++ {
		p.AddPair(r.Float64(), r.Float64())
	}
	iv := p.CI(0.95)
	if iv.N != 30 {
		t.Fatalf("CI over pairs has N=%d, want 30", iv.N)
	}
	if iv.HalfWide <= 0 || math.IsInf(iv.HalfWide, 0) {
		t.Fatalf("CI half-width %v not finite positive", iv.HalfWide)
	}
}

func TestReplicationsToHalfWidth(t *testing.T) {
	r := rng.New(33)
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = r.Float64()
	}
	var all Accumulator
	for _, v := range vals {
		all.Add(v)
	}
	target := all.CI(0.95).HalfWide * 2
	n := ReplicationsToHalfWidth(vals, 0.95, target)
	if n <= 0 || n > len(vals) {
		t.Fatalf("ReplicationsToHalfWidth = %d, want in (0, %d]", n, len(vals))
	}
	// Verify it is the first crossing.
	var acc Accumulator
	for i := 0; i < n-1; i++ {
		acc.Add(vals[i])
		if acc.N() >= 2 && acc.CI(0.95).HalfWide <= target {
			t.Fatalf("crossing already at %d < reported %d", i+1, n)
		}
	}
	if ReplicationsToHalfWidth(vals, 0.95, 0) != -1 {
		t.Fatalf("unreachable target did not return -1")
	}
}
