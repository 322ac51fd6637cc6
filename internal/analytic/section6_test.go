package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

// The §6 birth–death relation between the conditional probability p of a
// follow-on failure and the correlated rate factor r (Figure 3). From the
// first failed state the chain leaves at λc = nλ(1+r) toward a second
// failure and at µ back to recovery, so p = λc/(λc+µ), which solves to
// r = pµ/((1−p)nλ) − 1.

func section6Factor(p float64, n int, lambda, mu float64) float64 {
	return p*mu/((1-p)*float64(n)*lambda) - 1
}

func section6Prob(r float64, n int, lambda, mu float64) float64 {
	lambdaC := float64(n) * lambda * (1 + r)
	return lambdaC / (lambdaC + mu)
}

// TestPaperExampleR600 pins the worked example of Section 6: n=1024,
// p=0.3, MTTR=10 min, MTTF=25 yr ⇒ r ≈ 600.
func TestPaperExampleR600(t *testing.T) {
	r := section6Factor(0.3, 1024, 1/cluster.Years(25), 1/cluster.Minutes(10))
	if r < 540 || r > 660 {
		t.Fatalf("r = %v, paper says about 600", r)
	}
}

// TestFactorProbRoundTrip checks that r = pµ/((1−p)nλ) − 1 inverts
// p = λc/(λc+µ) wherever the correlated factor is meaningful (λc ≥ λi).
func TestFactorProbRoundTrip(t *testing.T) {
	f := func(pRaw uint16, nRaw uint16) bool {
		p := float64(pRaw%900)/1000 + 0.05 // 0.05..0.95
		n := int(nRaw)%8192 + 1
		lambda, mu := 1/cluster.Years(3), 1/cluster.Minutes(10)
		r := section6Factor(p, n, lambda, mu)
		if r < -1 {
			return false
		}
		if r < 0 {
			return true // λc < λi: no meaningful correlated factor
		}
		return math.Abs(section6Prob(r, n, lambda, mu)-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFigure3MatchesSection6 solves the Figure 3 chain, truncated at six
// consecutive failures, for the paper's worked example and checks that the
// fraction of F1 departures that go deeper (to F2) rather than home is p.
// The chain is F0 →(λi)→ F1 →(λc)→ F2 → … with every Fi (i>0) returning to
// F0 at µ; its steady state follows from the flow balance of each Fi.
func TestFigure3MatchesSection6(t *testing.T) {
	const n, p, maxFailures = 1024, 0.3, 6
	lambda, mu := 1/cluster.Years(25), 1/cluster.Minutes(10)
	r := section6Factor(p, n, lambda, mu)
	lambdaI := float64(n) * lambda
	lambdaC := lambdaI * (1 + r)

	pi := make([]float64, maxFailures+1)
	pi[0] = 1
	pi[1] = pi[0] * lambdaI / (lambdaC + mu)
	for i := 2; i < maxFailures; i++ {
		pi[i] = pi[i-1] * lambdaC / (lambdaC + mu)
	}
	pi[maxFailures] = pi[maxFailures-1] * lambdaC / mu
	var total, recoveries float64
	for i, v := range pi {
		total += v
		if i > 0 {
			recoveries += v * mu
		}
	}
	for i := range pi {
		pi[i] /= total
	}
	// F0's balance is implied by the others; check it as the solve's witness.
	if in, out := recoveries/total, pi[0]*lambdaI; math.Abs(in-out)/out > 1e-9 {
		t.Fatalf("F0 balance: inflow %v, outflow %v", in, out)
	}

	deeper := pi[1] * lambdaC
	home := pi[1] * mu
	if got := deeper / (deeper + home); math.Abs(got-p) > 1e-9 {
		t.Fatalf("chain-implied p = %v, want %v", got, p)
	}
	// Failures are rare at 25-year MTTF, so the up fraction π₀ ≈ 1.
	if pi[0] < 0.99 {
		t.Fatalf("up fraction = %v", pi[0])
	}
}
