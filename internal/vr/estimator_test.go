package vr

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// sameBits reports whether two floats are the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameConvergence(a, b stats.Convergence) bool {
	return a.N == b.N && sameBits(a.Mean, b.Mean) && sameBits(a.HalfWidth, b.HalfWidth) && sameBits(a.RelWidth, b.RelWidth)
}

func sameTrajectory(t *testing.T, what string, got, want []stats.Convergence) {
	t.Helper()
	if len(got) != len(want) || (got == nil) != (want == nil) {
		t.Fatalf("%s: %d snapshots (nil %v), want %d (nil %v)", what, len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		if !sameConvergence(got[i], want[i]) {
			t.Fatalf("%s: snapshot %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func sameInterval(t *testing.T, what string, got, want stats.Interval) {
	t.Helper()
	if got.N != want.N || !sameBits(got.Mean, want.Mean) || !sameBits(got.HalfWide, want.HalfWide) || got.Level != want.Level {
		t.Fatalf("%s: interval %+v, want %+v", what, got, want)
	}
}

// randomSequence draws a replication-value sequence of the given length
// from one of several shapes, including constant runs (zero variance) and
// heavy tails.
func randomSequence(r *rng.Stream, n int) []float64 {
	vals := make([]float64, n)
	shape := r.Intn(4)
	for i := range vals {
		switch shape {
		case 0:
			vals[i] = r.Float64()
		case 1:
			vals[i] = -math.Log(r.Float64Open()) * 1e4
		case 2:
			vals[i] = 0.9
		default:
			vals[i] = 0.9 + 1e-3*r.Float64()
		}
	}
	return vals
}

// The Estimator's interval, prefix half-widths, trajectory and report are
// bit-identical to folding the same values directly into a
// stats.Accumulator (plain) or stats.PairedAccumulator (antithetic), over
// random sequences of every length — odd lengths leave a trailing leg the
// paired fold must ignore.
func TestEstimatorMatchesDirectFold(t *testing.T) {
	const level = 0.95
	r := rng.New(77)
	for trial := 0; trial < 150; trial++ {
		vals := randomSequence(r, r.Intn(41))

		plain := NewEstimator(ModeNone, level)
		var acc stats.Accumulator
		var want []stats.Convergence
		for i, v := range vals {
			plain.Add(v)
			acc.Add(v)
			c := acc.Convergence(level)
			if acc.N() >= 2 {
				want = append(want, c)
			}
			if !sameBits(plain.HalfWidth(), c.HalfWidth) {
				t.Fatalf("trial %d plain prefix %d: width %v, want %v", trial, i+1, plain.HalfWidth(), c.HalfWidth)
			}
		}
		sameInterval(t, "plain", plain.Interval(), acc.CI(level))
		sameTrajectory(t, "plain", plain.Trajectory(), want)
		if plain.Report() != nil {
			t.Fatal("plain estimator reports variance reduction")
		}

		anti := NewEstimator(ModeAntithetic, level)
		var pacc stats.PairedAccumulator
		want = nil
		for i, v := range vals {
			anti.Add(v)
			if i%2 == 1 {
				pacc.AddPair(vals[i-1], v)
				if pacc.Pairs() >= 2 {
					pm := pacc.PairMeans()
					want = append(want, pm.Convergence(level))
				}
			}
			w := 0.0
			if pacc.Pairs() >= 2 {
				w = pacc.CI(level).HalfWide
			}
			if !sameBits(anti.HalfWidth(), w) {
				t.Fatalf("trial %d antithetic prefix %d: width %v, want %v", trial, i+1, anti.HalfWidth(), w)
			}
		}
		sameInterval(t, "antithetic", anti.Interval(), pacc.CI(level))
		sameTrajectory(t, "antithetic", anti.Trajectory(), want)
		wantRep := newReport(ModeAntithetic, pacc.Pairs(), pacc.VarianceReductionFactor(),
			pacc.LegCorrelation(), pacc.PairVariance(), pacc.LegVariance())
		if got := anti.Report(); got == nil || *got != *wantRep {
			t.Fatalf("trial %d antithetic report %+v, want %+v", trial, got, wantRep)
		}

		// A trailing unpaired leg changes nothing the estimate reports.
		even := NewEstimator(ModeAntithetic, level)
		even.Add(vals[:len(vals)/2*2]...)
		sameInterval(t, "trailing leg", anti.Interval(), even.Interval())
		sameTrajectory(t, "trailing leg", anti.Trajectory(), even.Trajectory())
		if *anti.Report() != *even.Report() {
			t.Fatalf("trial %d: trailing leg moved the report", trial)
		}
	}
}

func TestEstimatorTrajectory(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	e := NewEstimator(ModeNone, 0.95)
	e.Add(vals...)
	traj := e.Trajectory()
	if len(traj) != 4 {
		t.Fatalf("trajectory length = %d, want 4 (prefixes n>=2)", len(traj))
	}
	for i, c := range traj {
		if c.N != i+2 {
			t.Fatalf("entry %d has n=%d", i, c.N)
		}
	}
	// Half-widths shrink as evidence accumulates on this smooth sequence.
	if traj[len(traj)-1].HalfWidth >= traj[0].HalfWidth {
		t.Fatalf("half-width did not shrink: %v -> %v", traj[0].HalfWidth, traj[len(traj)-1].HalfWidth)
	}
	// The final entry must match folding everything into one accumulator.
	var a stats.Accumulator
	for _, v := range vals {
		a.Add(v)
	}
	if want := a.Convergence(0.95); traj[len(traj)-1] != want {
		t.Fatalf("final entry %+v != accumulator %+v", traj[len(traj)-1], want)
	}
	one := NewEstimator(ModeNone, 0.95)
	one.Add(7)
	if got := one.Trajectory(); got != nil {
		t.Fatalf("single-value trajectory = %v, want nil", got)
	}
}

// partitions splits vals into consecutive blocks of the given sizes.
func partitions(vals []float64, sizes []int) [][]float64 {
	var blocks [][]float64
	at := 0
	for _, s := range sizes {
		blocks = append(blocks, vals[at:at+s])
		at += s
	}
	return blocks
}

// Any block partition of the same sequence must produce the identical
// trajectory — this is what makes a sharded sweep's convergence record
// indistinguishable from the monolithic run's.
func TestEstimatorTrajectoryBlockInvariance(t *testing.T) {
	vals := []float64{0.93, 0.91, 0.97, 0.88, 0.95, 0.9, 0.94, 0.92, 0.96, 0.89}
	whole := NewEstimator(ModeNone, 0.95)
	whole.Add(vals...)
	want := whole.Trajectory()
	for _, sizes := range [][]int{{10}, {1, 3, 0, 6}, {5, 5}, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1}} {
		e := NewEstimator(ModeNone, 0.95)
		for _, blk := range partitions(vals, sizes) {
			e.Add(blk...)
		}
		sameTrajectory(t, "plain partition", e.Trajectory(), want)
	}
	if got := NewEstimator(ModeNone, 0.95).Trajectory(); got != nil {
		t.Fatalf("empty trajectory = %v, want nil", got)
	}
}

// The paired trajectory is identical at any block layout that keeps the
// flattened leg order — the reduce contract lifted to pairs.
func TestPairedEstimatorBlockInvariance(t *testing.T) {
	r := rng.New(21)
	legs := make([]float64, 48)
	for i := range legs {
		legs[i] = r.Float64()
	}
	whole := NewEstimator(ModeAntithetic, 0.95)
	whole.Add(legs...)
	want := whole.Trajectory()
	for _, sizes := range [][]int{{48}, {2, 46}, {8, 8, 8, 8, 8, 8}, {4, 20, 24}, {3, 17, 28}} {
		e := NewEstimator(ModeAntithetic, 0.95)
		for _, blk := range partitions(legs, sizes) {
			e.Add(blk...)
		}
		sameTrajectory(t, "paired layout", e.Trajectory(), want)
	}
}

func TestPairedEstimatorIgnoresTrailingLeg(t *testing.T) {
	legs := []float64{1, 2, 3, 4, 5}
	odd := NewEstimator(ModeAntithetic, 0.95)
	odd.Add(legs...)
	even := NewEstimator(ModeAntithetic, 0.95)
	even.Add(legs[:4]...)
	sameTrajectory(t, "trailing leg", odd.Trajectory(), even.Trajectory())
	sameInterval(t, "trailing leg", odd.Interval(), even.Interval())
	if odd.Report().Pairs != 2 {
		t.Fatalf("pairs = %d, want 2", odd.Report().Pairs)
	}
}

// Antithetic pairing must reach a target half-width in far fewer legs than
// plain folding on a monotone output; legs are what a run simulates, so
// the two counts are directly comparable.
func TestPairedEstimatorBeatsPlain(t *testing.T) {
	r := rng.New(55)
	const n = 4000
	plainVals := make([]float64, n)
	legs := make([]float64, n)
	for i := 0; i < n; i += 2 {
		u1, u2 := r.Float64Open(), r.Float64Open()
		plainVals[i] = -math.Log(u1)
		plainVals[i+1] = -math.Log(u2)
		legs[i] = -math.Log(u1)
		legs[i+1] = -math.Log(1 - u1)
	}
	plain := NewEstimator(ModeNone, 0.95)
	plain.Add(plainVals...)
	target := plain.HalfWidth()
	paired := NewEstimator(ModeAntithetic, 0.95)
	needed := -1
	for i, v := range legs {
		paired.Add(v)
		// Two pairs (four legs) before a half-width exists.
		if i+1 >= 4 && (i+1)%2 == 0 && paired.HalfWidth() <= target {
			needed = i + 1
			break
		}
	}
	if needed <= 0 {
		t.Fatalf("paired estimator never reached plain target %v", target)
	}
	if needed*2 > n {
		t.Fatalf("paired needed %d legs to match plain's %d-leg half-width; expected at least 2x fewer", needed, n)
	}
}
