package model

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/san"
)

// TestBreakdownSumsToOne: the macro states partition wall time.
func TestBreakdownSumsToOne(t *testing.T) {
	configs := map[string]cluster.Config{
		"reliable": reliable(),
		"base":     cluster.Default(),
		"stressed": func() cluster.Config {
			c := cluster.Default()
			c.MTTFPerNode = cluster.Years(0.25)
			c.SevereFailureThreshold = 3
			return c
		}(),
		"blocking": func() cluster.Config {
			c := cluster.Default()
			c.BlockingCheckpointWrite = true
			return c
		}(),
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			in := mustNew(t, cfg, 60)
			m, err := in.RunSteadyState(100, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if s := m.Breakdown.Sum(); math.Abs(s-1) > 1e-9 {
				t.Fatalf("breakdown sums to %v: %+v", s, m.Breakdown)
			}
		})
	}
}

// TestBreakdownFailureFree: a reliable system spends no time recovering or
// rebooting, and its execution share matches the useful-work fraction.
func TestBreakdownFailureFree(t *testing.T) {
	in := mustNew(t, reliable(), 61)
	m, err := in.RunSteadyState(100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b := m.Breakdown
	if b.Recovery != 0 || b.Reboot != 0 || b.FSWait != 0 {
		t.Fatalf("reliable system has failure-time: %+v", b)
	}
	if math.Abs(b.Execution-m.UsefulWorkFraction) > 1e-9 {
		t.Fatalf("execution %v != useful fraction %v without failures", b.Execution, m.UsefulWorkFraction)
	}
	if m.RepeatedWorkFraction != 0 {
		t.Fatalf("repeated work on reliable system: %v", m.RepeatedWorkFraction)
	}
	if b.Quiesce <= 0 || b.Dump <= 0 {
		t.Fatalf("checkpoint phases missing from breakdown: %+v", b)
	}
	// Quiesce ≈ 10 s per ~31 min cycle; dump ≈ 46.8 s per cycle.
	if b.Dump < b.Quiesce {
		t.Fatalf("dump share %v should exceed quiesce share %v (46.8s vs 10s)", b.Dump, b.Quiesce)
	}
}

// TestBreakdownPaperHeadline: at the Figure 4a peak (128K procs, MTTF
// 1 yr) more than half the machine's time goes to failure handling —
// repeated work + recovery + reboot (§7.1: "over 50% of system time is
// spent in handling failures").
func TestBreakdownPaperHeadline(t *testing.T) {
	cfg := cluster.Default()
	cfg.Processors = 128 * 1024
	in := mustNew(t, cfg, 62)
	m, err := in.RunSteadyState(500, 3000)
	if err != nil {
		t.Fatal(err)
	}
	failureShare := m.RepeatedWorkFraction + m.Breakdown.Recovery + m.Breakdown.Reboot
	if failureShare < 0.4 {
		t.Fatalf("failure handling share = %v, paper says > 0.5 at the peak", failureShare)
	}
	if m.UsefulWorkFraction+failureShare > 1.0+1e-9 {
		t.Fatalf("useful + failure share exceed 1: %v + %v", m.UsefulWorkFraction, failureShare)
	}
}

// TestBreakdownBlockingWriteHasFSWait: the blocking ablation shows up as a
// non-zero FSWait share close to writeTime/interval.
func TestBreakdownBlockingWriteHasFSWait(t *testing.T) {
	cfg := reliable()
	cfg.BlockingCheckpointWrite = true
	in := mustNew(t, cfg, 63)
	m, err := in.RunSteadyState(100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.CheckpointFSWriteTime() / cfg.CheckpointInterval
	if m.Breakdown.FSWait < want*0.5 || m.Breakdown.FSWait > want*1.5 {
		t.Fatalf("FSWait share = %v, want ≈ %v", m.Breakdown.FSWait, want)
	}
}

// TestBreakdownRecoveryGrowsWithFailures: recovery share increases with
// the failure rate.
func TestBreakdownRecoveryGrowsWithFailures(t *testing.T) {
	shares := make([]float64, 0, 2)
	for i, mttf := range []float64{2, 0.25} {
		cfg := cluster.Default()
		cfg.MTTFPerNode = cluster.Years(mttf)
		in := mustNew(t, cfg, uint64(64+i))
		m, err := in.RunSteadyState(200, 1500)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, m.Breakdown.Recovery)
	}
	if shares[1] <= shares[0] {
		t.Fatalf("recovery share did not grow with failure rate: %v", shares)
	}
}

func TestBreakdownZeroWindow(t *testing.T) {
	var from, to [6]float64
	if b := breakdownBetween(from, to, 0); b.Sum() != 0 {
		t.Fatal("zero window should give empty breakdown")
	}
}

func TestBreakdownOverhead(t *testing.T) {
	b := Breakdown{Execution: 0.7, Quiesce: 0.1, Dump: 0.1, Recovery: 0.1}
	if math.Abs(b.Overhead()-0.3) > 1e-12 {
		t.Fatalf("overhead = %v", b.Overhead())
	}
}

// TestLostWorkStatistics: with a 30-minute interval, failures land
// uniformly within the cycle, so the mean rollback discards roughly a
// quarter hour of work (plus protocol-phase losses), and no single
// rollback can exceed a couple of intervals under independent failures.
func TestLostWorkStatistics(t *testing.T) {
	cfg := cluster.Default()
	in := mustNew(t, cfg, 66)
	m, err := in.RunSteadyState(300, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters.ComputeFailures == 0 {
		t.Fatal("no failures to measure")
	}
	if m.MeanLostWorkPerFailure < 0.15 || m.MeanLostWorkPerFailure > 0.45 {
		t.Fatalf("mean lost work = %v h, want ≈ 0.25-0.3 h", m.MeanLostWorkPerFailure)
	}
	if m.MaxLostWork < m.MeanLostWorkPerFailure {
		t.Fatalf("max %v below mean %v", m.MaxLostWork, m.MeanLostWorkPerFailure)
	}
	// Consistency: repeated-work share ≈ failures × meanLost / time.
	approx := float64(m.Counters.ComputeFailures) * m.MeanLostWorkPerFailure / (3000 + 300)
	if m.RepeatedWorkFraction < approx*0.6 || m.RepeatedWorkFraction > approx*1.5 {
		t.Fatalf("repeated-work %v inconsistent with loss stats %v", m.RepeatedWorkFraction, approx)
	}
}

// TestNoLossWithoutFailures: the loss statistics stay zero on a reliable
// system.
func TestNoLossWithoutFailures(t *testing.T) {
	in := mustNew(t, reliable(), 67)
	m, err := in.RunSteadyState(50, 500)
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanLostWorkPerFailure != 0 || m.MaxLostWork != 0 {
		t.Fatalf("loss stats nonzero on reliable system: %v / %v", m.MeanLostWorkPerFailure, m.MaxLostWork)
	}
}

// TestOccupancyRewardsMatchReplacedClosures is a property test over random
// markings of the paper net: each occupancy reward — useful-work progress
// and the five single-place state rewards — has the same rate as the
// closure it replaced. (That the compiled occupancy mask agrees with the
// reward's rate closure is san's TestCompiledMasksAgreeOnPaperNet.)
func TestOccupancyRewardsMatchReplacedClosures(t *testing.T) {
	in, err := New(cluster.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pl := in.pl
	ind := func(p *san.Place) func(m *san.Marking) float64 {
		return func(m *san.Marking) float64 {
			if m.Has(p) {
				return 1
			}
			return 0
		}
	}
	replaced := []struct {
		reward *san.RateReward
		rate   func(m *san.Marking) float64
	}{
		{in.progress, func(m *san.Marking) float64 {
			if m.Has(pl.execution) && m.Has(pl.sysUp) {
				return 1
			}
			return 0
		}},
		{in.states.execution, ind(pl.execution)},
		{in.states.quiesce, ind(pl.quiescing)},
		{in.states.dump, ind(pl.checkpointing)},
		{in.states.fsWait, ind(pl.fsWait)},
		{in.states.reboot, ind(pl.rebooting)},
	}
	mk := in.sim.Marking()
	places := in.mod.Places()
	src := rng.New(9)
	for trial := 0; trial < 2000; trial++ {
		for _, p := range places {
			mk.Set(p, int(src.Uint64()%3))
		}
		for _, r := range replaced {
			if got, want := r.reward.Rate(mk), r.rate(mk); got != want {
				t.Fatalf("trial %d: reward %q rate %v, replaced closure %v (marking %s)",
					trial, r.reward.Name, got, want, in.sim.DescribeMarking())
			}
		}
	}
}
