// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section 7). Each BenchmarkFigNx regenerates the corresponding
// figure at a reduced-but-faithful scale (the full paper scale is
// cmd/ccfigures -paper) and reports the figure's headline shape metric so
// regressions in the reproduced science surface as metric changes:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/cyclesim"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/runner"
)

// benchOpts keeps every figure benchmark in the seconds range while
// preserving the shapes (hundreds of failures per cell at paper scale).
func benchOpts() runner.Options {
	return runner.Options{Replications: 2, Warmup: 100, Measure: 600, Seed: 12345}
}

// runFigure executes one experiment per iteration and returns the last
// result for metric extraction.
func runFigure(b *testing.B, id string) *experiments.Figure {
	b.Helper()
	def, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		fig, err = def.Run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

// optimumX reports the x value at which the named series peaks.
func optimumX(b *testing.B, fig *experiments.Figure, series string) float64 {
	b.Helper()
	x, _, ok := fig.ArgMax(fig.SeriesByName(series))
	if !ok {
		b.Fatalf("series %q missing or empty", series)
	}
	return x
}

// BenchmarkFig4a — total useful work vs processors per MTTF. Shape: the
// MTTF=1yr optimum sits at an interior processor count (paper: 128K).
func BenchmarkFig4a(b *testing.B) {
	fig := runFigure(b, "fig4a")
	b.ReportMetric(optimumX(b, fig, "MTTF=1yr"), "opt-procs@1yr")
	b.ReportMetric(optimumX(b, fig, "MTTF=0.5yr"), "opt-procs@0.5yr")
}

// BenchmarkFig4b — useful work vs interval per processor count. Shape: no
// interior optimum; 15 min is best for every machine size.
func BenchmarkFig4b(b *testing.B) {
	fig := runFigure(b, "fig4b")
	b.ReportMetric(optimumX(b, fig, "procs=65536"), "opt-interval-min@64K")
	b.ReportMetric(optimumX(b, fig, "procs=262144"), "opt-interval-min@256K")
}

// BenchmarkFig4c — useful work vs processors per MTTR. Shape: optimum
// machine size shrinks as MTTR grows (paper: 128K@20min → 64K@40min).
func BenchmarkFig4c(b *testing.B) {
	fig := runFigure(b, "fig4c")
	b.ReportMetric(optimumX(b, fig, "MTTR=20min"), "opt-procs@20min")
	b.ReportMetric(optimumX(b, fig, "MTTR=80min"), "opt-procs@80min")
}

// BenchmarkFig4d — useful work vs interval per MTTR at 64K processors.
func BenchmarkFig4d(b *testing.B) {
	fig := runFigure(b, "fig4d")
	b.ReportMetric(optimumX(b, fig, "MTTR=10min"), "opt-interval-min@10min")
}

// BenchmarkFig4e — useful work vs processors per checkpoint interval.
// Shape: optimum machine size shrinks as the interval grows.
func BenchmarkFig4e(b *testing.B) {
	fig := runFigure(b, "fig4e")
	b.ReportMetric(optimumX(b, fig, "interval=30min"), "opt-procs@30min")
	b.ReportMetric(optimumX(b, fig, "interval=240min"), "opt-procs@240min")
}

// BenchmarkFig4f — useful work vs interval per MTTF at 64K processors.
// Shape metric: the relative drop from 15→30 min (paper: small) and
// 30→60 min (paper: sharp) for MTTF=8yr.
func BenchmarkFig4f(b *testing.B) {
	fig := runFigure(b, "fig4f")
	s := fig.SeriesByName("MTTF=8yr")
	if s == nil || len(s.Points) < 3 {
		b.Fatal("MTTF=8yr series missing")
	}
	drop1530 := 1 - s.Points[1].Total.Mean/s.Points[0].Total.Mean
	drop3060 := 1 - s.Points[2].Total.Mean/s.Points[1].Total.Mean
	b.ReportMetric(drop1530*100, "drop-15to30-%")
	b.ReportMetric(drop3060*100, "drop-30to60-%")
}

// BenchmarkFig4g — useful work vs nodes at 32 processors/node.
func BenchmarkFig4g(b *testing.B) {
	fig := runFigure(b, "fig4g")
	_, peak, ok := fig.ArgMax(fig.SeriesByName("MTTF=1yr"))
	if !ok {
		b.Fatal("MTTF=1yr series missing")
	}
	b.ReportMetric(peak, "peak-total@32pn")
}

// BenchmarkFig4h — useful work vs nodes at 16 processors/node.
func BenchmarkFig4h(b *testing.B) {
	fig := runFigure(b, "fig4h")
	_, peak, ok := fig.ArgMax(fig.SeriesByName("MTTF=1yr"))
	if !ok {
		b.Fatal("MTTF=1yr series missing")
	}
	b.ReportMetric(peak, "peak-total@16pn")
}

// BenchmarkFig5 — coordination-only fraction vs processors. Shape: the
// drop from n=1 to n=2^30 at MTTQ=10s is logarithmic-scale (paper: ~0.97 →
// ~0.81).
func BenchmarkFig5(b *testing.B) {
	fig := runFigure(b, "fig5")
	s := fig.SeriesByName("MTTQ=10s")
	if s == nil || len(s.Points) < 2 {
		b.Fatal("MTTQ=10s series missing")
	}
	first := s.Points[0].Fraction.Mean
	last := s.Points[len(s.Points)-1].Fraction.Mean
	b.ReportMetric(first, "fraction@n=1")
	b.ReportMetric(last, "fraction@n=2^30")
}

// BenchmarkFig6 — coordination+timeout with failures. Shape: timeout=20s
// collapses the fraction at 64K processors, timeout=120s does not.
func BenchmarkFig6(b *testing.B) {
	fig := runFigure(b, "fig6")
	f20 := seriesValueAt(b, fig, "timeout=20s", 65536)
	f120 := seriesValueAt(b, fig, "timeout=120s", 65536)
	none := seriesValueAt(b, fig, "no timeout", 65536)
	b.ReportMetric(f20, "fraction@64K-t20s")
	b.ReportMetric(f120, "fraction@64K-t120s")
	b.ReportMetric(none, "fraction@64K-noT")
}

// BenchmarkFig7 — error-propagation correlated failures. Shape: the spread
// of the fraction across all pe and r is small (paper: 0.51–0.56).
func BenchmarkFig7(b *testing.B) {
	fig := runFigure(b, "fig7")
	lo, hi := 1.0, 0.0
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Fraction.Mean < lo {
				lo = p.Fraction.Mean
			}
			if p.Fraction.Mean > hi {
				hi = p.Fraction.Mean
			}
		}
	}
	b.ReportMetric(hi-lo, "fraction-spread")
}

// BenchmarkFig8 — generic correlated failures. Shape: the fraction drop at
// 256K processors (paper: −0.24).
func BenchmarkFig8(b *testing.B) {
	fig := runFigure(b, "fig8")
	without := seriesValueAt(b, fig, "without correlated failure", 262144)
	with := seriesValueAt(b, fig, "with correlated failure", 262144)
	b.ReportMetric(without-with, "fraction-drop@256K")
}

func seriesValueAt(b *testing.B, fig *experiments.Figure, series string, x float64) float64 {
	b.Helper()
	s := fig.SeriesByName(series)
	if s == nil {
		b.Fatalf("series %q missing", series)
	}
	for _, p := range s.Points {
		if p.X == x {
			return p.Fraction.Mean
		}
	}
	b.Fatalf("series %q has no point at x=%v", series, x)
	return 0
}

// ---- ablation benchmarks (design choices DESIGN.md calls out) ----

// BenchmarkAblationBackgroundWrite quantifies the two-step background I/O
// of Section 3.1 (paper footnote 1): the reported metric is the useful-work
// fraction lost when checkpoint FS writes block computation.
func BenchmarkAblationBackgroundWrite(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		bg := cluster.Default()
		blocking := bg
		blocking.BlockingCheckpointWrite = true
		mBG := trajectoryFraction(b, bg, 777)
		mBL := trajectoryFraction(b, blocking, 777)
		gap = mBG - mBL
	}
	b.ReportMetric(gap, "fraction-cost-of-blocking")
}

// BenchmarkAblationBufferedRecovery quantifies I/O-node checkpoint
// buffering (stage-1 skip plus smaller rollbacks): the metric is the
// useful-work fraction lost when recovery must always use the file system.
func BenchmarkAblationBufferedRecovery(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		with := cluster.Default()
		without := with
		without.NoBufferedRecovery = true
		mWith := trajectoryFraction(b, with, 778)
		mWithout := trajectoryFraction(b, without, 778)
		gap = mWith - mWithout
	}
	b.ReportMetric(gap, "fraction-cost-of-no-buffer")
}

// BenchmarkAblationCorrWindowFactor quantifies the error-propagation window
// mechanism at Figure 7's heaviest setting (pe=0.2, r=1600) against the
// independent-failure baseline.
func BenchmarkAblationCorrWindowFactor(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		base := cluster.Default()
		base.MTTFPerNode = cluster.Years(3)
		corr := base
		corr.ProbCorrelated = 0.2
		corr.CorrelatedFactor = 1600
		mBase := trajectoryFraction(b, base, 779)
		mCorr := trajectoryFraction(b, corr, 779)
		gap = mBase - mCorr
	}
	b.ReportMetric(gap, "fraction-cost-of-bursts")
}

func trajectoryFraction(b *testing.B, cfg cluster.Config, seed uint64) float64 {
	b.Helper()
	in, err := model.New(cfg, seed)
	if err != nil {
		b.Fatal(err)
	}
	m, err := in.RunSteadyState(200, 2000)
	if err != nil {
		b.Fatal(err)
	}
	return m.UsefulWorkFraction
}

// BenchmarkEstimateParallel compares the worker-pool execution engine at one
// worker (exact historic behavior) against one worker per core, on the
// Figure-4a base configuration. Replications fan across workers, so the
// expected speedup approaches min(workers, replications) on a multi-core
// machine; results are bit-identical at any worker count.
func BenchmarkEstimateParallel(b *testing.B) {
	cfg := cluster.Default()
	cfg.Coordination = cluster.CoordFixed
	cfg.Timeout = 0
	opts := runner.Options{Replications: 5, Warmup: 100, Measure: 600, Seed: 12345}
	for _, workers := range []int{1, runtime.NumCPU()} {
		opts := opts
		opts.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runner.Estimate(cfg, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- micro-benchmarks of the substrates ----

// engineComparisonConfig is the one workload both simulation engines run
// for a like-for-like speed comparison: the paper's base configuration
// restricted to the renewal-cycle engine's envelope (a pure-compute
// application, no I/O-node failures).
func engineComparisonConfig() cluster.Config {
	cfg := cluster.Default()
	cfg.ComputeFraction = 1
	cfg.NoIOFailures = true
	return cfg
}

// BenchmarkModelTrajectory measures raw simulation speed of the composed
// SAN: one 1000-hour trajectory per op on engineComparisonConfig, the
// workload BenchmarkCycleEngineTrajectory also runs.
func BenchmarkModelTrajectory(b *testing.B) {
	cfg := engineComparisonConfig()
	for i := 0; i < b.N; i++ {
		in, err := model.New(cfg, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := in.RunSteadyState(0, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoordinationSample measures the max-of-n inversion sampling used
// by the coordination activity (n = 2^20).
func BenchmarkCoordinationSample(b *testing.B) {
	d := rng.MaxOfNExponentials{N: 1 << 20, PerNodeMean: cluster.Seconds(10)}
	src := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = d.Sample(src)
	}
}

// BenchmarkProtocolRound measures one message-level checkpoint round over
// 4096 nodes (three scheduled events per node).
func BenchmarkProtocolRound(b *testing.B) {
	cfg := cluster.Default()
	cfg.Processors = 4096 * 8
	sim, err := protocol.New(cfg, 64, cluster.Seconds(0.001), 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.Round()
	}
}

// BenchmarkSimulatePublicAPI exercises the public entry point end to end.
func BenchmarkSimulatePublicAPI(b *testing.B) {
	cfg := repro.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Simulate(cfg, repro.Options{
			Replications: 1, Warmup: 50, Measure: 300, Seed: uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCycleEngineTrajectory measures the independent renewal-cycle
// engine: one 1000-hour trajectory per op on engineComparisonConfig, the
// same workload as BenchmarkModelTrajectory, so the ratio of the two ns/op
// is the engine-to-engine speedup.
func BenchmarkCycleEngineTrajectory(b *testing.B) {
	cfg := engineComparisonConfig()
	for i := 0; i < b.N; i++ {
		s, err := cyclesim.New(cfg, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.RunSteadyState(0, 1000); err != nil {
			b.Fatal(err)
		}
	}
}
