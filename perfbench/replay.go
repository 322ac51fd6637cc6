package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/cyclesim"
	"repro/internal/des"
	"repro/internal/model"
	"repro/internal/rng"
)

// Single-thread replays of the layers under the workloads, run by the
// traced run after its traced pass. Each repeats rs.reps times and reports
// the median.

// sink keeps replayed draws observable so the compiler cannot drop them.
var sink float64

func medianOf(n int, f func(i int) (float64, error)) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		x, err := f(i)
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// replayModel reports model.ns_per_event.<scenario> for every catalog
// scenario (a recycled model.Instance running RunSteadyState), and
// model.build_us / model.recycle_us on base.
func replayModel(rs replayScale, vals map[string]float64) error {
	cfgs, err := catalogConfigs()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(cfgs))
	for n := range cfgs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		in, err := model.New(cfgs[name], 1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		// One unmeasured trajectory grows the event pool and queue.
		if _, err := in.RunSteadyState(0, rs.modelHours); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		ns, err := medianOf(rs.reps, func(i int) (float64, error) {
			in.Recycle(uint64(i + 2))
			t0 := time.Now()
			if _, err := in.RunSteadyState(0, rs.modelHours); err != nil {
				return 0, err
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(max(in.Fired(), 1)), nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		vals["model.ns_per_event."+name] = ns
	}
	base := cfgs["base"]
	var in *model.Instance
	build, err := medianOf(rs.builds, func(i int) (float64, error) {
		t0 := time.Now()
		var err error
		in, err = model.New(base, uint64(i+1))
		return float64(time.Since(t0).Nanoseconds()) / 1e3, err
	})
	if err != nil {
		return err
	}
	recycle, _ := medianOf(rs.builds, func(i int) (float64, error) {
		t0 := time.Now()
		in.Recycle(uint64(i + 1))
		return float64(time.Since(t0).Nanoseconds()) / 1e3, nil
	})
	vals["model.build_us"] = build
	vals["model.recycle_us"] = recycle
	return nil
}

// replayEngines times the cyclesim renewal engine and the SAN model on one
// shared configuration, base with a compute-only workload and no I/O-node
// failures (the configuration cyclesim supports), per simulated hour.
func replayEngines(rs replayScale, vals map[string]float64) error {
	cfg := cluster.Default()
	cfg.ComputeFraction = 1
	cfg.NoIOFailures = true
	in, err := model.New(cfg, 1)
	if err != nil {
		return err
	}
	modelNS, err := medianOf(rs.reps, func(i int) (float64, error) {
		in.Recycle(uint64(i + 1))
		t0 := time.Now()
		_, err := in.RunSteadyState(0, rs.engineHours)
		return float64(time.Since(t0).Nanoseconds()) / rs.engineHours, err
	})
	if err != nil {
		return err
	}
	cycleNS, err := medianOf(rs.reps, func(i int) (float64, error) {
		s, err := cyclesim.New(cfg, uint64(i+1))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = s.RunSteadyState(0, rs.engineHours)
		return float64(time.Since(t0).Nanoseconds()) / rs.engineHours, err
	})
	if err != nil {
		return err
	}
	vals["model.ns_per_hour"] = modelNS
	vals["cyclesim.ns_per_hour"] = cycleNS
	vals["cyclesim.speedup"] = modelNS / cycleNS
	return nil
}

// replayRNG times one draw of each sampler the model uses.
func replayRNG(rs replayScale, vals map[string]float64) {
	dists := map[string]rng.Dist{
		"exponential":      rng.Exponential{MeanValue: cluster.Years(1)},
		"max_of_n":         rng.MaxOfNExponentials{N: 1 << 16, PerNodeMean: cluster.Seconds(10)},
		"weibull":          rng.Weibull{Shape: 0.7, Scale: cluster.Years(1)},
		"hyperexponential": rng.HyperExponential{P: 0.1, MeanA: cluster.Years(0.1), MeanB: cluster.Years(1)},
	}
	for name, d := range dists {
		src := rng.New(1)
		ns, _ := medianOf(rs.reps, func(int) (float64, error) {
			t0 := time.Now()
			s := 0.0
			for i := 0; i < rs.draws; i++ {
				s += d.Sample(src)
			}
			sink += s
			return float64(time.Since(t0).Nanoseconds()) / float64(rs.draws), nil
		})
		vals["rng.ns_per_draw."+name] = ns
	}
}

// replayDES times schedule+fire on a bare des.Engine holding depth pending
// events: each fired handler schedules its successor, so the depth holds.
// Delays come from a precomputed table, keeping rng out of the figure.
func replayDES(rs replayScale, depth float64, vals map[string]float64) {
	d := max(1, int(math.Round(depth)))
	delays := make([]float64, 4096)
	src := rng.New(1)
	for i := range delays {
		delays[i] = rng.Exponential{MeanValue: 1}.Sample(src)
	}
	ns, _ := medianOf(rs.reps, func(int) (float64, error) {
		eng := des.New()
		k := 0
		var h des.Handler
		h = func(e *des.Engine) {
			e.ScheduleAfter(delays[k&4095], "replay", h)
			k++
		}
		for i := 0; i < d; i++ {
			eng.ScheduleAfter(delays[i&4095], "replay", h)
		}
		t0 := time.Now()
		for i := 0; i < rs.desEvents; i++ {
			eng.Step()
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(rs.desEvents), nil
	})
	vals["des.ns_per_event"] = ns
}
