package main

import (
	"path/filepath"

	"repro/internal/runner"
)

// scale sizes every workload; defaultScale is the benchmark, the smoke
// test shrinks it.
type scale struct {
	// setups is how many extra set-ups a run times on top of one per pass,
	// so setup_s is a median even when a run holds a single pass.
	setups int
	// runDir holds the sweep's run directories; traceDir the span files.
	runDir, traceDir string

	figures  runner.Options
	sweep    sweepScale
	converge convergeScale
	replay   replayScale
}

// sweepScale sizes the sharded sweep: every catalog scenario named crosses
// every processor count, each cell with reps one-replication blocks.
type sweepScale struct {
	scenarios       []string
	procs           []int
	reps            int
	warmup, measure float64 // hours per replication
	workers         int     // in-process blocks.Work loops
}

// convergeScale sizes the time-to-CI workload.
type convergeScale struct {
	scenarios       []string
	warmup, measure float64 // hours per replication
	batch           int     // replications per batch (one per worker)
	workers         int
	// target is the 95 % CI half-width of the useful-work fraction each
	// scenario runs to; compareTarget is the half-width of the CRN
	// difference.
	target, compareTarget float64
	// floor and limit bound the replications of one stopping rule: a
	// t-interval over two or three replications can be narrow by chance,
	// and a rule that never stops must not hang the run.
	floor, limit int
	// compareIntervalMin is the checkpoint interval of the compared
	// variant of base, in minutes.
	compareIntervalMin float64
	// The exact-truth cell: coordination-only, compute-only workload at
	// truthProcs processors, truthReps replications, accepted within
	// truthHalfWidths CI half-widths of the failure-free formula.
	truthProcs      int
	truthReps       int
	truthHalfWidths float64
}

// replayScale sizes the single-thread replays of the traced run.
type replayScale struct {
	reps        int     // repetitions per replay; the median is reported
	modelHours  float64 // trajectory length of the per-scenario model replay
	builds      int     // model.New / Recycle timings
	draws       int     // draws per rng replay
	desEvents   int     // events per des replay
	engineHours float64 // trajectory length of the cyclesim-vs-model replay
}

func defaultScale() scale {
	build := ".bench_build"
	return scale{
		setups:   49,
		runDir:   filepath.Join(build, "runs"),
		traceDir: filepath.Join(build, "traces"),
		// ccfigures' default quick scale with two grid workers.
		figures: runner.Options{Replications: 3, Warmup: 300, Measure: 1500, Workers: benchWorkers},
		sweep: sweepScale{
			scenarios: []string{"base", "error-propagation", "weibull-field", "max-of-n"},
			procs:     []int{1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20},
			reps:      4,
			warmup:    10,
			measure:   240,
			workers:   benchWorkers,
		},
		converge: convergeScale{
			scenarios:          []string{"base", "error-propagation", "weibull-field"},
			warmup:             50,
			measure:            200,
			batch:              2,
			workers:            benchWorkers,
			target:             0.01,
			compareTarget:      0.004,
			floor:              8,
			limit:              400,
			compareIntervalMin: 36,
			truthProcs:         65536,
			truthReps:          4,
			truthHalfWidths:    3,
		},
		replay: replayScale{
			reps:        11,
			modelHours:  200,
			builds:      25,
			draws:       1 << 20,
			desEvents:   1 << 20,
			engineHours: 1000,
		},
	}
}
