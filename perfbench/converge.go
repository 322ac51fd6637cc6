package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/analytic"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
)

// convergeJob measures time to an answer of stated accuracy: batches of
// replications run until the useful-work fraction's 95 % CI half-width
// reaches a fixed target, for each scenario, then a CRN comparison runs to
// its own target on the half-width of the difference.
type convergeJob struct {
	s        convergeScale
	seed     uint64
	names    []string
	cfgs     []cluster.Config
	compareA cluster.Config
	compareB cluster.Config
}

// confidence is the CI level every stopping rule uses (the paper's 95 %).
const confidence = 0.95

func setupConverge(sc *scale, seed uint64) (job, error) {
	cfgs, err := catalogConfigs()
	if err != nil {
		return nil, err
	}
	s := sc.converge
	j := &convergeJob{s: s, seed: seed, names: s.scenarios}
	for _, name := range s.scenarios {
		cfg, ok := cfgs[name]
		if !ok {
			return nil, fmt.Errorf("converge: no catalog scenario %q", name)
		}
		j.cfgs = append(j.cfgs, cfg)
	}
	j.compareA = cfgs["base"]
	j.compareB = j.compareA
	j.compareB.CheckpointInterval = cluster.Minutes(s.compareIntervalMin)
	if err := j.compareB.Validate(); err != nil {
		return nil, fmt.Errorf("converge: %w", err)
	}
	return j, nil
}

func (j *convergeJob) discard() error { return nil }

func (j *convergeJob) options(seed uint64, reps int, tr *tracer) runner.Options {
	return j.s.options(seed, reps, tr.registry())
}

func (s convergeScale) options(seed uint64, reps int, reg *obs.Registry) runner.Options {
	return runner.Options{
		Replications: reps,
		Warmup:       s.warmup,
		Measure:      s.measure,
		Seed:         seed,
		Workers:      s.workers,
		Metrics:      reg,
	}
}

// stopped reports whether a stopping rule over acc may stop, and whether it
// stopped at the replication limit rather than at the target.
func (j *convergeJob) stopped(acc *stats.Accumulator, target float64) (stop, capped bool) {
	n := acc.N()
	if n >= j.s.floor && acc.CI(confidence).HalfWide <= target {
		return true, false
	}
	return n >= j.s.limit, n >= j.s.limit
}

func (j *convergeJob) run(tr *tracer) (outcome, error) {
	out := outcome{layer: map[string]float64{}}
	var answer strings.Builder
	root := tr.begin("converge", 0, 0)
	sw := startWatch()

	for si, name := range j.names {
		id := tr.begin("converge/"+name, root, 0)
		var acc stats.Accumulator
		for b := 0; ; b++ {
			sp := tr.begin("runner.Estimate", id, 0)
			res, err := runner.Estimate(j.cfgs[si], j.options(mix(j.seed, uint64(si+1), uint64(b)), j.s.batch, tr))
			tr.end(sp)
			out.attempted += j.s.batch
			if err != nil {
				out.failed += j.s.batch
				out.checks = append(out.checks, check{name: name + " estimates", detail: err.Error()})
				break
			}
			out.reps += len(res.PerReplication)
			for _, m := range res.PerReplication {
				acc.Add(m.UsefulWorkFraction)
			}
			if stop, capped := j.stopped(&acc, j.s.target); stop {
				out.checks = append(out.checks, check{name: name + " reaches its target half-width", ok: !capped,
					detail: fmt.Sprintf("stopped at the %d-replication limit with half-width %g", acc.N(), acc.CI(confidence).HalfWide)})
				break
			}
		}
		tr.end(id)
		out.layer["stats.replications_to_target."+name] = float64(acc.N())
		ci := acc.CI(confidence)
		fmt.Fprintf(&answer, "%s n=%d %x %x\n", name, ci.N, math.Float64bits(ci.Mean), math.Float64bits(ci.HalfWide))
	}

	// The CRN comparison: base against a longer interval, paired per
	// replication seed, with the synchronization audit on.
	id := tr.begin("converge/compare", root, 0)
	var diff, outA, outB stats.Accumulator
	var pairs, inSync, draws float64
	for b := 0; ; b++ {
		opts := j.options(mix(j.seed, 0xc0, uint64(b)), j.s.batch, tr)
		opts.SyncReport = true
		sp := tr.begin("runner.Compare", id, 0)
		comp, err := runner.Compare(j.compareA, j.compareB, opts)
		tr.end(sp)
		out.attempted += 2 * j.s.batch
		if err != nil {
			out.failed += 2 * j.s.batch
			out.checks = append(out.checks, check{name: "compare runs", detail: err.Error()})
			break
		}
		for r := range comp.A.PerReplication {
			a, b := comp.A.PerReplication[r].UsefulWorkFraction, comp.B.PerReplication[r].UsefulWorkFraction
			diff.Add(b - a)
			outA.Add(a)
			outB.Add(b)
		}
		out.reps += len(comp.A.PerReplication) + len(comp.B.PerReplication)
		if s := comp.Sync; s != nil {
			pairs += float64(s.Pairs)
			inSync += s.InSyncFraction * float64(s.Pairs)
			for _, c := range s.Components {
				draws += (c.MeanDrawsA + c.MeanDrawsB) / 2 * float64(s.Pairs)
			}
		}
		if stop, capped := j.stopped(&diff, j.s.compareTarget); stop {
			out.checks = append(out.checks, check{name: "compare reaches its target half-width", ok: !capped,
				detail: fmt.Sprintf("stopped at the %d-pair limit with half-width %g", diff.N(), diff.CI(confidence).HalfWide)})
			break
		}
	}
	tr.end(id)
	out.layer["stats.replications_to_target.compare"] = float64(diff.N())
	if v := diff.Variance(); v > 0 {
		out.layer["vr.ci_shrink"] = (outA.Variance() + outB.Variance()) / v
	}
	if pairs > 0 {
		out.layer["vr.crn_in_sync_frac"] = inSync / pairs
		out.layer["rng.draws_per_rep"] = draws / pairs
	}
	dci := diff.CI(confidence)
	fmt.Fprintf(&answer, "compare n=%d %x %x\n", dci.N, math.Float64bits(dci.Mean), math.Float64bits(dci.HalfWide))

	out.wall, out.cpu = sw.stop()
	tr.end(root)
	out.answer = []byte(answer.String())
	return out, nil
}

// verifyConverge runs the exact-truth cell once per run, at the run's
// seed: coordination-only with failures disabled and no foreground I/O,
// where a checkpoint cycle is the interval plus the coordination (the max
// of n exponential quiesce times) plus the dump, so the useful-work
// fraction is known in closed form. It runs outside the timed passes: a
// statistical check repeated on every reseeded pass would fail some pass of
// a run by chance.
func verifyConverge(sc *scale, seed uint64) (outcome, error) {
	s := sc.converge
	out := outcome{layer: map[string]float64{}, attempted: s.truthReps}
	cfgs, err := catalogConfigs()
	if err != nil {
		return out, err
	}
	cfg, ok := cfgs["coordination-only"]
	if !ok {
		return out, fmt.Errorf("converge: no catalog scenario %q", "coordination-only")
	}
	cfg.ComputeFraction = 1
	cfg.Processors = s.truthProcs
	exact := analytic.FailureFreeFraction(cfg.CheckpointInterval,
		analytic.ExpectedCoordinationTime(cfg.Processors, cfg.MTTQ), cfg.CheckpointDumpTime())
	res, err := runner.Estimate(cfg, s.options(mix(seed, 0x7e), s.truthReps, nil))
	if err != nil {
		out.failed = s.truthReps
		out.checks = append(out.checks, check{name: "truth cell runs", detail: err.Error()})
		return out, nil
	}
	out.reps = len(res.PerReplication)
	iv := res.UsefulWorkFraction
	dev := math.Abs(iv.Mean-exact) / iv.HalfWide
	out.checks = append(out.checks, check{
		name:   "coordination-only matches the failure-free formula",
		ok:     dev <= s.truthHalfWidths,
		detail: fmt.Sprintf("estimate %v, exact %.6f: %.2f half-widths off (limit %g)", iv, exact, dev, s.truthHalfWidths),
	})
	out.layer["converge.truth_halfwidths"] = dev
	return out, nil
}
