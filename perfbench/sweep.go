package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/blocks"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
)

// sweepJob is a processor sweep over catalog scenarios planned into a
// fresh run directory at block size 1, worked by in-process blocks.Work
// loops with the options `ccsweep -worker` uses (leases, fsync'd journals,
// 1 s heartbeats) minus signal handling and the in-run profiler, then
// merged by blocks.Reduce.
type sweepJob struct {
	dir     string
	m       *blocks.Manifest
	workers int
	plan    time.Duration // PlanGrid + CreateRun
}

func setupSweep(sc *scale, seed uint64) (job, error) {
	t0 := time.Now()
	cfgs, err := catalogConfigs()
	if err != nil {
		return nil, err
	}
	s := sc.sweep
	var cells []blocks.Cell
	for si, name := range s.scenarios {
		base, ok := cfgs[name]
		if !ok {
			return nil, fmt.Errorf("sweep: no catalog scenario %q", name)
		}
		for xi, procs := range s.procs {
			cfg := base
			cfg.Processors = procs
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("sweep: %s at %d processors: %w", name, procs, err)
			}
			cells = append(cells, blocks.Cell{
				Label:  fmt.Sprintf("%s/procs=%d", name, procs),
				X:      float64(procs),
				Seed:   mix(seed, uint64(si), uint64(xi)),
				Config: cfg,
			})
		}
	}
	m, err := runner.PlanGrid("procs", cells, 1, runner.Options{Replications: s.reps, Warmup: s.warmup, Measure: s.measure})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(sc.runDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(sc.runDir, "sweep-")
	if err != nil {
		return nil, err
	}
	if err := blocks.CreateRun(dir, m); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &sweepJob{dir: dir, m: m, workers: s.workers, plan: time.Since(t0)}, nil
}

func (j *sweepJob) discard() error { return os.RemoveAll(j.dir) }

func (j *sweepJob) run(tr *tracer) (outcome, error) {
	reg := tr.registry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type worked struct {
		sum blocks.Summary
		err error
	}
	done := make(chan worked, j.workers) // one send per worker
	root := tr.begin("sweep-sharded", 0, 0)
	sw := startWatch()
	for w := 0; w < j.workers; w++ {
		go func(name string, lane int) {
			id := tr.begin("blocks.Work", root, lane)
			run := tr.wrapBlocks(runner.BlockRunner(1, reg), id, lane)
			sum, err := blocks.Work(ctx, j.dir, run, blocks.WorkerOptions{Name: name, Metrics: reg, Heartbeat: time.Second})
			tr.end(id)
			done <- worked{sum, err}
		}(fmt.Sprintf("w%d", w), w+1)
	}
	// A worker returns nil only once every block has a committed journal,
	// so the answer can be reduced without waiting for the other worker's
	// poll to come round.
	first := <-done
	out := outcome{layer: map[string]float64{}}
	var cells []blocks.CellResult
	var reduceErr error
	if first.err == nil {
		id := tr.begin("reduce", root, 0)
		t0 := time.Now()
		_, cells, reduceErr = blocks.Reduce(j.dir)
		out.layer["blocks.reduce_ms"] = ms(time.Since(t0))
		tr.end(id)
	}
	out.wall, out.cpu = sw.stop()
	tr.end(root)
	cancel()
	summaries := []worked{first}
	for w := 1; w < j.workers; w++ {
		summaries = append(summaries, <-done)
	}

	out.attempted = len(j.m.Blocks)
	claimed, reclaimed := 0, 0
	for i, s := range summaries {
		claimed += s.sum.Completed
		reclaimed += s.sum.Reclaimed
		if s.err != nil && !(i > 0 && errors.Is(s.err, context.Canceled)) {
			out.failed++
			out.checks = append(out.checks, check{name: "worker " + s.sum.Worker, detail: s.err.Error()})
		}
	}
	out.failed += reclaimed
	if reduceErr != nil {
		out.checks = append(out.checks, check{name: "reduce", detail: reduceErr.Error()})
	}
	out.layer["blocks.plan_ms"] = ms(j.plan)
	out.layer["blocks.claimed"] = float64(claimed)
	// Work checks a block's journal before claiming its lease, so a block
	// the other worker commits in between runs a second time.
	out.layer["blocks.duplicated"] = float64(max(claimed-len(j.m.Blocks), 0))
	out.layer["blocks.reclaimed"] = float64(reclaimed)
	out.layer["blocks.journal_bytes"] = float64(journalBytes(j.dir, j.m))
	if first.err != nil || reduceErr != nil {
		return out, nil
	}

	// The same manifest estimated monolithically must reduce to the same
	// bits; its wall time is the baseline of blocks.overhead_frac. On a
	// traced run it records into a registry of its own, so it pays the
	// same telemetry cost without adding to the sharded run's counters.
	var refReg *obs.Registry
	if tr != nil {
		refReg = obs.NewRegistry()
	}
	id := tr.begin("estimate-grid", 0, 0)
	t0 := time.Now()
	ref, err := runner.EstimateGrid(context.Background(), j.m, runner.Options{Workers: j.workers, Metrics: refReg}, nil)
	refWall := time.Since(t0)
	tr.end(id)
	if err != nil {
		out.checks = append(out.checks, check{name: "reference EstimateGrid", detail: err.Error()})
		return out, nil
	}
	out.layer["blocks.overhead_frac"] = (out.wall.Seconds() - refWall.Seconds()) / out.wall.Seconds()
	var answer strings.Builder
	for i, c := range cells {
		out.reps += c.Replications()
		frac := reducedCI(c.FlatValues(), j.m.Confidence)
		total := reducedCI(c.Totals, j.m.Confidence)
		out.checks = append(out.checks, sameBits(c, frac, total, ref[i]))
		fmt.Fprintf(&answer, "%s %x %x %x %x\n", c.Cell.Label,
			math.Float64bits(frac.Mean), math.Float64bits(frac.HalfWide),
			math.Float64bits(total.Mean), math.Float64bits(total.HalfWide))
	}
	out.answer = []byte(answer.String())
	return out, nil
}

// reducedCI folds a reduced cell's per-replication values into the
// interval a monolithic estimate reports (plain plans; the sweep plans no
// variance reduction).
func reducedCI(values []float64, level float64) stats.Interval {
	var a stats.Accumulator
	for _, v := range values {
		a.Add(v)
	}
	return a.CI(level)
}

// sameBits checks one reduced cell against the monolithic estimate of the
// same manifest cell: every replication value and both intervals must be
// bit-identical.
func sameBits(c blocks.CellResult, frac, total stats.Interval, ref runner.Result) check {
	k := check{name: "sweep cell " + c.Cell.Label + " bit-identical to EstimateGrid", ok: true}
	vals := c.FlatValues()
	if len(vals) != len(ref.PerReplication) || len(c.Totals) != len(ref.PerReplication) {
		k.ok = false
		k.detail = fmt.Sprintf("%d reduced replications vs %d monolithic", len(vals), len(ref.PerReplication))
		return k
	}
	for r, m := range ref.PerReplication {
		if math.Float64bits(vals[r]) != math.Float64bits(m.UsefulWorkFraction) ||
			math.Float64bits(c.Totals[r]) != math.Float64bits(m.TotalUsefulWork) {
			k.ok = false
			k.detail = fmt.Sprintf("replication %d: %v/%v vs %v/%v", r, vals[r], c.Totals[r], m.UsefulWorkFraction, m.TotalUsefulWork)
			return k
		}
	}
	if !sameInterval(frac, ref.UsefulWorkFraction) || !sameInterval(total, ref.TotalUsefulWork) {
		k.ok = false
		k.detail = fmt.Sprintf("interval %v/%v vs %v/%v", frac, total, ref.UsefulWorkFraction, ref.TotalUsefulWork)
	}
	return k
}

func sameInterval(a, b stats.Interval) bool {
	return a.N == b.N && math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.HalfWide) == math.Float64bits(b.HalfWide)
}

// journalBytes sums the sizes of the run's committed block journals.
func journalBytes(dir string, m *blocks.Manifest) int64 {
	var n int64
	for _, b := range m.Blocks {
		if fi, err := os.Stat(blocks.JournalPath(dir, b.ID)); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
