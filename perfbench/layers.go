package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// benchWorkers is the worker count of every workload (a 2-CPU box).
const benchWorkers = 2

// profiledModules get a <module>.cpu_frac metric of their own; samples in
// any other repro/internal module count as other.cpu_frac.
var profiledModules = []string{"experiments", "exec", "runner", "model", "san", "des", "rng", "stats", "vr", "blocks", "obs", "runtime"}

// layerUnits lists every per-layer metric a traced run prints, with its
// unit. Metrics of a layer the traced workload does not exercise read 0
// (README.md names the workload each belongs to).
func layerUnits() map[string]string {
	u := map[string]string{
		"exec.busy_frac":                                 "ratio",
		"runner.replications":                            "count",
		"runner.replication_ms.p50":                      "ms",
		"runner.replication_ms.p99":                      "ms",
		"runner.instance_recycle_frac":                   "ratio",
		"model.build_us":                                 "us",
		"model.recycle_us":                               "us",
		"san.settles_per_event":                          "ratio",
		"san.dirty_closure.mean":                         "count",
		"san.reactivations_per_event":                    "ratio",
		"des.events":                                     "count",
		"des.cancel_frac":                                "ratio",
		"des.queue_depth.p50":                            "count",
		"des.queue_depth.max":                            "count",
		"des.pool_hit_frac":                              "ratio",
		"des.ns_per_event":                               "ns",
		"rng.draws_per_rep":                              "count",
		"stats.replications_to_target.base":              "count",
		"stats.replications_to_target.error-propagation": "count",
		"stats.replications_to_target.weibull-field":     "count",
		"stats.replications_to_target.compare":           "count",
		"vr.ci_shrink":                                   "ratio",
		"vr.crn_in_sync_frac":                            "ratio",
		"converge.truth_halfwidths":                      "ratio",
		"blocks.plan_ms":                                 "ms",
		"blocks.reduce_ms":                               "ms",
		"blocks.block_ms.p50":                            "ms",
		"blocks.block_ms.p99":                            "ms",
		"blocks.overhead_frac":                           "ratio",
		"blocks.journal_bytes":                           "bytes",
		"blocks.claimed":                                 "count",
		"blocks.duplicated":                              "count",
		"blocks.reclaimed":                               "count",
		"runtime.alloc_mb":                               "MiB",
		"runtime.gc_cycles":                              "count",
		"cyclesim.ns_per_hour":                           "ns",
		"model.ns_per_hour":                              "ns",
		"cyclesim.speedup":                               "ratio",
		"trace.overhead_frac":                            "ratio",
		"reconcile.unexplained_frac":                     "ratio",
		"profile.samples":                                "count",
		"checks_failed":                                  "count",
		"error_rate":                                     "ratio",
	}
	for _, d := range experiments.All() {
		u["experiments.fig_s."+d.ID] = "s"
	}
	for _, name := range scenario.Builtin().Names() {
		u["model.ns_per_event."+name] = "ns"
	}
	for _, name := range []string{"exponential", "max_of_n", "weibull", "hyperexponential"} {
		u["rng.ns_per_draw."+name] = "ns"
	}
	for _, m := range append(profiledModules, "other") {
		u[m+".cpu_frac"] = "ratio"
	}
	return u
}

// tracedRun measures the per-layer metrics: a warm-up pass, one untraced
// pass (the baseline of trace.overhead_frac and of the CPU/wall ratios),
// the same pass traced (registry, spans, CPU profile), then the
// single-thread replays.
func tracedRun(wl workload, sc *scale, o options, log io.Writer) (report, error) {
	var t tally
	pass := func(tr *tracer) (outcome, error) {
		j, _, err := timedSetup(wl, sc, o.seed)
		if err != nil {
			return outcome{}, fmt.Errorf("setup: %w", err)
		}
		out, err := j.run(tr)
		if derr := j.discard(); err == nil {
			err = derr
		}
		return out, err
	}
	// The first pass of a process pays for page faults and heap growth;
	// it only warms up.
	if _, err := pass(nil); err != nil {
		return report{}, err
	}
	base, err := pass(nil)
	if err != nil {
		return report{}, err
	}
	t.add(base, log)
	var verified outcome
	if wl.verify != nil {
		if verified, err = wl.verify(sc, o.seed); err != nil {
			return report{}, err
		}
		t.add(verified, log)
	}

	tr := newTracer()
	var traced outcome
	var prof []byte
	alloc, gcs, err := memDelta(func() error {
		var err error
		prof, err = profiled(func() error {
			traced, err = pass(tr)
			return err
		})
		return err
	})
	if err != nil {
		return report{}, err
	}
	t.add(traced, log)
	t.sameAnswer("traced-identical", base.answer, traced.answer, log)

	vals := map[string]float64{}
	for _, layer := range []map[string]float64{traced.layer, verified.layer} {
		for k, v := range layer {
			vals[k] = v
		}
	}
	// The sweep's overhead is a timing ratio, so it comes from the
	// untraced pass like every other end-to-end-derived number.
	if v, ok := base.layer["blocks.overhead_frac"]; ok {
		vals["blocks.overhead_frac"] = v
	}
	registryMetrics(tr, vals)
	if blk := tr.durations("block"); len(blk) > 0 {
		vals["blocks.block_ms.p50"] = quantile(blk, 0.5) * 1000
		vals["blocks.block_ms.p99"] = quantile(blk, 0.99) * 1000
	}
	byMod, samples, err := cpuByModule(prof)
	if err != nil {
		return report{}, err
	}
	vals["profile.samples"] = float64(samples)
	for mod, n := range byMod {
		key := "other.cpu_frac"
		for _, m := range profiledModules {
			if m == mod {
				key = mod + ".cpu_frac"
			}
		}
		vals[key] += float64(n) / float64(max(samples, 1))
	}
	vals["runtime.alloc_mb"] = float64(alloc) / (1 << 20)
	vals["runtime.gc_cycles"] = float64(gcs)
	vals["exec.busy_frac"] = base.cpu.Seconds() / (base.wall.Seconds() * benchWorkers)
	vals["trace.overhead_frac"] = traced.wall.Seconds()/base.wall.Seconds() - 1

	rs := sc.replay
	if err := replayModel(rs, vals); err != nil {
		return report{}, fmt.Errorf("model replay: %w", err)
	}
	if err := replayEngines(rs, vals); err != nil {
		return report{}, fmt.Errorf("engine replay: %w", err)
	}
	replayRNG(rs, vals)
	replayDES(rs, vals["des.queue_depth.p50"], vals)
	// Events times the single-thread replay cost per event, against the
	// CPU the untraced pass spent: the share the replay does not explain.
	explained := vals["des.events"] * vals["model.ns_per_event.base"] / 1e9
	vals["reconcile.unexplained_frac"] = 1 - explained/base.cpu.Seconds()
	vals["checks_failed"] = float64(len(t.failedChecks))
	vals["error_rate"] = t.errorRate()

	path := filepath.Join(sc.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := tr.writeChrome(path); err != nil {
		return report{}, err
	}
	fmt.Fprintf(log, "spans written to %s\n", path)

	units := layerUnits()
	m := make(map[string]metric, len(units))
	for name, unit := range units {
		m[name] = metric{vals[name], unit}
	}
	var unknown []string
	for name := range vals {
		if _, ok := units[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return report{}, fmt.Errorf("per-layer values without a declared metric: %v", unknown)
	}
	return t.report(m)
}

// registryMetrics reads the counters and histograms the program published
// into the traced pass's registry.
func registryMetrics(tr *tracer, vals map[string]float64) {
	s := tr.reg.Snapshot()
	c := func(name string) float64 { return float64(s.Counters[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	events := c("des.events_fired")
	vals["des.events"] = events
	vals["des.cancel_frac"] = ratio(c("des.events_cancelled"), c("des.events_scheduled"))
	vals["des.pool_hit_frac"] = ratio(c("des.pool_hits"), c("des.pool_hits")+c("des.pool_misses"))
	if q, ok := s.Histograms["des.queue_depth"]; ok {
		vals["des.queue_depth.p50"] = q.P50
		vals["des.queue_depth.max"] = q.Max
	}
	vals["san.settles_per_event"] = ratio(c("san.settles"), events)
	vals["san.reactivations_per_event"] = ratio(c("san.reactivations"), events)
	if h, ok := s.Histograms["san.dirty_closure"]; ok {
		vals["san.dirty_closure.mean"] = h.Mean()
	}
	vals["runner.replications"] = c("runner.replications")
	if w, ok := s.Timers["runner.replication_wall_s"]; ok {
		vals["runner.replication_ms.p50"] = w.P50 * 1000
		vals["runner.replication_ms.p99"] = w.P99 * 1000
	}
	vals["runner.instance_recycle_frac"] = ratio(c("runner.instance_recycles"), c("runner.instance_recycles")+c("runner.instance_builds"))
}
