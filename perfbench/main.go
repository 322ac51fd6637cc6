// Command perfbench is the repository benchmark. It runs one named
// workload through the reproduction's Go entry points, checks the answer,
// and prints the metrics as one JSON object on the last line of standard
// output: the end-to-end metrics on an untraced run, the per-layer metrics
// on a traced one.
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
//
// The workloads, and why each was chosen, are listed in BENCHMARK.json at
// the repository root; README.md in this directory defines every metric.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Stdout, os.Stderr, os.Args[1:], defaultScale()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command-line arguments of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seed == 0 {
		return o, errors.New("--seed must be positive")
	}
	if !(o.seconds > 0) {
		return o, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// A workload prepares passes; setup does everything that precedes the
// first replication (catalog resolution, config construction, planning)
// and is what setup_s times.
type workload struct {
	setup func(sc *scale, seed uint64) (job, error)
	// verify, when set, runs once per run at the run's seed, after the
	// timed passes: checks too costly or too statistical to repeat on
	// every pass.
	verify func(sc *scale, seed uint64) (outcome, error)
	// reseed gives every pass of a run its own seed derived from the run's
	// seed. Workloads whose answer is a fixed amount of work repeat the
	// run's seed instead, so their passes must agree byte for byte.
	reseed bool
}

// A job is one prepared pass of a workload.
type job interface {
	// run executes the pass; tr is nil on untraced runs.
	run(tr *tracer) (outcome, error)
	// discard removes what setup created on disk.
	discard() error
}

var workloads = map[string]workload{
	"figures":       {setup: setupFigures},
	"sweep-sharded": {setup: setupSweep},
	"converge":      {setup: setupConverge, verify: verifyConverge, reseed: true},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outcome is what one pass reports.
type outcome struct {
	// wall and cpu cover the timed region: first replication to the
	// checked answer.
	wall, cpu time.Duration
	reps      int // replications completed
	attempted int // replications, cells and blocks attempted
	failed    int // ... of which errored, were retried or were reclaimed
	checks    []check
	// answer is the pass's canonical output; passes of one seed must
	// produce the same bytes, traced or not.
	answer []byte
	// layer holds the workload's own per-layer values (traced runs read
	// them).
	layer map[string]float64
}

// check is one output check of a pass.
type check struct {
	name string
	ok   bool
	// claim marks a paper shape claim (experiments.CheckClaims). Its
	// outcome at quick scale depends on the seed, so a failed claim counts
	// in checks_failed but does not make the run incorrect; every other
	// check does.
	claim  bool
	detail string
}

// stopwatch measures wall and process CPU time over a region.
type stopwatch struct {
	t0 time.Time
	c0 time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

func (s stopwatch) stop() (wall, cpu time.Duration) {
	return time.Since(s.t0), processCPU() - s.c0
}

// processCPU is the process's user+sys CPU time so far (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (getrusage; Linux reports
// KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// passSeed derives the seed of pass k: the run's seed for the first pass,
// an independent splitmix64 sub-seed after that.
func passSeed(seed uint64, k int, reseed bool) uint64 {
	if !reseed || k == 0 {
		return seed
	}
	return mix(seed, uint64(k))
}

// mix folds values into one well-spread 64-bit seed (splitmix64 steps).
func mix(vals ...uint64) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, v := range vals {
		h ^= v
		h += 0x9e3779b97f4a7c15
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	if h == 0 {
		h = 1
	}
	return h
}

func timedSetup(wl workload, sc *scale, seed uint64) (job, time.Duration, error) {
	t0 := time.Now()
	j, err := wl.setup(sc, seed)
	return j, time.Since(t0), err
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally folds pass outcomes into the run's correctness and counts.
type tally struct {
	attempted, failed int
	failedChecks      map[string]bool // distinct failing checks
	incorrect         bool
}

func (t *tally) add(o outcome, log io.Writer) {
	if t.failedChecks == nil {
		t.failedChecks = map[string]bool{}
	}
	t.attempted += o.attempted
	t.failed += o.failed
	for _, c := range o.checks {
		if c.ok {
			continue
		}
		if !t.failedChecks[c.name] {
			fmt.Fprintf(log, "check failed: %s: %s\n", c.name, c.detail)
		}
		t.failedChecks[c.name] = true
		if !c.claim {
			t.incorrect = true
		}
	}
}

// report builds the run's result line.
func (t *tally) report(m map[string]metric) (report, error) {
	if t.attempted == 0 {
		return report{}, errors.New("no replication or block was attempted")
	}
	return report{Correct: !t.incorrect, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// sameAnswer records a failed check when two passes of one seed disagree.
func (t *tally) sameAnswer(name string, a, b []byte, log io.Writer) {
	if bytes.Equal(a, b) {
		return
	}
	t.add(outcome{checks: []check{{name: name, detail: "answers differ between passes of one seed"}}}, log)
}

func run(stdout, log io.Writer, args []string, sc scale) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	wl := workloads[o.workload]
	var rep report
	if o.trace {
		rep, err = tracedRun(wl, &sc, o, log)
	} else {
		rep, err = untracedRun(wl, &sc, o, stdout, log)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// untracedRun measures the end-to-end metrics: set-up several times, then
// passes until the next one would overrun --seconds (always at least one).
// The timings are quantiles over passes (see passQuantile).
func untracedRun(wl workload, sc *scale, o options, stdout, log io.Writer) (report, error) {
	var setups []float64
	for i := 0; i < sc.setups; i++ {
		j, d, err := timedSetup(wl, sc, o.seed)
		if err != nil {
			return report{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if err := j.discard(); err != nil {
			return report{}, err
		}
	}
	var (
		t           tally
		walls, cpus []float64
		rates       []float64 // replications per second of each pass
		firstAnswer []byte
	)
	start := time.Now()
	for k := 0; ; k++ {
		j, d, err := timedSetup(wl, sc, passSeed(o.seed, k, wl.reseed))
		if err != nil {
			return report{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		out, err := j.run(nil)
		if derr := j.discard(); err == nil {
			err = derr
		}
		if err != nil {
			return report{}, err
		}
		t.add(out, log)
		fmt.Fprintf(log, "pass %d: wall %.4f s, cpu %.4f s, %d replications\n", k, out.wall.Seconds(), out.cpu.Seconds(), out.reps)
		if !wl.reseed {
			if k == 0 {
				firstAnswer = out.answer
			} else {
				t.sameAnswer("repeat-identical", firstAnswer, out.answer, log)
			}
		}
		walls = append(walls, out.wall.Seconds())
		cpus = append(cpus, out.cpu.Seconds())
		rates = append(rates, float64(out.reps)/out.wall.Seconds())
		if time.Since(start).Seconds()+out.wall.Seconds() > o.seconds {
			break
		}
	}
	if wl.verify != nil {
		out, err := wl.verify(sc, o.seed)
		if err != nil {
			return report{}, err
		}
		t.add(out, log)
	}
	q := passQuantile(wl)
	m := map[string]metric{
		"wall_s":             {quantile(walls, q), "s"},
		"replications_per_s": {quantile(rates, 1-q), "1/s"},
		"cpu_s":              {quantile(cpus, q), "s"},
		"peak_rss_mb":        {peakRSSMiB(), "MiB"},
		"setup_s":            {median(setups), "s"},
	}
	// error_rate and checks_failed are zero on a healthy run, so they are
	// printed here and reported as per-layer metrics, not as bounded
	// end-to-end ones.
	fmt.Fprintf(stdout, "# %s seed=%d passes=%d wall_s=%.4f s replications_per_s=%.2f 1/s cpu_s=%.4f s peak_rss_mb=%.1f MiB setup_s=%.6f s error_rate=%g ratio checks_failed=%d count\n",
		o.workload, o.seed, len(walls), m["wall_s"].Value, m["replications_per_s"].Value, m["cpu_s"].Value,
		m["peak_rss_mb"].Value, m["setup_s"].Value, t.errorRate(), len(t.failedChecks))
	return t.report(m)
}

// passQuantile is the quantile over passes a run reports for its timings.
// The passes of a fixed-work workload repeat identical work, so their
// spread is interference from other processes on the machine, and the
// lower decile estimates the program's own cost. The reseeded passes of
// converge differ in the work itself, so that spread belongs to what is
// measured and the median is reported.
func passQuantile(wl workload) float64 {
	if wl.reseed {
		return 0.5
	}
	return 0.1
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
