package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/runner"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// tinyScale shrinks every workload to a fraction of a second.
func tinyScale(t *testing.T) scale {
	sc := defaultScale()
	dir := t.TempDir()
	sc.runDir = filepath.Join(dir, "runs")
	sc.traceDir = filepath.Join(dir, "traces")
	sc.setups = 2
	sc.figures = runner.Options{Replications: 2, Warmup: 5, Measure: 30, Workers: benchWorkers}
	sc.sweep.scenarios = []string{"base", "weibull-field"}
	sc.sweep.procs = []int{1 << 13, 1 << 14}
	sc.sweep.reps = 2
	sc.sweep.warmup, sc.sweep.measure = 2, 10
	c := &sc.converge
	c.warmup, c.measure = 5, 20
	c.target, c.compareTarget = 0.05, 0.05
	c.floor, c.limit = 4, 64
	c.truthReps = 3
	sc.replay = replayScale{reps: 1, modelHours: 5, builds: 2, draws: 1000, desEvents: 1000, engineHours: 10}
	return sc
}

func readSpec(t *testing.T) spec {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload of BENCHMARK.json at tiny scale, untraced
// and traced, and checks that each prints exactly its declared metrics with
// their units, and that the answer passes its checks.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) == 0 {
		t.Fatal("no workloads in BENCHMARK.json")
	}
	for _, w := range s.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "1", "--seconds", "0.01", "--trace", trace}
				if err := run(&out, io.Discard, args, tinyScale(t)); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range s.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range s.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := rep.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range rep.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s printed but not declared in BENCHMARK.json", name)
					}
				}
				if trace == "0" {
					// The summary line also names error_rate and
					// checks_failed, which are zero on a healthy run and so
					// are not bounded end-to-end metrics.
					summary := lines[len(lines)-2]
					for _, nu := range []string{"wall_s=", " s ", "replications_per_s=", " 1/s ", "cpu_s=", "peak_rss_mb=", " MiB ",
						"setup_s=", "error_rate=", " ratio ", "checks_failed=", " count"} {
						if !strings.Contains(summary, nu) {
							t.Errorf("summary line %q lacks %q", summary, nu)
						}
					}
				}
			})
		}
	}
}

// TestArgs rejects malformed command lines.
func TestArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "figures", "--seconds", "0"},
		{"--workload", "figures", "--trace", "2"},
		{"--workload", "figures", "--seed", "0"},
		{"--workload", "figures", "extra"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%q) accepted", args)
		}
	}
}

// TestCPUByModule profiles a loop that spends its time in repro/internal/rng
// and checks that the attribution puts most samples there.
func TestCPUByModule(t *testing.T) {
	prof, err := profiled(func() error {
		src := rng.New(1)
		d := rng.Weibull{Shape: 0.7, Scale: 1}
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			for i := 0; i < 10000; i++ {
				sink += d.Sample(src)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	byMod, total, err := cpuByModule(prof)
	if err != nil {
		t.Fatal(err)
	}
	if total < 10 {
		t.Skipf("only %d samples", total)
	}
	if share := float64(byMod["rng"]) / float64(total); share < 0.5 {
		t.Errorf("rng holds %.2f of %d samples (%v), want most", share, total, byMod)
	}
}
