package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// figuresJob regenerates every paper figure (experiments.All, fig4a–fig8)
// in memory, exactly as ccfigures does at its default scale.
type figuresJob struct {
	defs []experiments.Def
	opts runner.Options
}

func setupFigures(sc *scale, seed uint64) (job, error) {
	// The figure bases resolve from the scenario catalog; resolving and
	// converting it here is the catalog work ccfigures does before its
	// first figure.
	if _, err := catalogConfigs(); err != nil {
		return nil, err
	}
	opts := sc.figures
	opts.Seed = seed
	return &figuresJob{defs: experiments.All(), opts: opts}, nil
}

func (j *figuresJob) discard() error { return nil }

func (j *figuresJob) run(tr *tracer) (outcome, error) {
	out := outcome{layer: map[string]float64{}}
	opts := j.opts
	opts.Metrics = tr.registry()
	var answer bytes.Buffer
	root := tr.begin("figures", 0, 0)
	sw := startWatch()
	for _, def := range j.defs {
		id := tr.begin("experiments/"+def.ID, root, 0)
		t0 := time.Now()
		fig, err := def.Run(opts)
		out.layer["experiments.fig_s."+def.ID] = time.Since(t0).Seconds()
		tr.end(id)
		if err != nil {
			out.attempted++
			out.failed++
			out.checks = append(out.checks, check{name: def.ID + " runs", detail: err.Error()})
			continue
		}
		n := replications(fig)
		out.reps += n
		out.attempted += n
		out.checks = append(out.checks, figureSane(fig))
		for i, c := range experiments.CheckClaims(fig) {
			out.checks = append(out.checks, check{
				name:   fmt.Sprintf("%s claim %d (%s)", c.Figure, i, c.Claim),
				ok:     c.Pass,
				claim:  true,
				detail: c.Detail,
			})
		}
		if err := experiments.WriteTable(&answer, fig); err != nil {
			return out, err
		}
	}
	out.wall, out.cpu = sw.stop()
	tr.end(root)
	out.answer = answer.Bytes()
	return out, nil
}

// replications counts the simulated replications behind a figure's
// measured points (analytic points carry none).
func replications(fig *experiments.Figure) int {
	n := 0
	for _, s := range fig.Series {
		for _, p := range s.Points {
			n += p.Fraction.N
		}
	}
	return n
}

// figureSane checks that a figure has points and that every useful-work
// fraction and total is a finite value in range.
func figureSane(fig *experiments.Figure) check {
	c := check{name: fig.ID + " well-formed", ok: true}
	points := 0
	for _, s := range fig.Series {
		for _, p := range s.Points {
			points++
			f, t := p.Fraction.Mean, p.Total.Mean
			if math.IsNaN(f) || f < 0 || f > 1 || math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
				c.ok = false
				c.detail = fmt.Sprintf("series %s x=%g: fraction %v total %v", s.Name, p.X, f, t)
				return c
			}
		}
	}
	if points == 0 {
		c.ok = false
		c.detail = "no points"
	}
	return c
}

// catalogConfigs resolves the built-in scenario catalog and converts every
// scenario to a validated model configuration, keyed by scenario name.
func catalogConfigs() (map[string]cluster.Config, error) {
	reg, err := scenario.Resolve("")
	if err != nil {
		return nil, err
	}
	out := map[string]cluster.Config{}
	for _, s := range reg.All() {
		cfg, err := s.ClusterConfig()
		if err != nil {
			return nil, err
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		out[s.Name] = cfg
	}
	return out, nil
}
