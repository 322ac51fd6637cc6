// Command ccjob forecasts the wall-clock completion time of a job on the
// modeled machine: given the job's useful-work requirement, it reports the
// completion-time distribution (mean, quantiles, stretch factor) over
// independent replications of the cycle engine.
//
//	ccjob -work 5000 -procs 65536 -mttf-years 1
//	ccjob -work 5000 -config machine.json -reps 20
//
// A forecast can also be planned into a run directory and run there as a
// resumable multi-process job by ccsweep's run-directory verbs (see
// internal/blocks): the reduced forecast is bit-identical to the
// monolithic one regardless of worker count or crashes.
//
//	ccjob -work 5000 -reps 100 -manifest run/   # plan
//	ccsweep -worker run/                        # any number of processes
//	ccsweep -reduce run/                        # merge and report
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/blocks"
	"repro/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccjob:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ccjob", flag.ContinueOnError)
	model := cli.ModelFlags(fs, "procs", "mttf-years", "interval-min")
	var (
		configPath  = fs.String("config", "", "JSON configuration file")
		work        = fs.Float64("work", 1000, "useful work the job needs, hours")
		reps        = fs.Int("reps", 10, "independent replications")
		seed        = fs.Uint64("seed", 1, "root random seed")
		manifestDir = fs.String("manifest", "", "plan the forecast into this run directory and exit without simulating")
		blockSize   = fs.Int("block-size", 1, "replications per claimable block when planning with -manifest")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := cli.Base(nil, *configPath, "")
	if err != nil {
		return err
	}
	if err := model.Apply(&cfg); err != nil {
		return err
	}
	// The completion engine requires the cycle envelope.
	cfg.ComputeFraction = 1
	cfg.NoIOFailures = true
	if err := repro.Validate(cfg); err != nil {
		return err
	}

	if *manifestDir != "" {
		m, err := blocks.Plan([]blocks.Cell{{
			Label:        fmt.Sprintf("work=%g", *work),
			X:            *work,
			Seed:         *seed,
			Replications: *reps,
			Config:       cfg,
		}}, blocks.PlanOptions{
			Name:      "job",
			Kind:      blocks.KindCompletion,
			Work:      *work,
			BlockSize: *blockSize,
		})
		if err != nil {
			return err
		}
		if err := blocks.CreateRun(*manifestDir, m); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "planned job: %d reps = %d blocks (size %d)\n", *reps, len(m.Blocks), m.BlockSize)
		fmt.Fprintf(stdout, "manifest %s\n", m.Hash)
		fmt.Fprintf(stdout, "run 'ccsweep -worker %s' (any number of processes), then 'ccsweep -reduce %s'\n",
			*manifestDir, *manifestDir)
		return nil
	}

	comp, err := repro.JobCompletionTime(cfg, *work, *reps, *seed)
	if err != nil {
		return err
	}
	cli.WriteCompletion(stdout, cfg.Processors, comp)
	return nil
}
