// Command cccompare estimates two systems with common random numbers and
// reports the paired difference of their useful-work metrics — the
// statistically sound way to answer "is B better than A?" for a single
// design or parameter change. Each side is either a JSON configuration
// file or a named scenario from the catalog (see -list-scenarios).
//
//	cccompare -a base.json -b candidate.json
//	cccompare -a base -b migration -reps 10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cccompare:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cccompare", flag.ContinueOnError)
	catalog := cli.CatalogFlags(fs)
	var (
		aPath      = fs.String("a", "", "baseline: JSON configuration file or scenario name (required)")
		bPath      = fs.String("b", "", "candidate: JSON configuration file or scenario name (required)")
		reps       = fs.Int("reps", 5, "paired replications")
		warmup     = fs.Float64("warmup", 300, "transient hours to discard")
		measure    = fs.Float64("measure", 1500, "measured hours per replication")
		seed       = fs.Uint64("seed", 1, "root random seed (shared by both systems)")
		syncReport = fs.Bool("sync-report", false, "audit the common-random-numbers pairing: per-purpose draw alignment and residual output correlation")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, listed, err := catalog.Resolve(stdout)
	if listed || err != nil {
		return err
	}
	if *aPath == "" || *bPath == "" {
		return fmt.Errorf("both -a and -b are required")
	}
	a, err := cli.Load(reg, *aPath)
	if err != nil {
		return fmt.Errorf("config A: %w", err)
	}
	b, err := cli.Load(reg, *bPath)
	if err != nil {
		return fmt.Errorf("config B: %w", err)
	}
	comp, err := repro.CompareConfigs(a, b, repro.Options{
		Replications: *reps, Warmup: *warmup, Measure: *measure, Seed: *seed,
		SyncReport: *syncReport,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "A (%s)  useful fraction %v\n", *aPath, comp.A.UsefulWorkFraction)
	fmt.Fprintf(stdout, "B (%s)  useful fraction %v\n", *bPath, comp.B.UsefulWorkFraction)
	fmt.Fprintf(stdout, "paired difference (B−A)  fraction %v | total %v\n",
		comp.FractionDiff, comp.TotalDiff)
	switch {
	case !comp.Significant():
		fmt.Fprintln(stdout, "verdict: no significant difference at 95% confidence")
	case comp.FractionDiff.Mean > 0:
		fmt.Fprintln(stdout, "verdict: B is significantly better")
	default:
		fmt.Fprintln(stdout, "verdict: B is significantly worse")
	}
	if s := comp.Sync; s != nil {
		fmt.Fprintf(stdout, "CRN sync audit: %d pairs | in sync %.0f%% | output correlation %.3f | CI shrink ×%.2f\n",
			s.Pairs, 100*s.InSyncFraction, s.OutputCorrelation, s.CIShrinkFactor)
		for _, c := range s.Components {
			fmt.Fprintf(stdout, "  %-18s mean draws A %.1f | B %.1f | matched pairs %d/%d\n",
				c.Name, c.MeanDrawsA, c.MeanDrawsB, c.MatchedPairs, s.Pairs)
		}
	}
	return nil
}
