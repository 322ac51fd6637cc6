// Command ccfigures regenerates the paper's evaluation figures (4a–4h and
// 5–8) by running the corresponding experiments and printing text tables
// (or CSV) of each series — the same rows/series the paper plots.
//
//	ccfigures                       # every figure, text tables, quick scale
//	ccfigures -only fig4a,fig8      # a subset
//	ccfigures -paper                # paper-scale windows (slow)
//	ccfigures -csv -out results/    # CSV files, one per figure
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/asciichart"
	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ccfigures:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ccfigures", flag.ContinueOnError)
	scenarioFlags := cli.CatalogFlags(fs)
	var (
		only      = fs.String("only", "", "comma-separated figure IDs (default: all)")
		scenarios = fs.String("scenario", "", "comma-separated scenario names: run a processor sweep per scenario instead of the paper figures")
		paper     = fs.Bool("paper", false, "paper-scale windows: 5 reps, 1000h warmup, 4000h measure (slow)")
		reps      = fs.Int("reps", 0, "override replication count")
		warmup    = fs.Float64("warmup", 0, "override transient hours to discard")
		measure   = fs.Float64("measure", 0, "override measured hours per replication")
		extras    = fs.Bool("extras", false, "include beyond-the-paper experiments (ablations, time breakdown)")
		chart     = fs.Bool("chart", false, "render ASCII charts alongside the tables")
		csv       = fs.Bool("csv", false, "emit CSV instead of text tables")
		out       = fs.String("out", "", "directory for per-figure output files (default: stdout)")
		seed      = fs.Uint64("seed", 1, "root random seed")
		workers   = fs.Int("workers", runtime.NumCPU(), "concurrent figure cells (1 = sequential; results are identical for any value)")
		metrics   = fs.Bool("metrics", false, "print the collected telemetry table to stderr when done")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	catalog, listed, err := scenarioFlags.Resolve(os.Stdout)
	if listed || err != nil {
		return err
	}

	opts := repro.Options{Replications: 3, Warmup: 300, Measure: 1500, Seed: *seed}
	if *paper {
		opts = repro.Options{Replications: 5, Warmup: 1000, Measure: 4000, Seed: *seed}
	}
	opts.Workers = *workers
	if *reps > 0 {
		opts.Replications = *reps
	}
	if *warmup > 0 {
		opts.Warmup = *warmup
	}
	if *measure > 0 {
		opts.Measure = *measure
	}
	var reg *repro.MetricsRegistry
	if *metrics {
		reg = repro.NewMetricsRegistry()
		opts.Metrics = reg
	}

	defs := experiments.All()
	if *extras {
		defs = append(defs, experiments.Extras()...)
	}
	if *scenarios != "" {
		defs = nil
		for _, name := range strings.Split(*scenarios, ",") {
			s, err := catalog.Get(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			defs = append(defs, experiments.ScenarioDef(s))
		}
	}
	if *only != "" {
		var filtered []experiments.Def
		for _, id := range strings.Split(*only, ",") {
			d, err := experiments.LookupAny(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			filtered = append(filtered, d)
		}
		defs = filtered
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}

	for _, def := range defs {
		start := time.Now()
		fig, err := def.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", def.ID, err)
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", def.ID, time.Since(start).Round(time.Millisecond))
		if err := emit(fig, def, *csv, *chart, *out); err != nil {
			return err
		}
	}
	if *metrics {
		fmt.Fprintln(os.Stderr, "telemetry")
		reg.WriteTable(os.Stderr)
	}
	return nil
}

func emit(fig *repro.Figure, def experiments.Def, csv, chart bool, outDir string) error {
	w := os.Stdout
	if outDir != "" {
		ext := ".txt"
		if csv {
			ext = ".csv"
		}
		f, err := os.Create(filepath.Join(outDir, def.ID+ext))
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if csv {
		return experiments.WriteCSV(w, fig)
	}
	if err := experiments.WriteTable(w, fig); err != nil {
		return err
	}
	if chart {
		logX := strings.Contains(fig.XLabel, "processors") || strings.Contains(fig.XLabel, "nodes")
		if _, err := fmt.Fprintln(w, asciichart.Render(fig, asciichart.Options{LogX: logX})); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  shape claim: %s\n\n", def.ShapeClaim)
	return err
}
