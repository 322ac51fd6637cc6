// Package cli is the flag plumbing the command-line tools share: one
// table of model-parameter flags, the overlay rule that applies them to a
// base configuration, the loader that resolves that base from a JSON file
// or a catalog scenario, and the job-completion forecast renderer.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/configio"
	"repro/internal/cyclesim"
	"repro/internal/scenario"
)

// modelFlag is one numeric model-parameter flag. def fixes the flag's type
// (int when integer is set, float64 otherwise) and equals the
// cluster.Default() value, so a flag left at its default changes nothing.
type modelFlag struct {
	name    string
	def     float64
	integer bool
	usage   string
	set     func(c *cluster.Config, v float64)
}

// modelFlags is the one table of model-parameter flags. Sweeps reuse the
// setters, so a sweep parameter means exactly what the flag of the same
// name means.
var modelFlags = []modelFlag{
	{"procs", 65536, true, "total compute processors", func(c *cluster.Config, v float64) { c.Processors = int(v) }},
	{"procs-per-node", 8, true, "processors per node", func(c *cluster.Config, v float64) { c.ProcsPerNode = int(v) }},
	{"mttf-years", 1, false, "per-node MTTF in years", func(c *cluster.Config, v float64) { c.MTTFPerNode = cluster.Years(v) }},
	{"mttr-min", 10, false, "system MTTR in minutes", func(c *cluster.Config, v float64) { c.MTTR = cluster.Minutes(v) }},
	{"interval-min", 30, false, "checkpoint interval in minutes", func(c *cluster.Config, v float64) { c.CheckpointInterval = cluster.Minutes(v) }},
	{"mttq-sec", 10, false, "per-node mean time to quiesce in seconds", func(c *cluster.Config, v float64) { c.MTTQ = cluster.Seconds(v) }},
	{"timeout-sec", 0, false, "coordination timeout in seconds (0 = none)", func(c *cluster.Config, v float64) { c.Timeout = cluster.Seconds(v) }},
	{"pe", 0, false, "probability of correlated failure (error propagation)", func(c *cluster.Config, v float64) { c.ProbCorrelated = v }},
	{"r", 0, false, "correlated failure rate factor", func(c *cluster.Config, v float64) { c.CorrelatedFactor = v }},
	{"alpha", 0, false, "generic correlated failure coefficient", func(c *cluster.Config, v float64) { c.GenericCorrelatedCoefficient = v }},
}

// Setter returns the config mutator of the named numeric model flag.
func Setter(name string) (func(*cluster.Config, float64), bool) {
	f, ok := lookup(name)
	return f.set, ok
}

// Model is a set of model flags registered on one FlagSet.
type Model struct {
	fs    *flag.FlagSet
	apply map[string]func(*cluster.Config) error
}

// ModelFlags registers the named model flags on fs: names from the table,
// or "coordination", the one string-valued flag, whose names go through
// configio.ParseCoordination like a config file's. An unknown name is a
// programming error and panics.
func ModelFlags(fs *flag.FlagSet, names ...string) *Model {
	m := &Model{fs: fs, apply: map[string]func(*cluster.Config) error{}}
	for _, name := range names {
		if name == "coordination" {
			v := fs.String(name, "fixed", "coordination mode: fixed, none, max-of-n")
			m.apply[name] = func(c *cluster.Config) error {
				mode, err := configio.ParseCoordination(*v)
				c.Coordination = mode
				return err
			}
			continue
		}
		f, ok := lookup(name)
		if !ok {
			panic("cli: unknown model flag " + name)
		}
		if f.integer {
			v := fs.Int(name, int(f.def), f.usage)
			m.apply[name] = func(c *cluster.Config) error { f.set(c, float64(*v)); return nil }
		} else {
			v := fs.Float64(name, f.def, f.usage)
			m.apply[name] = func(c *cluster.Config) error { f.set(c, *v); return nil }
		}
	}
	return m
}

func lookup(name string) (modelFlag, bool) {
	for _, f := range modelFlags {
		if f.name == name {
			return f, true
		}
	}
	return modelFlag{}, false
}

// Apply overlays the model flags the user set explicitly onto c, so flag
// defaults never clobber a -config file or -scenario base. Without a base
// this is the same as applying every flag, because every default equals
// cluster.Default(). Call it after fs.Parse.
func (m *Model) Apply(c *cluster.Config) error {
	var err error
	m.fs.Visit(func(f *flag.Flag) {
		if a, ok := m.apply[f.Name]; ok && err == nil {
			err = a(c)
		}
	})
	return err
}

// Catalog is the -scenario-dir/-list-scenarios flag pair.
type Catalog struct {
	dir  *string
	list *bool
}

// CatalogFlags registers -scenario-dir and -list-scenarios on fs.
func CatalogFlags(fs *flag.FlagSet) *Catalog {
	return &Catalog{
		dir:  fs.String("scenario-dir", "", "directory of scenario files extending/overriding the built-in catalog"),
		list: fs.Bool("list-scenarios", false, "list the scenario catalog and exit"),
	}
}

// Resolve builds the scenario registry. With -list-scenarios it writes the
// catalog to w and reports listed, and the caller should exit.
func (c *Catalog) Resolve(w io.Writer) (reg *scenario.Registry, listed bool, err error) {
	if reg, err = scenario.Resolve(*c.dir); err != nil {
		return nil, false, err
	}
	if *c.list {
		return reg, true, reg.WriteList(w)
	}
	return reg, false, nil
}

// Base resolves the configuration a run starts from: the JSON file at
// configPath, the named scenario of reg, or the Table 3 defaults.
func Base(reg *scenario.Registry, configPath, scenarioName string) (cluster.Config, error) {
	switch {
	case configPath != "" && scenarioName != "":
		return cluster.Config{}, fmt.Errorf("-scenario and -config are mutually exclusive")
	case scenarioName != "":
		s, err := reg.Get(scenarioName)
		if err != nil {
			return cluster.Config{}, err
		}
		return s.ClusterConfig()
	case configPath != "":
		return loadFile(configPath)
	}
	return cluster.Default(), nil
}

// loadFile reads a JSON configuration file.
func loadFile(path string) (cluster.Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg, err := configio.Load(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return cfg, err
}

// Load resolves ref as a JSON configuration file when one exists and as a
// scenario name of reg otherwise. A ref that is neither reports both
// failures.
func Load(reg *scenario.Registry, ref string) (cluster.Config, error) {
	f, err := os.Open(ref)
	if err == nil {
		defer f.Close()
		return configio.Load(f)
	}
	s, serr := reg.Get(ref)
	if serr != nil {
		return cluster.Config{}, fmt.Errorf("%q is neither a readable file (%v) nor a scenario (%v)", ref, err, serr)
	}
	return s.ClusterConfig()
}

// WriteCompletion renders a job-completion forecast. The monolithic ccjob
// run and a reduced run directory both print through it, so the two
// outputs cannot drift.
func WriteCompletion(w io.Writer, processors int, comp cyclesim.Completion) {
	fmt.Fprintf(w, "job                 %.0f h of useful work on %d processors\n", comp.Work, processors)
	fmt.Fprintf(w, "expected completion %v h\n", comp.Mean)
	fmt.Fprintf(w, "stretch factor      %.2fx over a failure-free machine\n", comp.Stretch())
	fmt.Fprintf(w, "quantiles           p10 %.0f | p50 %.0f | p90 %.0f h\n",
		comp.Quantile(0.1), comp.Quantile(0.5), comp.Quantile(0.9))
}
