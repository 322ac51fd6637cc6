package cli

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestBinaryFlagSets pins every command-line tool's flag set — names,
// types, defaults and usage text — by building the binaries and comparing
// their -h output with testdata/usage. The -workers default is the host's
// CPU count, so it is compared as "NumCPU". Regenerate a golden file only
// for an intended flag change.
func TestBinaryFlagSets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	bin := t.TempDir()
	build := exec.Command(goTool(), "build", "-o", bin+string(filepath.Separator), "repro/cmd/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cases := [][]string{
		{"cccompare"}, {"ccfigures"}, {"ccfit"}, {"ccjob"}, {"ccreport"},
		{"ccsim"}, {"ccsweep"}, {"cctop"}, {"cctrace"},
		{"ccbench", "convert"}, {"ccbench", "record"}, {"ccbench", "trend"}, {"ccbench", "compare"},
	}
	numCPU := fmt.Sprintf("any value) (default %d)\n", runtime.NumCPU())
	for _, c := range cases {
		name := strings.Join(c, "-")
		t.Run(name, func(t *testing.T) {
			// -h exits non-zero on ContinueOnError flag sets; the usage
			// text is the output either way.
			out, _ := exec.Command(filepath.Join(bin, c[0]), append(c[1:], "-h")...).CombinedOutput()
			got := strings.ReplaceAll(string(out), numCPU, "any value) (default NumCPU)\n")
			want, err := os.ReadFile(filepath.Join("testdata", "usage", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s flag set changed\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}

// goTool locates the go command of the toolchain running this test.
func goTool() string {
	p := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(p); err != nil {
		return "go"
	}
	return p
}

// TestModelFlagDefaultsAreClusterDefaults is what makes the one overlay
// rule sound: applying every model flag at its default leaves
// cluster.Default() unchanged, so "apply only what the user set" and
// "apply everything when there is no base" agree.
func TestModelFlagDefaultsAreClusterDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	names := []string{"coordination"}
	for _, f := range modelFlags {
		names = append(names, f.name)
	}
	m := ModelFlags(fs, names...)
	var args []string
	fs.VisitAll(func(f *flag.Flag) { args = append(args, "-"+f.Name+"="+f.DefValue) })
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Default()
	if err := m.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg != cluster.Default() {
		t.Fatalf("model flag defaults moved the config:\n got %+v\nwant %+v", cfg, cluster.Default())
	}
}

func TestModelFlagsOverlayOnlyExplicit(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	m := ModelFlags(fs, "procs", "mttf-years", "coordination")
	if err := fs.Parse([]string{"-mttf-years", "2", "-coordination", "max-of-n"}); err != nil {
		t.Fatal(err)
	}
	base := cluster.Default()
	base.Processors = 8192 // stands in for a -config or -scenario value
	if err := m.Apply(&base); err != nil {
		t.Fatal(err)
	}
	if base.Processors != 8192 || base.MTTFPerNode != cluster.Years(2) || base.Coordination != cluster.CoordMaxOfN {
		t.Fatalf("overlay = %+v", base)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	m = ModelFlags(fs, "coordination")
	if err := fs.Parse([]string{"-coordination", "psychic"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(&base); err == nil || !strings.Contains(err.Error(), "coordination") {
		t.Fatalf("bad coordination accepted: %v", err)
	}
}

func TestLoadFileOrScenario(t *testing.T) {
	reg, _, err := CatalogFlags(flag.NewFlagSet("t", flag.ContinueOnError)).Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, []byte(`{"processors": 16384}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if cfg, err := Load(reg, path); err != nil || cfg.Processors != 16384 {
		t.Fatalf("file: %+v, %v", cfg, err)
	}
	if _, err := Load(reg, "base"); err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if _, err := Load(reg, "no-such-thing"); err == nil || !strings.Contains(err.Error(), "neither") {
		t.Fatalf("bad reference accepted: %v", err)
	}
	if _, err := Base(reg, path, "base"); err == nil {
		t.Fatal("-config with -scenario accepted")
	}
}
