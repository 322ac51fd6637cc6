package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestCompletionRunDirectoryMatchesMonolithic runs a job-completion
// forecast through a run directory with real processes: ccjob -manifest
// plans it, two ccsweep -worker processes race over it, and ccsweep
// -reduce must print byte for byte what the monolithic ccjob run prints.
func TestCompletionRunDirectoryMatchesMonolithic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin")
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goCmd); err != nil {
		goCmd = "go"
	}
	if out, err := exec.Command(goCmd, "build", "-o", bin+string(filepath.Separator),
		"repro/cmd/ccjob", "repro/cmd/ccsweep").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ccjob, ccsweep := filepath.Join(bin, "ccjob"), filepath.Join(bin, "ccsweep")
	output := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(name, args...).Output()
		if err != nil {
			t.Fatalf("%s %v: %v", filepath.Base(name), args, err)
		}
		return string(out)
	}

	job := []string{"-work", "1000", "-reps", "6", "-seed", "5"}
	want := output(ccjob, job...)
	runDir := filepath.Join(dir, "run")
	output(ccjob, append(job, "-manifest", runDir, "-block-size", "2")...)

	workers := make([]*exec.Cmd, 2)
	for i, name := range []string{"a", "b"} {
		workers[i] = exec.Command(ccsweep, "-worker", runDir, "-worker-name", name, "-workers", "1")
		workers[i].Stderr = os.Stderr
		if err := workers[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workers {
		if err := w.Wait(); err != nil {
			t.Fatalf("worker: %v", err)
		}
	}

	if got := output(ccsweep, "-reduce", runDir); got != want {
		t.Errorf("reduced forecast differs from monolithic ccjob\nccjob:\n%s\nccsweep -reduce:\n%s", want, got)
	}
}
