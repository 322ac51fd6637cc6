package san_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/san"
)

// TestCompiledMasksAgreeOnPaperNet is a property test over random markings
// of the paper's composed net: every AllOf gate the model declares compiles
// to a place mask that agrees with the gate's predicate, and an occupancy
// reward over any of the model's state places — each place alone, and the
// execution ∧ sys_up pair behind useful work — agrees with its closure.
// Random markings reach far beyond the states a trajectory visits, so this
// covers gate and reward evaluations the differential tests cannot.
func TestCompiledMasksAgreeOnPaperNet(t *testing.T) {
	for _, name := range []string{"base", "everything"} {
		cfg := cluster.Default()
		if name == "everything" { // every optional submodel wired in
			cfg.Coordination = cluster.CoordMaxOfN
			cfg.Timeout = cluster.Seconds(100)
			cfg.ProbCorrelated = 0.2
			cfg.CorrelatedFactor = 400
			cfg.ProbPermanentFailure = 0.2
			cfg.ReconfigurationTime = cluster.Minutes(15)
			cfg.IncrementalFraction = 0.2
			cfg.FullCheckpointEvery = 4
			cfg.BlockingCheckpointWrite = true
			cfg.FailurePredictionAccuracy = 0.5
			cfg.MigrationTime = cluster.Minutes(5)
		}
		in, err := model.New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		net := in.Model()
		sim, err := san.NewSimulator(net, rng.New(2))
		if err != nil {
			t.Fatal(err)
		}
		places := net.Places()
		for _, p := range places {
			sim.AddOccupancyReward("occ_"+p.Name, p)
		}
		sim.AddOccupancyReward("progress", net.LookupPlace("execution"), net.LookupPlace("sys_up"))
		mk := sim.Marking()
		src := rng.New(3)
		for trial := 0; trial < 5000; trial++ {
			for _, p := range places {
				// Mostly 0/1 flags, occasionally a larger count.
				n := int(src.Uint64() % 3)
				if n == 2 && src.Uint64()%4 != 0 {
					n = 1
				}
				mk.Set(p, n)
			}
			gates, rewards, err := sim.CheckCompiled()
			if err != nil {
				t.Fatalf("%s, trial %d: %v", name, trial, err)
			}
			if gates == 0 || rewards != len(places)+1 {
				t.Fatalf("%s: compared %d gates and %d rewards; the check is vacuous", name, gates, rewards)
			}
		}
	}
}
