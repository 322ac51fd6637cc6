package san

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// buildHyperExpNet constructs a synthetic net with hyper-exponential
// delays, reactivation, instantaneous chains and a counter place — the
// distribution shapes the paper's model does not use, so the san-level
// differential test covers them here. The net: a token cycles
// work→buffer→work (timed hyper-exponential, instant return), a mode place
// toggles on a second timer, and a reactivating drain resamples whenever
// the mode flips.
func buildHyperExpNet() *Model {
	m := NewModel("hyperexp")
	work := m.Place("work", 1)
	buffer := m.Place("buffer", 0)
	mode := m.Place("mode", 0)
	modeClock := m.Place("mode_clock", 1)
	pool := m.Place("pool", 3)
	drained := m.Place("drained", 0)

	m.AddTimed(Activity{
		Name:  "serve",
		Input: AllOf(work),
		Delay: func(mk *Marking, src rng.Source) float64 {
			d := rng.HyperExponential{P: 0.2, MeanA: 5, MeanB: 0.5}
			return d.Sample(src)
		},
		Output: Out(func(mk *Marking) { mk.Move(work, buffer) }),
	})
	m.AddInstant(Activity{
		Name:   "recycle",
		Input:  AllOf(buffer),
		Output: Out(func(mk *Marking) { mk.Move(buffer, work) }),
	})
	m.AddTimed(Activity{
		Name:  "mode_flip",
		Input: AllOf(modeClock),
		Delay: func(mk *Marking, src rng.Source) float64 {
			return rng.Exponential{MeanValue: 3}.Sample(src)
		},
		Output: Out(func(mk *Marking) {
			if mk.Has(mode) {
				mk.Clear(mode)
			} else {
				mk.Set(mode, 1)
			}
		}, mode),
	})
	m.AddTimed(Activity{
		Name:  "drain",
		Input: AllOf(pool),
		Delay: func(mk *Marking, src rng.Source) float64 {
			d := rng.HyperExponential{P: 0.5, MeanA: 20, MeanB: 2}
			if mk.Has(mode) {
				d.MeanB = 0.2
			}
			return d.Sample(src)
		},
		Output:       Out(func(mk *Marking) { mk.Move(pool, drained) }),
		ReactivateOn: []*Place{mode},
	})
	// Refill keeps the trajectory alive past the pool's exhaustion; its
	// input gate is deliberately undeclared to mix conservative rescans
	// into the same differential trajectory.
	m.AddInstant(Activity{
		Name:  "refill",
		Input: When(func(mk *Marking) bool { return mk.Get(drained) >= 3 }),
		Output: Out(func(mk *Marking) {
			mk.Clear(drained)
			mk.Set(pool, 3)
		}),
	})
	return m
}

type firing struct {
	t    float64
	name string
}

// runHyperExp collects the trace and reward totals of one trajectory of the
// hyper-exponential net under the chosen scheduler.
func runHyperExp(t *testing.T, seed uint64, fullScan bool, horizon float64) ([]firing, float64, float64, uint64) {
	t.Helper()
	m := buildHyperExpNet()
	sim, err := NewSimulator(m, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	sim.FullScan = fullScan
	work := m.LookupPlace("work")
	mode := m.LookupPlace("mode")
	busy := sim.AddRateReward("busy", func(mk *Marking) float64 {
		return float64(mk.Get(work))
	}, work)
	modal := sim.AddRateReward("modal", func(mk *Marking) float64 {
		if mk.Has(mode) {
			return 1
		}
		return 0
	}) // undeclared: refreshed after every firing
	var drain *Activity
	for _, a := range m.Activities() {
		if a.Name == "drain" {
			drain = a
		}
	}
	drains := sim.AddImpulse("drains", drain, func(*Marking) float64 { return 1 })
	var events []firing
	sim.SetTrace(func(tm float64, a *Activity, _ *Marking) {
		events = append(events, firing{tm, a.Name})
	})
	sim.RunUntil(horizon)
	return events, busy.Integral(), modal.Integral(), drains.Count()
}

// TestHyperExponentialDifferential asserts bit-identical traces and reward
// totals between the incremental and full-scan schedulers on a net with
// hyper-exponential delays, reactivation and undeclared gates.
func TestHyperExponentialDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 11, 99} {
		incr, ibusy, imodal, idrains := runHyperExp(t, seed, false, 500)
		full, fbusy, fmodal, fdrains := runHyperExp(t, seed, true, 500)
		if len(incr) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		if len(incr) != len(full) {
			t.Fatalf("seed %d: event counts differ: %d vs %d", seed, len(incr), len(full))
		}
		for i := range incr {
			if incr[i] != full[i] {
				t.Fatalf("seed %d: event %d differs: %+v vs %+v", seed, i, incr[i], full[i])
			}
		}
		if ibusy != fbusy || imodal != fmodal {
			t.Fatalf("seed %d: reward integrals differ: (%v, %v) vs (%v, %v)",
				seed, ibusy, imodal, fbusy, fmodal)
		}
		if idrains != fdrains {
			t.Fatalf("seed %d: impulse counts differ: %d vs %d", seed, idrains, fdrains)
		}
	}
}

// TestFullScanToggleMidRun flips the scheduler mode between segments of a
// single trajectory: both paths maintain the same caches, so toggling must
// not perturb the trajectory relative to a pure run.
func TestFullScanToggleMidRun(t *testing.T) {
	collect := func(toggle bool) []firing {
		m := buildHyperExpNet()
		sim, err := NewSimulator(m, rng.New(17))
		if err != nil {
			t.Fatal(err)
		}
		var events []firing
		sim.SetTrace(func(tm float64, a *Activity, _ *Marking) {
			events = append(events, firing{tm, a.Name})
		})
		for seg := 1; seg <= 4; seg++ {
			if toggle {
				sim.FullScan = seg%2 == 1
			}
			sim.RunUntil(float64(seg) * 50)
		}
		return events
	}
	pure := collect(false)
	mixed := collect(true)
	if len(pure) != len(mixed) {
		t.Fatalf("event counts differ: %d vs %d", len(pure), len(mixed))
	}
	for i := range pure {
		if pure[i] != mixed[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, pure[i], mixed[i])
		}
	}
}

// TestResetReusesSchedulerState is the Reset regression guard for the
// incremental scheduler: after a completed trajectory, Reset must clear
// rewards, impulse counts and dirty-tracking state while retaining the
// dependency index, and a re-run with the same source state must behave
// like a fresh simulator.
func TestResetReusesSchedulerState(t *testing.T) {
	m := buildHyperExpNet()
	sim, err := NewSimulator(m, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	work := m.LookupPlace("work")
	busy := sim.AddRateReward("busy", func(mk *Marking) float64 {
		return float64(mk.Get(work))
	}, work)
	var drain *Activity
	for _, a := range m.Activities() {
		if a.Name == "drain" {
			drain = a
		}
	}
	drains := sim.AddImpulse("drains", drain, func(*Marking) float64 { return 1 })
	sim.RunUntil(200)
	if drains.Count() == 0 || busy.Integral() == 0 {
		t.Fatal("first trajectory accrued nothing; test is vacuous")
	}

	sim.Reset()
	if sim.Now() != 0 {
		t.Fatal("Reset did not rewind clock")
	}
	if busy.Integral() != 0 {
		t.Fatalf("Reset left rate integral %v", busy.Integral())
	}
	if drains.Count() != 0 || drains.Total() != 0 {
		t.Fatalf("Reset left impulse state count=%d total=%v", drains.Count(), drains.Total())
	}
	mk := sim.Marking()
	if !mk.dirty.empty() || !mk.fresh.empty() {
		t.Fatalf("Reset left open dirty state: dirty=%b fresh=%b", mk.dirty, mk.fresh)
	}
	if m.deps == nil {
		t.Fatal("Reset dropped the dependency index")
	}
	for _, p := range m.Places() {
		if mk.Get(p) != p.Initial {
			t.Fatalf("place %q = %d after Reset, want %d", p.Name, mk.Get(p), p.Initial)
		}
	}

	// The reused simulator must stay bit-identical to a fresh one driven
	// by a source in the same state. The reset simulator's source has
	// advanced through the first trajectory, so mirror that consumption
	// in the fresh simulator's source before comparing.
	var reused []firing
	sim.SetTrace(func(tm float64, a *Activity, _ *Marking) {
		reused = append(reused, firing{tm, a.Name})
	})
	sim.RunUntil(200)
	if drains.Count() == 0 {
		t.Fatal("reused simulator accrued no impulses")
	}
	if len(reused) == 0 {
		t.Fatal("reused simulator fired nothing")
	}

	// Cross-check reuse against the full-scan scheduler: Reset + re-run
	// under both modes from identically-seeded sources must agree.
	runTwice := func(fullScan bool) []firing {
		m2 := buildHyperExpNet()
		s2, err := NewSimulator(m2, rng.New(23))
		if err != nil {
			t.Fatal(err)
		}
		s2.FullScan = fullScan
		s2.RunUntil(200)
		s2.Reset()
		var out []firing
		s2.SetTrace(func(tm float64, a *Activity, _ *Marking) {
			out = append(out, firing{tm, a.Name})
		})
		s2.RunUntil(200)
		return out
	}
	incr := runTwice(false)
	full := runTwice(true)
	if len(incr) != len(full) || len(incr) != len(reused) {
		t.Fatalf("post-reset event counts differ: reused=%d incr=%d full=%d",
			len(reused), len(incr), len(full))
	}
	for i := range incr {
		if incr[i] != full[i] || incr[i] != reused[i] {
			t.Fatalf("post-reset event %d differs: reused=%+v incr=%+v full=%+v",
				i, reused[i], incr[i], full[i])
		}
	}
}

// buildWideNet generates a net of rings wide enough that every scheduler
// bitset — places, activities and rate rewards — spans more than one
// 64-bit word, with gates, reactivation lists and occupancy rewards that
// straddle the word boundaries. Ring i holds places a_i (one token), b_i
// and c_i; the places are created a's first, then b's, then c's, so a
// ring's places sit in different words, and a round-robin mode toggle
// (four mode places at the end) couples the rings. Per ring, in creation
// order (so activity indices interleave across words):
//
//   - go_i (timed): a_i → b_i, gated by AllOf(a_i, gate mode), When
//     with declared reads, or an undeclared When; its delay halves while
//     its own mode place is marked, and every third ring reactivates on
//     that place (every sixth also on a neighbour's a, in another word);
//   - hop_i (instantaneous): b_i → c_i, with priorities mixed across rings;
//   - back_i (timed): c_i → a_i, gated AllOf, declared or undeclared;
//   - every fourth ring, bump_i (instantaneous): when c_i and the next
//     ring's a are both marked, it pushes the next ring into b, which
//     enables that ring's hop — an instantaneous chain across rings.
//
// The rate rewards are occupancy rewards over (a_i, its mode place) and
// over c_i, a declared closure summing the b's, and an undeclared closure
// counting mode tokens — more than 64 rewards in all.
func buildWideNet(rings int) (*Model, func(sim *Simulator) []*RateReward) {
	m := NewModel("wide")
	a := make([]*Place, rings)
	b := make([]*Place, rings)
	c := make([]*Place, rings)
	for i := range a {
		a[i] = m.Place(fmt.Sprintf("a%d", i), 1)
	}
	for i := range b {
		b[i] = m.Place(fmt.Sprintf("b%d", i), 0)
	}
	for i := range c {
		c[i] = m.Place(fmt.Sprintf("c%d", i), 0)
	}
	var mode [4]*Place
	for k := range mode {
		mode[k] = m.Place(fmt.Sprintf("mode%d", k), k%2)
	}
	clock := m.Place("clock", 1)
	phase := m.Place("phase", 0)

	for i := 0; i < rings; i++ {
		i, md, gm := i, mode[i%4], mode[(i+2)%4]
		var goGate InputGate
		switch i % 3 {
		case 0:
			goGate = AllOf(a[i], gm)
		case 1:
			goGate = When(func(mk *Marking) bool { return mk.Has(a[i]) && mk.Has(gm) }, a[i], gm)
		default:
			goGate = When(func(mk *Marking) bool { return mk.Has(a[i]) })
		}
		goAct := Activity{
			Name:  fmt.Sprintf("go%d", i),
			Input: goGate,
			Delay: func(mk *Marking, src rng.Source) float64 {
				mean := 1 + float64(i%5)
				if mk.Has(md) {
					mean /= 2
				}
				return rng.Exponential{MeanValue: mean}.Sample(src)
			},
			Output: Out(func(mk *Marking) { mk.Move(a[i], b[i]) }),
		}
		switch i % 6 {
		case 0: // a list spanning two words
			goAct.ReactivateOn = []*Place{a[(i+5)%rings], md}
		case 3:
			goAct.ReactivateOn = []*Place{md}
		}
		m.AddTimed(goAct)
		m.AddInstant(Activity{
			Name:     fmt.Sprintf("hop%d", i),
			Input:    AllOf(b[i]),
			Output:   Out(func(mk *Marking) { mk.Move(b[i], c[i]) }),
			Priority: i % 3,
		})
		var backGate InputGate
		switch i % 3 {
		case 0:
			backGate = When(func(mk *Marking) bool { return mk.Get(c[i]) > 0 })
		case 1:
			backGate = AllOf(c[i])
		default:
			backGate = When(func(mk *Marking) bool { return mk.Has(c[i]) }, c[i])
		}
		m.AddTimed(Activity{
			Name:  fmt.Sprintf("back%d", i),
			Input: backGate,
			Delay: func(mk *Marking, src rng.Source) float64 {
				return rng.Exponential{MeanValue: 2}.Sample(src)
			},
			Output: Out(func(mk *Marking) { mk.Move(c[i], a[i]) }),
		})
		if i%4 == 0 {
			next := (i + 1) % rings
			m.AddInstant(Activity{
				Name:     fmt.Sprintf("bump%d", i),
				Input:    AllOf(c[i], a[next]),
				Output:   Out(func(mk *Marking) { mk.Move(a[next], b[next]) }),
				Priority: 1,
			})
		}
	}
	m.AddTimed(Activity{
		Name:  "flip",
		Input: AllOf(clock),
		Delay: func(mk *Marking, src rng.Source) float64 {
			return rng.Exponential{MeanValue: 1.5}.Sample(src)
		},
		Output: Out(func(mk *Marking) {
			k := mk.Get(phase)
			if mk.Has(mode[k]) {
				mk.Clear(mode[k])
			} else {
				mk.Set(mode[k], 1)
			}
			mk.Set(phase, (k+1)%4)
		}, phase),
	})

	rewards := func(sim *Simulator) []*RateReward {
		var out []*RateReward
		for i := 0; i < rings; i++ {
			out = append(out, sim.AddOccupancyReward(fmt.Sprintf("ready%d", i), a[i], mode[i%4]))
		}
		for i := 0; i < rings; i++ {
			out = append(out, sim.AddOccupancyReward(fmt.Sprintf("parked%d", i), c[i]))
		}
		out = append(out, sim.AddRateReward("in_flight", func(mk *Marking) float64 {
			n := 0
			for _, p := range b {
				n += mk.Get(p)
			}
			return float64(n)
		}, b...))
		out = append(out, sim.AddRateReward("modes_on", func(mk *Marking) float64 {
			n := 0
			for _, p := range mode {
				n += mk.Get(p)
			}
			return float64(n)
		})) // undeclared: refreshed after every firing
		return out
	}
	return m, rewards
}

// TestWideNetDifferential runs the multi-word net under both schedulers
// and requires identical traces and bit-identical reward integrals.
func TestWideNetDifferential(t *testing.T) {
	const rings = 40
	run := func(seed uint64, fullScan bool) ([]firing, []float64) {
		m, rewards := buildWideNet(rings)
		sim, err := NewSimulator(m, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if n := len(m.Places()); n <= 64 {
			t.Fatalf("wide net has %d places, want > 64", n)
		}
		if n := len(m.Activities()); n <= 64 {
			t.Fatalf("wide net has %d activities, want > 64", n)
		}
		rs := rewards(sim)
		if len(rs) <= 64 {
			t.Fatalf("wide net has %d rate rewards, want > 64", len(rs))
		}
		sim.FullScan = fullScan
		var events []firing
		sim.SetTrace(func(tm float64, a *Activity, _ *Marking) {
			events = append(events, firing{tm, a.Name})
		})
		sim.RunUntil(150)
		integrals := make([]float64, len(rs))
		for i, r := range rs {
			integrals[i] = r.Integral()
		}
		return events, integrals
	}
	for _, seed := range []uint64{1, 2, 5, 13} {
		incr, iInt := run(seed, false)
		full, fInt := run(seed, true)
		if len(incr) < 1000 {
			t.Fatalf("seed %d: only %d firings; the net is too quiet to test", seed, len(incr))
		}
		if len(incr) != len(full) {
			t.Fatalf("seed %d: event counts differ: %d vs %d", seed, len(incr), len(full))
		}
		for i := range incr {
			if incr[i] != full[i] {
				t.Fatalf("seed %d: event %d differs: %+v vs %+v", seed, i, incr[i], full[i])
			}
		}
		for i := range iInt {
			if iInt[i] != fInt[i] {
				t.Fatalf("seed %d: reward %d integral %v (incremental) vs %v (full scan)", seed, i, iInt[i], fInt[i])
			}
		}
	}
}
