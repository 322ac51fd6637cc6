package san

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Marking is the read/write view of the net's state passed to predicates
// and effects. Besides the token counts it keeps three place bitsets that
// drive the incremental scheduler:
//
//   - dirty: places changed since the last settle — consumed once per
//     settle (timed reconciliation, reactivation);
//   - fresh: places changed since the instantaneous-enabling cache last
//     absorbed them, which in incremental mode is the last firing's
//     changes — consumed after every firing (rate-reward refresh,
//     instantaneous enabling);
//   - full: places holding at least one token — what compiled AllOf gates
//     and occupancy rewards are tested against.
//
// Set is small enough to inline into gate effects, and Move inlines both of
// its Sets; their panic paths format out of line for that reason. Every
// settle ends by emptying dirty and fresh.
type Marking struct {
	tokens []int
	dirty  bitset
	fresh  bitset
	full   bitset
}

// Get returns the number of tokens in p.
func (m *Marking) Get(p *Place) int { return m.tokens[p.index] }

// Has reports whether p holds at least one token.
func (m *Marking) Has(p *Place) bool { return m.tokens[p.index] > 0 }

// Set assigns the token count of p. Negative counts panic: they always
// indicate a broken gate function.
func (m *Marking) Set(p *Place, n int) {
	if n < 0 {
		panic(markingError{place: p, n: n})
	}
	i := p.index
	if m.tokens[i] == n {
		return
	}
	m.tokens[i] = n
	w, bit := i>>6, uint64(1)<<(i&63)
	m.dirty[w] |= bit
	m.fresh[w] |= bit
	if n > 0 {
		m.full[w] |= bit
	} else {
		m.full[w] &^= bit
	}
}

// Add adds delta tokens to p (delta may be negative).
func (m *Marking) Add(p *Place, delta int) { m.Set(p, m.tokens[p.index]+delta) }

// Move transfers one token from src to dst; it panics when src is empty,
// because moving a non-existent token is a structural modeling error.
func (m *Marking) Move(src, dst *Place) {
	n := m.tokens[src.index]
	if n < 1 {
		panic(markingError{place: src, move: true})
	}
	m.Set(src, n-1)
	m.Set(dst, m.tokens[dst.index]+1)
}

// Clear removes all tokens from p.
func (m *Marking) Clear(p *Place) { m.Set(p, 0) }

// markingError is the panic value of a broken gate function: a negative
// count n written to place, or a move out of the empty place. Its message
// is formatted only when printed, which keeps Set inlinable.
type markingError struct {
	place *Place
	n     int
	move  bool
}

func (e markingError) Error() string {
	if e.move {
		return fmt.Sprintf("san: move from empty place %q", e.place.Name)
	}
	return fmt.Sprintf("san: place %q set to negative count %d", e.place.Name, e.n)
}

// clearChanges closes the settle's change sets.
func (m *Marking) clearChanges() {
	m.dirty.reset()
	m.fresh.reset()
}

// RateReward integrates a marking-dependent rate over simulated time, the
// SAN analogue of accumulated reward (the paper's useful-work measure is
// built from one rate reward plus impulse rewards).
type RateReward struct {
	Name string
	Rate func(m *Marking) float64

	integral float64
	lastRate float64
	lastTime float64
}

// Integral returns the accumulated ∫rate dt so far.
func (r *RateReward) Integral() float64 { return r.integral }

// ImpulseHook runs when a specific activity fires, after its Effect. The
// returned value is added to the hook's accumulator; hooks may also mutate
// external reward state (closures).
type ImpulseHook struct {
	Name     string
	Activity *Activity
	Impulse  func(m *Marking) float64

	total float64
	count uint64
}

// Total returns the accumulated impulse reward.
func (h *ImpulseHook) Total() float64 { return h.total }

// Count returns the number of times the hook fired.
func (h *ImpulseHook) Count() uint64 { return h.count }

// TraceFunc observes every firing: time, activity, marking after firing.
type TraceFunc func(t float64, a *Activity, m *Marking)

// Invariant is a marking predicate checked after every firing when
// invariant checking is enabled; returning an error panics with context,
// because a violated invariant means the net itself is broken and no
// result derived from the trajectory can be trusted.
type Invariant struct {
	Name  string
	Check func(m *Marking) error
}

// Simulator executes a Model as a discrete-event simulation. Create with
// NewSimulator; a Simulator is single-use for one trajectory (call Reset to
// reuse, which restores the initial marking and clears rewards).
//
// By default the simulator schedules incrementally: after each firing only
// the activities and rate rewards whose declared read places changed are
// reconciled, found through the model's compiled dependency index, and
// AllOf gates and occupancy rewards are evaluated as place masks. The
// FullScan option restores the historic O(places + activities) rescan of
// the whole net after every firing, calling every gate and rate closure;
// both schedulers produce bit-identical trajectories when all read-sets
// are declared correctly, which the differential tests assert.
type Simulator struct {
	model *Model
	deps  *depIndex   // the model's compiled index
	acts  []*Activity // the model's activities, by index
	src   rng.Source
	eng   *des.Engine

	marking   *Marking
	scheduled []des.Handle        // per-activity pending event (zero when disabled)
	enabled   bitset              // timed activities: scheduled at last reconcile
	instOn    bitset              // instantaneous activities: cached input-gate truth
	handlers  []func(*des.Engine) // per-activity firing handlers, built once

	rates     []*RateReward
	occupancy []bitset // per rate reward: the places of an occupancy reward (nil: call Rate)
	rateRows  rows     // place → rate rewards whose declared reads include it
	rateScan  bitset   // rate rewards with undeclared read-sets (nil: none)

	impulses [][]*ImpulseHook // per-activity impulse hooks

	// Per-pass closures. Each is empty between passes: the pass that
	// fills one takes its words back to zero as it walks them.
	actSet  bitset // activities to re-evaluate
	rateSet bitset // rate rewards to refresh

	firedAct int // timed activity whose event fired this settle (-1: none)

	trace      TraceFunc
	hooks      []TraceFunc
	invariants []Invariant
	stats      *simStats // nil when uninstrumented (the default)

	// FullScan disables incremental reconciliation: every settle rescans
	// all activities and every firing re-evaluates all rate rewards, as
	// the pre-index executor did. Kept for differential testing and as a
	// debugging aid when a gate's declared read-set is suspect. The flag
	// may be toggled between runs of the same simulator; both modes keep
	// the incremental caches coherent.
	FullScan bool

	// MaxInstantChain guards against livelock among instantaneous
	// activities; exceeded chains panic. Default 10000.
	MaxInstantChain int
}

// simStats holds the simulator's shard-local observability handles. The
// hot loop pays one nil check per instrumented site when detached and a
// plain integer increment when attached; every handle lives on an
// obs.Shard, so parallel replications never share a cache line.
type simStats struct {
	settles       *obs.LocalCounter   // settle passes (one per firing chain)
	timedFirings  *obs.LocalCounter   // timed activity firings
	instFirings   *obs.LocalCounter   // instantaneous activity firings
	reactivations *obs.LocalCounter   // in-place delay resamples (ReactivateOn)
	closureInc    *obs.LocalHistogram // dirty-closure sizes (incremental mode)
	closureFull   *obs.LocalHistogram // reconcile set sizes (full-scan mode)
	queueDepth    *obs.LocalHistogram // pending events, sampled per settle
	engFired      *obs.LocalCounter   // filled from the engine by FlushEngineStats
	engScheduled  *obs.LocalCounter
	engCancelled  *obs.LocalCounter
	sampleTick    uint64 // settles seen; drives the histogram sampling below
}

// statsSampleMask thins the per-settle histogram observations (queue depth,
// closure sizes) to 1 in 16: histogram updates cost several times a plain
// counter increment, and the sampled distribution is statistically
// indistinguishable over the millions of settles of a real trajectory.
// Counters are never sampled. The tick is derived from the settle count, a
// pure function of the trajectory, so sampled telemetry — and the run
// journal built from it — stays deterministic.
const statsSampleMask = 15

// closureBuckets covers reconcile-set sizes from single-activity settles
// up to nets far larger than the paper model's 23 activities.
var closureBuckets = obs.ExpBuckets(1, 2, 9) // 1..256

// Instrument attaches the simulator's telemetry to sh (nil detaches):
// firing/settle/reactivation counters, dirty-closure and queue-depth
// histograms, and — via FlushEngineStats — the event engine's counters.
// Call after NewSimulator (or Reset) and FlushEngineStats once when the
// trajectory ends; then merge the shard into its registry.
func (s *Simulator) Instrument(sh *obs.Shard) {
	if sh == nil {
		s.stats = nil
		return
	}
	s.stats = &simStats{
		settles:       sh.Counter("san.settles"),
		timedFirings:  sh.Counter("san.timed_firings"),
		instFirings:   sh.Counter("san.instant_firings"),
		reactivations: sh.Counter("san.reactivations"),
		closureInc:    sh.Histogram("san.dirty_closure", closureBuckets),
		closureFull:   sh.Histogram("san.fullscan_closure", closureBuckets),
		queueDepth:    sh.Histogram("des.queue_depth", closureBuckets),
		engFired:      sh.Counter("des.events_fired"),
		engScheduled:  sh.Counter("des.events_scheduled"),
		engCancelled:  sh.Counter("des.events_cancelled"),
	}
}

// FlushEngineStats folds the event engine's counters into the attached
// shard. Call exactly once, after the trajectory's last RunUntil — the
// engine counts are cumulative, so flushing twice without a Reset in
// between would double-count.
func (s *Simulator) FlushEngineStats() {
	st := s.stats
	if st == nil {
		return
	}
	st.engFired.Add(s.eng.Fired())
	st.engScheduled.Add(s.eng.Scheduled())
	st.engCancelled.Add(s.eng.Cancelled())
}

// PoolStats exposes the engine's event-pool telemetry: Schedule calls
// served from the free list, Schedule calls that allocated a fresh event,
// and the number of events currently pooled. Hits and misses rewind on
// Reset, so after a reset they describe the current trajectory only.
func (s *Simulator) PoolStats() (hits, misses uint64, size int) {
	return s.eng.PoolHits(), s.eng.PoolMisses(), s.eng.PoolSize()
}

// NewSimulator validates the model (compiling its dependency index) and
// prepares an executor with the given random source.
func NewSimulator(model *Model, src rng.Source) (*Simulator, error) {
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("san: %w", err)
	}
	s := &Simulator{
		model:           model,
		deps:            model.deps,
		acts:            model.activities,
		src:             src,
		rateRows:        newRows(len(model.places), 0),
		impulses:        make([][]*ImpulseHook, len(model.activities)),
		actSet:          newBitset(len(model.activities)),
		firedAct:        -1,
		MaxInstantChain: 10000,
	}
	s.handlers = make([]func(*des.Engine), len(model.activities))
	for _, a := range model.activities {
		if a.Kind != Timed {
			continue
		}
		a := a
		s.handlers[a.index] = func(*des.Engine) {
			s.scheduled[a.index] = des.Handle{}
			s.enabled.unset(a.index)
			s.firedAct = a.index
			s.fire(a)
			s.settle()
		}
	}
	s.Reset()
	return s, nil
}

// Reset restores the initial marking, clears the event queue and rewards,
// and rewinds the clock to zero. The random source is NOT reset, so
// consecutive trajectories are independent. The model's dependency index
// and the rewards' declared read-sets are retained — only trajectory state
// is rewound, in place: the marking, the engine (whose event pool and queue
// storage survive via des.Engine.Reset), and the per-activity caches are
// reused, so a reset trajectory reaches steady state without allocating.
// Trajectories on a reset simulator are bit-identical to ones on a freshly
// built simulator fed the same random stream: the engine restarts its FIFO
// sequence numbers, and every place starts dirty so the initial settle
// reconciles in creation order.
func (s *Simulator) Reset() {
	n := len(s.model.places)
	nActs := len(s.model.activities)
	if s.marking == nil { // first construction
		s.marking = &Marking{
			tokens: make([]int, n),
			dirty:  newBitset(n),
			fresh:  newBitset(n),
			full:   newBitset(n),
		}
		s.eng = des.New()
		s.scheduled = make([]des.Handle, nActs)
		s.enabled = newBitset(nActs)
		s.instOn = newBitset(nActs)
	} else {
		s.eng.Reset()
		clear(s.scheduled)
		s.enabled.reset()
		s.instOn.reset()
	}
	m := s.marking
	m.full.reset()
	// Every place starts dirty so the first settle performs the initial
	// reconciliation through the same incremental path as any other.
	for _, p := range s.model.places {
		m.tokens[p.index] = p.Initial
		m.dirty.set(p.index)
		m.fresh.set(p.index)
		if p.Initial > 0 {
			m.full.set(p.index)
		}
	}
	s.firedAct = -1
	for _, hooks := range s.impulses {
		for _, h := range hooks {
			h.total, h.count = 0, 0
		}
	}
	s.settle()
	for _, r := range s.rates {
		r.integral = 0
		r.lastRate = r.Rate(s.marking)
		r.lastTime = 0
	}
}

// SetSource swaps the random source future delay samples are drawn from.
// Pending events keep the delays they were scheduled with — only draws made
// after the call see the new source. The variance-reduction layer uses this
// to run a reflected (antithetic) trajectory on a recycled simulator by
// wrapping the original stream, and the importance-splitting driver uses it
// to branch a trajectory's future randomness mid-run; call it before Reset
// when the whole trajectory must use the new source (Reset's initial settle
// already samples delays).
func (s *Simulator) SetSource(src rng.Source) { s.src = src }

// Now returns the current simulated time.
func (s *Simulator) Now() float64 { return s.eng.Now() }

// Fired returns the number of activity firings so far.
func (s *Simulator) Fired() uint64 { return s.eng.Fired() }

// Marking exposes the current marking (read it, don't mutate it outside
// activity effects).
func (s *Simulator) Marking() *Marking { return s.marking }

// SetTrace installs a firing observer (nil disables tracing).
func (s *Simulator) SetTrace(f TraceFunc) { s.trace = f }

// AddFiringHook registers an additional firing observer, called after the
// SetTrace observer with the same (time, activity, post-firing marking)
// arguments. Hooks are independent of SetTrace so a tool can stream raw
// events while a phase-span recorder watches the same trajectory; they are
// strictly observational — a hook must not mutate the marking or draw from
// the random source, which is what keeps traced and untraced trajectories
// bit-identical. Hooks survive Reset and cannot be removed; a Simulator
// that needs different observers is rebuilt.
func (s *Simulator) AddFiringHook(f TraceFunc) {
	if f == nil {
		panic("san: nil firing hook")
	}
	s.hooks = append(s.hooks, f)
}

// AddInvariant registers a marking predicate evaluated after every firing.
// A violation panics with the firing context — invariants exist to catch
// modeling bugs in tests, not to report runtime errors.
func (s *Simulator) AddInvariant(name string, check func(m *Marking) error) {
	s.invariants = append(s.invariants, Invariant{Name: name, Check: check})
}

// AddRateReward registers a rate reward evaluated over the marking process.
// The variadic reads declare the places the rate function depends on; with
// them the incremental scheduler re-evaluates the rate only when one of
// those places changes. Omitting reads is always correct but re-evaluates
// the rate after every firing.
func (s *Simulator) AddRateReward(name string, rate func(m *Marking) float64, reads ...*Place) *RateReward {
	for _, p := range reads {
		if !s.model.owns(p) {
			panic(fmt.Sprintf("san: rate reward %q reads foreign place %q", name, p.Name))
		}
	}
	r := &RateReward{Name: name, Rate: rate}
	r.lastRate = rate(s.marking)
	r.lastTime = s.eng.Now()
	ri := len(s.rates)
	s.rates = append(s.rates, r)
	s.occupancy = append(s.occupancy, nil)
	s.rateRows.growCols(len(s.model.places), len(s.rates))
	if wordsFor(len(s.rates)) > len(s.rateSet) {
		s.rateSet = append(s.rateSet, 0)
	}
	if len(reads) == 0 {
		for len(s.rateScan) < len(s.rateSet) {
			s.rateScan = append(s.rateScan, 0)
		}
		s.rateScan.set(ri)
	}
	for _, p := range reads {
		s.rateRows.row(p.index).set(ri)
	}
	return r
}

// AddOccupancyReward registers the occupancy indicator of a state: a rate
// reward whose rate is 1 exactly when every listed place holds at least
// one token, and 0 otherwise. The incremental scheduler tests it as a
// place mask against the marking; the full scan calls the equivalent
// closure, so the differential tests check one against the other.
func (s *Simulator) AddOccupancyReward(name string, places ...*Place) *RateReward {
	has := allHave(append([]*Place(nil), places...))
	r := s.AddRateReward(name, func(m *Marking) float64 {
		if has(m) {
			return 1
		}
		return 0
	}, places...)
	occ := newBitset(len(s.model.places))
	for _, p := range places {
		occ.set(p.index)
	}
	s.occupancy[len(s.rates)-1] = occ
	return r
}

// AddImpulse registers an impulse reward accrued each time act fires.
func (s *Simulator) AddImpulse(name string, act *Activity, impulse func(m *Marking) float64) *ImpulseHook {
	h := &ImpulseHook{Name: name, Activity: act, Impulse: impulse}
	s.impulses[act.index] = append(s.impulses[act.index], h)
	return h
}

// RunUntil advances the simulation to the given time horizon. Rate rewards
// are closed out exactly at the horizon.
func (s *Simulator) RunUntil(horizon float64) {
	s.eng.RunUntil(horizon)
	s.closeRates(horizon)
}

// Step fires the next scheduled activity (if any) and reports whether one
// fired.
func (s *Simulator) Step() bool { return s.eng.Step() }

// settle performs the post-firing fixed point: fire enabled instantaneous
// activities (highest priority first) until none are enabled, then
// reconcile timed activity schedules with the new marking. Incremental
// mode touches only the activities in the dirty closure — the set reached
// from the changed places through the dependency index, plus the activity
// that just fired (whose schedule changed without any place needing to).
func (s *Simulator) settle() {
	for chain := 0; ; chain++ {
		if chain > s.MaxInstantChain {
			panic(fmt.Sprintf("san: instantaneous livelock in model %s", s.model.Name))
		}
		var a *Activity
		if s.FullScan {
			a = s.nextInstantFull()
		} else {
			s.absorbInstantDirt()
			a = s.nextInstantCached()
		}
		if a == nil {
			break
		}
		s.fire(a)
	}
	if s.FullScan {
		s.reconcileTimedFull()
	} else {
		s.reconcileTimedDirty()
	}
	s.firedAct = -1
	s.marking.clearChanges()
	if st := s.stats; st != nil {
		st.settles.Inc()
		if st.sampleTick&statsSampleMask == 0 {
			st.queueDepth.Observe(float64(s.eng.Pending()))
		}
		st.sampleTick++
	}
}

// gatesOn evaluates the input gates of the activities in x, word w of an
// activity bitset, and returns the ones that hold: a compiled AllOf gate
// is a mask test against the non-empty places, any other gate calls its
// predicate. Gates are pure, so a caller may evaluate a whole word before
// acting on any of it.
func (s *Simulator) gatesOn(w int, x uint64) uint64 {
	var on uint64
	deps, full := s.deps, s.marking.full
	compiled := deps.compiled[w]
	for ; x != 0; x &= x - 1 {
		tz := bits.TrailingZeros64(x)
		bit, ai := uint64(1)<<tz, w<<6|tz
		if compiled&bit != 0 {
			if deps.gates.rowWithin(ai, full) {
				on |= bit
			}
		} else if s.acts[ai].Input.Cond(s.marking) {
			on |= bit
		}
	}
	return on
}

// nextInstantFull scans every instantaneous activity, refreshing the
// enabling cache as it goes, and returns the highest-priority enabled one
// (ties break by creation order for determinism), or nil.
func (s *Simulator) nextInstantFull() *Activity {
	var best *Activity
	for _, ai := range s.deps.instants {
		a := s.acts[ai]
		if !a.Input.Cond(s.marking) {
			s.instOn.unset(int(ai))
			continue
		}
		s.instOn.set(int(ai))
		if best == nil || a.Priority > best.Priority {
			best = a
		}
	}
	return best
}

// absorbInstantDirt re-evaluates the instantaneous activities whose
// declared reads include a place changed since the last absorption, plus
// the undeclared ones, updating the enabling cache.
func (s *Simulator) absorbInstantDirt() {
	m, deps := s.marking, s.deps
	if len(deps.instants) == 0 {
		return
	}
	c := s.actSet
	if !deps.instRows.orRows(c, m.fresh) {
		return
	}
	c.or(deps.scanInst)
	for w, x := range c {
		if x != 0 {
			c[w] = 0
			s.instOn[w] = s.instOn[w]&^x | s.gatesOn(w, x)
		}
	}
	m.fresh.reset()
}

// nextInstantCached picks the highest-priority enabled instantaneous
// activity from the cache maintained by absorbInstantDirt. Walking the
// cache in ascending index order preserves the full scan's creation-order
// tie-breaking exactly.
func (s *Simulator) nextInstantCached() *Activity {
	var best *Activity
	if len(s.deps.instants) == 0 {
		return nil
	}
	for w, x := range s.instOn {
		for x != 0 {
			a := s.acts[w<<6|bits.TrailingZeros64(x)]
			x &= x - 1
			if best == nil || a.Priority > best.Priority {
				best = a
			}
		}
	}
	return best
}

// reconcileTimedFull cancels newly-disabled timed activities, schedules
// newly-enabled ones, and resamples activities whose reactivation places
// changed — scanning every timed activity (the historic scheduler).
func (s *Simulator) reconcileTimedFull() {
	if st := s.stats; st != nil && st.sampleTick&statsSampleMask == 0 {
		st.closureFull.Observe(float64(len(s.deps.timed)))
	}
	for _, ai := range s.deps.timed {
		s.reconcileOne(int(ai), s.acts[ai].Input.Cond(s.marking))
	}
}

// reconcileTimedDirty reconciles only the timed activities in the dirty
// closure: the OR of the changed places' watcher rows (enabling or
// reactivation), the undeclared activities, and the activity that fired.
// Walking the closure in ascending index order is creation order, which
// keeps delay-sampling order — and therefore the random stream — identical
// to the full scan.
func (s *Simulator) reconcileTimedDirty() {
	deps := s.deps
	c := s.actSet
	if fa := s.firedAct; fa >= 0 {
		c.set(fa)
	}
	if deps.timedRows.orRows(c, s.marking.dirty) {
		c.or(deps.scanTimed)
	}
	if st := s.stats; st != nil && st.sampleTick&statsSampleMask == 0 {
		st.closureInc.Observe(float64(c.count()))
	}
	for w, x := range c {
		if x == 0 {
			continue
		}
		c[w] = 0
		// Only activities whose gate changed, or that stay enabled and
		// may reactivate, have anything to do.
		on, was := s.gatesOn(w, x), s.enabled[w]
		for act := x & (on ^ was | on&was&deps.reactive[w]); act != 0; act &= act - 1 {
			tz := bits.TrailingZeros64(act)
			s.reconcileOne(w<<6|tz, on&(1<<tz) != 0)
		}
	}
}

// reconcileOne applies the schedule/cancel/resample decision for timed
// activity ai, whose input gate currently evaluates to on.
func (s *Simulator) reconcileOne(ai int, on bool) {
	was := s.enabled.has(ai)
	switch {
	case on && !was:
		s.schedule(s.acts[ai])
	case !on && was:
		s.eng.Cancel(s.scheduled[ai])
		s.scheduled[ai] = des.Handle{}
		s.enabled.unset(ai)
	case on && was && s.deps.reacts.rowMeets(ai, s.marking.dirty):
		s.eng.Cancel(s.scheduled[ai])
		s.schedule(s.acts[ai])
		if st := s.stats; st != nil {
			st.reactivations.Inc()
		}
	}
}

// schedule samples a delay for a and enqueues its firing.
func (s *Simulator) schedule(a *Activity) {
	d := a.Delay(s.marking, s.src)
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("san: activity %q sampled invalid delay %v", a.Name, d))
	}
	s.enabled.set(a.index)
	s.scheduled[a.index] = s.eng.ScheduleAfter(d, a.Name, s.handlers[a.index])
}

// fire applies a's effect, accrues rewards and notifies the trace.
func (s *Simulator) fire(a *Activity) {
	now := s.eng.Now()
	if st := s.stats; st != nil {
		if a.Kind == Timed {
			st.timedFirings.Inc()
		} else {
			st.instFirings.Inc()
		}
	}
	s.accrueRates(now)
	a.Output.Apply(s.marking)
	for _, h := range s.impulses[a.index] {
		h.total += h.Impulse(s.marking)
		h.count++
	}
	if s.FullScan {
		s.refreshRatesFull(now)
	} else {
		s.refreshRatesDirty(now)
	}
	for _, inv := range s.invariants {
		if err := inv.Check(s.marking); err != nil {
			panic(fmt.Sprintf("san: invariant %q violated after %s at t=%v: %v (marking: %s)",
				inv.Name, a.Name, now, err, s.DescribeMarking()))
		}
	}
	if s.trace != nil {
		s.trace(now, a, s.marking)
	}
	for _, h := range s.hooks {
		h(now, a, s.marking)
	}
}

// accrueRates integrates each rate reward up to time t with the
// pre-firing rate. This stays a full pass in both modes — two float
// operations per reward, and skipping some would change the order of
// floating-point accumulation and break bit-identity with the full scan.
func (s *Simulator) accrueRates(t float64) {
	for _, r := range s.rates {
		r.integral += r.lastRate * (t - r.lastTime)
		r.lastTime = t
	}
}

// refreshRatesFull re-evaluates every rate closure against the post-firing
// marking.
func (s *Simulator) refreshRatesFull(t float64) {
	for _, r := range s.rates {
		r.lastRate = r.Rate(s.marking)
		r.lastTime = t
	}
}

// refreshRatesDirty re-evaluates only the rates whose declared reads
// include a place changed since the enabling cache last absorbed the
// marking's changes — in incremental mode, exactly the places this firing
// changed — plus the undeclared ones. Occupancy rewards are mask tests. A
// skipped rate would have re-evaluated to the same value, so the accrued
// integrals stay bit-identical to the full scan.
func (s *Simulator) refreshRatesDirty(t float64) {
	m, c := s.marking, s.rateSet
	if !s.rateRows.orRows(c, m.fresh) {
		return
	}
	c.or(s.rateScan)
	for w, x := range c {
		c[w] = 0
		for x != 0 {
			ri := w<<6 | bits.TrailingZeros64(x)
			x &= x - 1
			r, occ := s.rates[ri], s.occupancy[ri]
			switch {
			case occ == nil:
				r.lastRate = r.Rate(m)
			case m.full.containsAll(occ):
				r.lastRate = 1
			default:
				r.lastRate = 0
			}
			r.lastTime = t
		}
	}
}

// closeRates integrates rates up to the horizon.
func (s *Simulator) closeRates(t float64) {
	for _, r := range s.rates {
		if t > r.lastTime {
			r.integral += r.lastRate * (t - r.lastTime)
			r.lastTime = t
		}
	}
}

// CurrentMarking exposes the live marking for read-only observation —
// firing hooks and phase extractors read individual places from it without
// paying for a map snapshot. Mutating it corrupts the simulation.
func (s *Simulator) CurrentMarking() *Marking { return s.marking }

// Snapshot returns a copy of the token counts keyed by place name, for
// tests and debugging.
func (s *Simulator) Snapshot() map[string]int {
	out := make(map[string]int, len(s.model.places))
	for _, p := range s.model.places {
		out[p.Name] = s.marking.Get(p)
	}
	return out
}

// DescribeMarking renders the non-empty places sorted by name — handy in
// panic messages and traces.
func (s *Simulator) DescribeMarking() string {
	type pv struct {
		name string
		n    int
	}
	var list []pv
	for _, p := range s.model.places {
		if n := s.marking.Get(p); n > 0 {
			list = append(list, pv{p.Name, n})
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	out := ""
	for i, e := range list {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", e.name, e.n)
	}
	return out
}
