// Package san implements Stochastic Activity Networks (SANs), the modeling
// formalism the paper uses (via the Möbius tool, reimplemented here from
// scratch): places holding tokens, timed and instantaneous activities with
// marking-dependent enabling predicates (input gates), firing effects
// (output gates), marking-dependent delay distributions with reactivation,
// and rate/impulse reward variables evaluated over the marking process.
//
// Gates are declarative: an input or output gate names the places its
// closure reads. Validate compiles the declarations into a place→activity
// dependency index of word bitsets, which lets the executor in
// simulator.go reconcile enabling incrementally — after a firing only the
// activities (and rate rewards) whose declared read places actually
// changed are re-evaluated, instead of rescanning the whole net. Gates
// with an empty read-set are treated conservatively as "reads everything"
// and rescanned after every firing, so undeclared nets remain correct,
// just slower. AllOf gates compile further, to a place mask tested against
// the marking's non-empty set without calling the predicate.
//
// The executor in simulator.go turns a Model into a discrete-event
// simulation on top of internal/des.
package san

import (
	"fmt"

	"repro/internal/rng"
)

// Place is a token holder. Tokens are non-negative integers; most places in
// the paper's model hold zero or one token and act as state flags, matching
// the "all compute nodes modeled as a single unit" abstraction of Section 4.
type Place struct {
	Name    string
	Initial int
	index   int
}

// Kind distinguishes timed activities (fire after a sampled delay) from
// instantaneous ones (fire immediately when enabled).
type Kind int

const (
	// Timed activities fire after a delay drawn from Delay.
	Timed Kind = iota + 1
	// Instantaneous activities fire as soon as they are enabled, before
	// any timed activity and before simulated time advances.
	Instantaneous
)

// Predicate is an input-gate enabling condition over the marking.
type Predicate func(m *Marking) bool

// Effect is an output-gate firing function: it moves tokens.
type Effect func(m *Marking)

// DelayFunc samples a firing delay for a timed activity in the current
// marking. It is invoked when the activity becomes enabled and again on
// reactivation.
type DelayFunc func(m *Marking, src rng.Source) float64

// InputGate is a declarative enabling condition: the predicate plus the
// places it reads. The read-set must cover every place whose token count
// can change the predicate's value; the simulator relies on it to decide
// which activities need re-evaluation after a firing. A nil/empty Reads
// means "undeclared": the activity is conservatively re-evaluated after
// every firing that changed any place.
type InputGate struct {
	Reads []*Place
	Cond  Predicate

	allOf bool // built by AllOf: Cond holds exactly when every Reads place is non-empty
}

// OutputGate is a declarative firing function: the effect plus the places
// it reads to decide what to write (e.g. a branch on a counter place).
// Writes need no declaration — the marking records them dynamically. The
// read-set is validated for membership and exposed for introspection and
// tooling; it does not influence scheduling, because effects always run
// against the current marking.
type OutputGate struct {
	Reads []*Place
	Apply Effect
}

// When builds an input gate from a predicate and the places it reads.
func When(cond Predicate, reads ...*Place) InputGate {
	return InputGate{Reads: reads, Cond: cond}
}

// AllOf builds the most common input gate declaratively: enabled exactly
// when every listed place holds at least one token. The read-set is the
// listed places themselves. Validate compiles the gate to a place mask the
// incremental scheduler tests without calling Cond; the full scan calls
// Cond, so the differential tests check the two against each other.
func AllOf(places ...*Place) InputGate {
	ps := append([]*Place(nil), places...)
	return InputGate{Reads: ps, Cond: allHave(ps), allOf: true}
}

// allHave is the predicate form of an AllOf mask.
func allHave(ps []*Place) Predicate {
	return func(m *Marking) bool {
		for _, p := range ps {
			if !m.Has(p) {
				return false
			}
		}
		return true
	}
}

// Out builds an output gate from an effect and the places it reads.
func Out(apply Effect, reads ...*Place) OutputGate {
	return OutputGate{Reads: reads, Apply: apply}
}

// Activity is a SAN activity. Use Model.AddTimed / Model.AddInstant to
// create activities; the zero value is not valid.
type Activity struct {
	Name   string
	Kind   Kind
	Input  InputGate
	Delay  DelayFunc // nil for instantaneous activities
	Output OutputGate
	// ReactivateOn lists places whose token-count changes force the
	// activity to resample its delay while it remains enabled. This is
	// how marking-dependent failure rates (correlated-failure windows)
	// are modeled; resampling an exponential is statistically sound by
	// memorylessness. Only timed activities may reactivate — an
	// instantaneous activity never holds a sampled delay to resample.
	ReactivateOn []*Place
	// Priority orders simultaneous instantaneous firings (higher first).
	Priority int

	index int
}

// Enabled evaluates the input gate's condition.
func (a *Activity) Enabled(m *Marking) bool { return a.Input.Cond(m) }

// Fire applies the output gate's effect.
func (a *Activity) Fire(m *Marking) { a.Output.Apply(m) }

// Model is an immutable (after Validate) SAN structure: places plus
// activities. Build one with NewModel, then hand it to NewSimulator.
type Model struct {
	Name       string
	places     []*Place
	activities []*Activity
	byName     map[string]*Place
	deps       *depIndex // compiled dependency index, built by Validate
}

// depIndex is the compiled place→activity dependency index: for every
// place, which activities' enabling (and, tracked separately by the
// simulator, which rewards' rates) can change when its token count
// changes. Rows are activity bitsets, so the dirty closure of a set of
// changed places is the OR of their rows. Built by Validate from the
// declared gate read-sets.
type depIndex struct {
	timedRows rows    // place → timed activities whose input gate reads it or that reactivate on it
	instRows  rows    // place → instantaneous activities whose input gate reads it
	scanTimed bitset  // timed activities with undeclared input read-sets (nil: none)
	scanInst  bitset  // instantaneous activities with undeclared input read-sets (nil: none)
	timed     []int32 // all timed activities, creation order
	instants  []int32 // all instantaneous activities, creation order

	compiled bitset // activities whose input gate is an AllOf, compiled to their gates row
	gates    rows   // activity → the places its input gate reads
	reactive bitset // activities with a ReactivateOn list
	reacts   rows   // activity → its ReactivateOn places
}

// NewModel returns an empty model.
func NewModel(name string) *Model {
	return &Model{Name: name, byName: make(map[string]*Place)}
}

// Place adds a place with the given name and initial token count. Duplicate
// names panic: the paper's submodels share state by *name identity*, so a
// silent duplicate would split a shared place in two.
func (mod *Model) Place(name string, initial int) *Place {
	if _, dup := mod.byName[name]; dup {
		panic(fmt.Sprintf("san: duplicate place %q", name))
	}
	if initial < 0 {
		panic(fmt.Sprintf("san: place %q has negative initial marking", name))
	}
	p := &Place{Name: name, Initial: initial, index: len(mod.places)}
	mod.places = append(mod.places, p)
	mod.byName[name] = p
	return p
}

// LookupPlace returns the place with the given name, or nil.
func (mod *Model) LookupPlace(name string) *Place { return mod.byName[name] }

// Places returns the model's places in creation order.
func (mod *Model) Places() []*Place {
	out := make([]*Place, len(mod.places))
	copy(out, mod.places)
	return out
}

// Activities returns the model's activities in creation order.
func (mod *Model) Activities() []*Activity {
	out := make([]*Activity, len(mod.activities))
	copy(out, mod.activities)
	return out
}

// AddTimed registers a timed activity.
func (mod *Model) AddTimed(a Activity) *Activity {
	a.Kind = Timed
	return mod.add(a)
}

// AddInstant registers an instantaneous activity.
func (mod *Model) AddInstant(a Activity) *Activity {
	a.Kind = Instantaneous
	a.Delay = nil
	return mod.add(a)
}

func (mod *Model) add(a Activity) *Activity {
	act := a
	act.index = len(mod.activities)
	mod.activities = append(mod.activities, &act)
	mod.deps = nil // structure changed; Validate must rebuild the index
	return &act
}

// owns reports whether p belongs to this model.
func (mod *Model) owns(p *Place) bool {
	return p != nil && p.index < len(mod.places) && mod.places[p.index] == p
}

// Validate checks structural well-formedness — every activity has a name,
// an enabling predicate, a firing effect, and (if timed) a delay function;
// gate read-sets and reactivation places belong to this model; only timed
// activities reactivate — and compiles the dependency index, the AllOf
// gate masks and the reactivation masks used by the incremental scheduler.
// Duplicate ReactivateOn entries collapse into one mask bit. Validate is
// idempotent; NewSimulator calls it.
func (mod *Model) Validate() error {
	seen := make(map[string]bool, len(mod.activities))
	nPlaces, nActs := len(mod.places), len(mod.activities)
	deps := &depIndex{
		timedRows: newRows(nPlaces, nActs),
		instRows:  newRows(nPlaces, nActs),
		scanTimed: newBitset(nActs),
		scanInst:  newBitset(nActs),
		compiled:  newBitset(nActs),
		gates:     newRows(nActs, nPlaces),
		reactive:  newBitset(nActs),
		reacts:    newRows(nActs, nPlaces),
	}
	for _, a := range mod.activities {
		switch {
		case a.Name == "":
			return fmt.Errorf("model %s: unnamed activity", mod.Name)
		case seen[a.Name]:
			return fmt.Errorf("model %s: duplicate activity %q", mod.Name, a.Name)
		case a.Input.Cond == nil:
			return fmt.Errorf("model %s: activity %q has no enabling predicate", mod.Name, a.Name)
		case a.Output.Apply == nil:
			return fmt.Errorf("model %s: activity %q has no firing effect", mod.Name, a.Name)
		case a.Kind == Timed && a.Delay == nil:
			return fmt.Errorf("model %s: timed activity %q has no delay", mod.Name, a.Name)
		case a.Kind != Timed && a.Kind != Instantaneous:
			return fmt.Errorf("model %s: activity %q has invalid kind %d", mod.Name, a.Name, a.Kind)
		case a.Kind == Instantaneous && len(a.ReactivateOn) > 0:
			return fmt.Errorf("model %s: instantaneous activity %q has ReactivateOn (no sampled delay to resample)", mod.Name, a.Name)
		}
		seen[a.Name] = true
		enable := deps.instRows
		if a.Kind == Timed {
			enable = deps.timedRows
		}
		for _, p := range a.Input.Reads {
			if !mod.owns(p) {
				return fmt.Errorf("model %s: activity %q input gate reads foreign place %q", mod.Name, a.Name, p.Name)
			}
			enable.row(p.index).set(a.index)
			deps.gates.row(a.index).set(p.index)
		}
		if a.Input.allOf {
			deps.compiled.set(a.index)
		}
		for _, p := range a.Output.Reads {
			if !mod.owns(p) {
				return fmt.Errorf("model %s: activity %q output gate reads foreign place %q", mod.Name, a.Name, p.Name)
			}
		}
		for _, p := range a.ReactivateOn {
			if !mod.owns(p) {
				return fmt.Errorf("model %s: activity %q reactivates on foreign place %q", mod.Name, a.Name, p.Name)
			}
			deps.reacts.row(a.index).set(p.index)
			deps.timedRows.row(p.index).set(a.index)
			deps.reactive.set(a.index)
		}
		if a.Kind == Timed {
			deps.timed = append(deps.timed, int32(a.index))
			if len(a.Input.Reads) == 0 {
				deps.scanTimed.set(a.index)
			}
		} else {
			deps.instants = append(deps.instants, int32(a.index))
			if len(a.Input.Reads) == 0 {
				deps.scanInst.set(a.index)
			}
		}
	}
	if deps.scanTimed.empty() {
		deps.scanTimed = nil
	}
	if deps.scanInst.empty() {
		deps.scanInst = nil
	}
	mod.deps = deps
	return nil
}
