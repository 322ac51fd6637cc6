package san

import "fmt"

// CheckCompiled evaluates every compiled AllOf gate and every occupancy
// reward of s at the current marking both ways — the place mask the
// incremental scheduler tests and the closure the full scan calls — and
// reports the first disagreement. It returns the number of gates and
// rewards compared so a caller can reject a vacuous check.
func (s *Simulator) CheckCompiled() (gates, rewards int, err error) {
	m := s.marking
	for ai, a := range s.acts {
		if !s.deps.compiled.has(ai) {
			continue
		}
		gates++
		w, bit := ai>>6, uint64(1)<<(ai&63)
		if mask, cond := s.gatesOn(w, bit) != 0, a.Input.Cond(m); mask != cond {
			return gates, rewards, fmt.Errorf("activity %q: mask says %v, Cond says %v (marking %s)",
				a.Name, mask, cond, s.DescribeMarking())
		}
	}
	for ri, r := range s.rates {
		occ := s.occupancy[ri]
		if occ == nil {
			continue
		}
		rewards++
		mask := 0.0
		if m.full.containsAll(occ) {
			mask = 1
		}
		if rate := r.Rate(m); mask != rate {
			return gates, rewards, fmt.Errorf("occupancy reward %q: mask says %v, Rate says %v (marking %s)",
				r.Name, mask, rate, s.DescribeMarking())
		}
	}
	return gates, rewards, nil
}
