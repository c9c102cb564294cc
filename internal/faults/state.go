package faults

import (
	"corropt/internal/optics"
	"corropt/internal/topology"
)

// State tracks the optical condition and corruption rate of every link in a
// topology as faults are applied and repaired. It is the ground truth the
// telemetry layer reads and the mitigation algorithms react to.
//
// State is not safe for concurrent use; simulations drive it from a single
// event loop.
type State struct {
	topo *topology.Topology
	// tech is the first link's technology, kept for the common
	// single-technology case; techs holds the per-link assignment.
	tech   optics.Technology
	techs  []optics.Technology
	links  []*optics.Link
	active [][]*Fault // per link, faults touching it
	faults map[ID]*Fault
	// suppressed[id] marks links whose effects of fault id were repaired
	// individually (a link-scoped repair fixes the connector or
	// transceiver of one link without touching the fault's other links).
	suppressed map[ID]map[topology.LinkID]bool
	// rate[dir][link] is the corruption rate CorruptionRate reports: the
	// optics-derived rate at the receiving side combined with the direct
	// (non-optical) contributions of the link's active faults. A link's
	// rate is stable between fault events (§3, Figure 2), so it is worked
	// out where the link's condition changes — recompute and Reset own
	// every write — and the read accessors cost an array read.
	rate [2][]float64
}

// NewState returns a healthy State for the topology where every link uses
// the given transceiver technology.
func NewState(topo *topology.Topology, tech optics.Technology) *State {
	return NewMultiTechState(topo, func(topology.LinkID) optics.Technology { return tech })
}

// NewMultiTechState returns a healthy State where each link's transceiver
// technology is chosen by assign — real fabrics mix 10G/40G/100G optics
// with different power thresholds, which is why Algorithm 1 keys
// PowerThreshRx and PowerThreshTx per technology (§5.2).
func NewMultiTechState(topo *topology.Topology, assign func(topology.LinkID) optics.Technology) *State {
	n := topo.NumLinks()
	s := &State{
		topo:       topo,
		techs:      make([]optics.Technology, n),
		links:      make([]*optics.Link, n),
		active:     make([][]*Fault, n),
		faults:     make(map[ID]*Fault),
		suppressed: make(map[ID]map[topology.LinkID]bool),
		rate:       [2][]float64{make([]float64, n), make([]float64, n)},
	}
	for i := range s.links {
		s.links[i] = new(optics.Link)
	}
	s.Reset(assign)
	return s
}

// Reset restores s to the healthy state NewMultiTechState(s.Topology(),
// assign) would construct, reusing every allocation: link objects are
// re-dressed in place, per-link fault lists are truncated, and the fault
// maps are cleared. The topology cannot change — scratch pools key reusable
// States by topology. After Reset the State is observationally identical to
// a fresh one, which the sim scratch differential tests pin.
func (s *State) Reset(assign func(topology.LinkID) optics.Technology) {
	// A healthy link's two directions share one rate, a function of its
	// technology alone: evaluate the margin curve once per distinct
	// technology (fabrics mix a handful), not once per link — sim.Scratch
	// resets a State for every cell it runs.
	type healthy struct {
		tech optics.Technology
		rate float64
	}
	memo := make([]healthy, 0, 4)
	for i, ol := range s.links {
		tech := assign(topology.LinkID(i))
		s.techs[i] = tech
		ol.ResetTech(tech)
		s.active[i] = s.active[i][:0]
		k := 0
		for k < len(memo) && memo[k].tech != tech {
			k++
		}
		if k == len(memo) {
			memo = append(memo, healthy{tech, combineRates(ol.CorruptionRate(optics.UpperSide), 0)})
		}
		s.rate[topology.Up][i] = memo[k].rate
		s.rate[topology.Down][i] = memo[k].rate
	}
	clear(s.faults)
	clear(s.suppressed)
	if len(s.links) > 0 {
		s.tech = s.techs[0]
	}
}

// TechOf reports the transceiver technology of link l.
func (s *State) TechOf(l topology.LinkID) optics.Technology { return s.techs[l] }

// Topology returns the underlying topology.
func (s *State) Topology() *topology.Topology { return s.topo }

// Tech returns the transceiver technology in use.
func (s *State) Tech() optics.Technology { return s.tech }

// Apply activates a fault, updating the optical state and corruption rates
// of every affected link.
func (s *State) Apply(f *Fault) {
	if _, dup := s.faults[f.ID]; dup {
		return
	}
	s.faults[f.ID] = f
	for _, e := range f.Effects {
		s.active[e.Link] = append(s.active[e.Link], f)
		s.recompute(e.Link)
	}
}

// Clear removes a fault (it has been repaired), restoring the affected
// links unless other faults still hold them down. Only links whose active
// list still held the fault are recomputed: a link's state is a function of
// that list alone, and SuppressLinkEffect has already recomputed the rest.
func (s *State) Clear(id ID) {
	f, ok := s.faults[id]
	if !ok {
		return
	}
	delete(s.faults, id)
	delete(s.suppressed, id)
	for _, e := range f.Effects {
		lst := s.active[e.Link]
		for i, af := range lst {
			if af.ID == id {
				s.active[e.Link] = append(lst[:i], lst[i+1:]...)
				s.recompute(e.Link)
				break
			}
		}
	}
}

// SuppressLinkEffect removes fault id's effects on link l only — the
// outcome of a successful link-scoped repair (cleaning one connector,
// replacing one transceiver) on a fault that may span several links. When
// every affected link of the fault has been repaired this way, the fault is
// removed entirely.
func (s *State) SuppressLinkEffect(id ID, l topology.LinkID) {
	f, ok := s.faults[id]
	if !ok {
		return
	}
	m := s.suppressed[id]
	if m == nil {
		m = make(map[topology.LinkID]bool)
		s.suppressed[id] = m
	}
	if m[l] {
		return
	}
	m[l] = true
	lst := s.active[l]
	for i, af := range lst {
		if af.ID == id {
			s.active[l] = append(lst[:i], lst[i+1:]...)
			break
		}
	}
	s.recompute(l)
	if len(m) == len(f.Effects) {
		s.Clear(id)
	}
}

// RepairLink removes every active fault effect on link l (a fully
// successful link repair) and returns the root causes that were addressed.
func (s *State) RepairLink(l topology.LinkID) []RootCause {
	var causes []RootCause
	for len(s.active[l]) > 0 {
		f := s.active[l][0]
		causes = append(causes, f.Cause)
		s.SuppressLinkEffect(f.ID, l)
	}
	return causes
}

// recompute rebuilds link l's optical state and corruption rates from its
// currently active faults.
func (s *State) recompute(l topology.LinkID) {
	ol := s.links[l]
	ol.Reset()
	// The combined direct (non-optical) corruption rate per direction.
	var direct [2]float64
	for _, f := range s.active[l] {
		for _, e := range f.Effects {
			if e.Link != l {
				continue
			}
			ol.AddLoss(optics.LowerSide, e.ExtraLossFrom[optics.LowerSide])
			ol.AddLoss(optics.UpperSide, e.ExtraLossFrom[optics.UpperSide])
			if d := e.TxDecay[optics.LowerSide]; d != 0 {
				ol.SetTxPower(optics.LowerSide, ol.TxPower(optics.LowerSide)-optics.DBm(d))
			}
			if d := e.TxDecay[optics.UpperSide]; d != 0 {
				ol.SetTxPower(optics.UpperSide, ol.TxPower(optics.UpperSide)-optics.DBm(d))
			}
			direct[topology.Up] = combineRates(direct[topology.Up], e.DirectRate[topology.Up])
			direct[topology.Down] = combineRates(direct[topology.Down], e.DirectRate[topology.Down])
		}
	}
	// Frames travelling up are received at the upper side.
	s.rate[topology.Up][l] = combineRates(ol.CorruptionRate(optics.UpperSide), direct[topology.Up])
	s.rate[topology.Down][l] = combineRates(ol.CorruptionRate(optics.LowerSide), direct[topology.Down])
}

// combineRates composes two independent loss processes: a packet survives
// only if it survives both.
func combineRates(a, b float64) float64 { return 1 - (1-a)*(1-b) }

// Optics returns the optical state of link l. Callers must treat it as
// read-only: mutations belong to Apply/Clear, and a link changed behind
// them would leave the cached rate describing optics that no longer exist.
func (s *State) Optics(l topology.LinkID) *optics.Link { return s.links[l] }

// CorruptionRate reports the corruption loss rate for frames traveling in
// the given direction over link l: the optics-derived rate at the receiving
// side combined with any direct (non-optical) fault contributions.
func (s *State) CorruptionRate(l topology.LinkID, dir topology.Direction) float64 {
	return s.rate[dir][l]
}

// WorstRate reports the higher of the two directions' corruption rates,
// which is what link-disabling decisions consider given that links can only
// be disabled as a whole.
func (s *State) WorstRate(l topology.LinkID) float64 {
	up, down := s.rate[topology.Up][l], s.rate[topology.Down][l]
	if up > down {
		return up
	}
	return down
}

// Corrupting reports whether link l corrupts at or above threshold in
// either direction.
func (s *State) Corrupting(l topology.LinkID, threshold float64) bool {
	return s.WorstRate(l) >= threshold
}

// Bidirectional reports whether link l corrupts at or above threshold in
// both directions (the 8.2% case of Figure 5a).
func (s *State) Bidirectional(l topology.LinkID, threshold float64) bool {
	return s.rate[topology.Up][l] >= threshold && s.rate[topology.Down][l] >= threshold
}

// CorruptingLinks returns all links corrupting at or above threshold.
func (s *State) CorruptingLinks(threshold float64) []topology.LinkID {
	var out []topology.LinkID
	for l := 0; l < s.topo.NumLinks(); l++ {
		if s.Corrupting(topology.LinkID(l), threshold) {
			out = append(out, topology.LinkID(l))
		}
	}
	return out
}

// ActiveFaults returns the faults currently affecting link l.
func (s *State) ActiveFaults(l topology.LinkID) []*Fault { return s.active[l] }

// Fault returns an active fault by id.
func (s *State) Fault(id ID) (*Fault, bool) {
	f, ok := s.faults[id]
	return f, ok
}

// NumActiveFaults reports how many faults are currently active.
func (s *State) NumActiveFaults() int { return len(s.faults) }
