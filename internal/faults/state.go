package faults

import (
	"math"
	"slices"

	"corropt/internal/optics"
	"corropt/internal/topology"
)

// State tracks the optical condition and corruption rate of every link in a
// topology as faults are applied and repaired. It is the ground truth the
// telemetry layer reads and the mitigation algorithms react to.
//
// Corruption strikes a small minority of links (§2–3), so State keeps per
// link only two small indexes. kind[l] picks link l's technology from kinds,
// a handful of entries each holding the healthy optics and rate every
// fault-free link of that technology shares. slot[l] is noSlot while link l
// has no active fault; otherwise it picks the link's own optics, fault list
// and rates from slots, a pool that recompute takes from and returns to.
//
// State is not safe for concurrent use; simulations drive it from a single
// event loop.
type State struct {
	topo  *topology.Topology
	kinds []kind
	kind  []uint16
	slot  []int32
	slots []faulty
	// free lists the slots no link holds, for the next link a fault
	// strikes to reuse.
	free   []int32
	faults map[ID]applied
	// strays are the links SuppressLinkEffect named for a fault that does
	// not touch them, each once: they count toward clearing the fault.
	strays []stray
}

// applied is an active fault and the number of distinct links
// SuppressLinkEffect has named for it. A named link the fault touches no
// longer holds it in its active list, which is how a second naming of it
// is told apart.
type applied struct {
	f     *Fault
	named int
}

// stray is a link named for fault id that the fault does not touch.
type stray struct {
	id ID
	l  topology.LinkID
}

// noSlot marks a link with no active fault in State.slot.
const noSlot = -1

// kind is one transceiver technology of the fabric and the state every
// healthy link of it shares.
type kind struct {
	tech    optics.Technology
	healthy optics.Link
	// margin is a healthy receiver's optical margin, the same at both
	// sides, and optical the rate CorruptionRateFromMargin maps it to:
	// recompute takes optical for any side whose margin equals margin
	// instead of evaluating the curve again.
	margin  optics.DB
	optical float64
	// rate is a healthy link's corruption rate in either direction.
	rate float64
}

func newKind(tech optics.Technology) kind {
	k := kind{tech: tech}
	k.healthy.ResetTech(tech)
	k.margin = k.healthy.Margin(optics.UpperSide)
	k.optical = optics.CorruptionRateFromMargin(k.margin)
	k.rate = combineRates(k.optical, 0)
	return k
}

// opticalRate is CorruptionRateFromMargin(m), read from the kind when m is
// the healthy margin: the same input, so the same bits.
func (k *kind) opticalRate(m optics.DB) float64 {
	if m == k.margin {
		return k.optical
	}
	return optics.CorruptionRateFromMargin(m)
}

// faulty is the state of one link with active faults.
type faulty struct {
	optics optics.Link
	active []*Fault // the faults touching the link, in Apply order
	// rate[dir] is the corruption rate CorruptionRate reports: the
	// optics-derived rate at the receiving side combined with the direct
	// (non-optical) contributions of the link's active faults. A link's
	// rate is stable between fault events (§3, Figure 2), so recompute
	// works it out where the link's condition changes and the read
	// accessors cost an array read.
	rate [2]float64
}

// NewState returns a healthy State for the topology where every link uses
// the given transceiver technology.
func NewState(topo *topology.Topology, tech optics.Technology) *State {
	return NewMultiTechState(topo, func(topology.LinkID) optics.Technology { return tech })
}

// NewMultiTechState returns a healthy State where each link's transceiver
// technology is chosen by assign — real fabrics mix 10G/40G/100G optics
// with different power thresholds, which is why Algorithm 1 keys
// PowerThreshRx and PowerThreshTx per technology (§5.2). It panics if
// assign returns more than 65,536 distinct technologies.
func NewMultiTechState(topo *topology.Topology, assign func(topology.LinkID) optics.Technology) *State {
	n := topo.NumLinks()
	s := &State{
		topo:   topo,
		kind:   make([]uint16, n),
		slot:   make([]int32, n),
		faults: make(map[ID]applied),
	}
	s.Reset(assign)
	return s
}

// Reset restores s to the healthy state NewMultiTechState(s.Topology(),
// assign) would construct, reusing every allocation: every slot returns to
// the pool with its fault list truncated, and the fault maps are cleared.
// The topology cannot change — scratch pools key reusable States by
// topology. After Reset the State is observationally identical to a fresh
// one, which the sim scratch differential tests pin.
func (s *State) Reset(assign func(topology.LinkID) optics.Technology) {
	s.kinds = s.kinds[:0]
	for i := range s.kind {
		tech := assign(topology.LinkID(i))
		k := 0
		for k < len(s.kinds) && s.kinds[k].tech != tech {
			k++
		}
		if k == len(s.kinds) {
			if k > math.MaxUint16 {
				panic("faults: more than 65536 distinct technologies")
			}
			s.kinds = append(s.kinds, newKind(tech))
		}
		s.kind[i] = uint16(k)
		s.slot[i] = noSlot
	}
	s.free = s.free[:0]
	for i := len(s.slots) - 1; i >= 0; i-- {
		fl := &s.slots[i]
		clear(fl.active)
		fl.active = fl.active[:0]
		s.free = append(s.free, int32(i))
	}
	clear(s.faults)
	s.strays = s.strays[:0]
}

// TechOf reports the transceiver technology of link l.
func (s *State) TechOf(l topology.LinkID) optics.Technology { return s.kinds[s.kind[l]].tech }

// Topology returns the underlying topology.
func (s *State) Topology() *topology.Topology { return s.topo }

// Tech returns the first link's transceiver technology: the one in use in
// the common single-technology case.
func (s *State) Tech() optics.Technology {
	if len(s.kind) == 0 {
		return optics.Technology{}
	}
	return s.TechOf(0)
}

// Apply activates a fault, updating the optical state and corruption rates
// of every affected link.
func (s *State) Apply(f *Fault) {
	if _, dup := s.faults[f.ID]; dup {
		return
	}
	s.faults[f.ID] = applied{f: f}
	for _, e := range f.Effects {
		fl := s.take(e.Link)
		fl.active = append(fl.active, f)
		s.recompute(e.Link)
	}
}

// take returns link l's slot, taking one from the pool when the link has
// none. The pointer is valid until the next take.
func (s *State) take(l topology.LinkID) *faulty {
	i := s.slot[l]
	if i == noSlot {
		if n := len(s.free); n > 0 {
			i, s.free = s.free[n-1], s.free[:n-1]
		} else {
			i = int32(len(s.slots))
			s.slots = append(s.slots, faulty{})
		}
		s.slot[l] = i
		s.slots[i].optics.ResetTech(s.kinds[s.kind[l]].tech)
	}
	return &s.slots[i]
}

// drop removes fault id from link l's active list, reporting whether the
// list held it. The caller recomputes the link.
func (s *State) drop(l topology.LinkID, id ID) bool {
	i := s.slot[l]
	if i == noSlot {
		return false
	}
	fl := &s.slots[i]
	for j, af := range fl.active {
		if af.ID == id {
			fl.active = slices.Delete(fl.active, j, j+1)
			return true
		}
	}
	return false
}

// Clear removes a fault (it has been repaired), restoring the affected
// links unless other faults still hold them down. Only links whose active
// list still held the fault are recomputed: a link's state is a function of
// that list alone, and SuppressLinkEffect has already recomputed the rest.
func (s *State) Clear(id ID) {
	a, ok := s.faults[id]
	if !ok {
		return
	}
	delete(s.faults, id)
	if len(s.strays) > 0 {
		s.strays = slices.DeleteFunc(s.strays, func(x stray) bool { return x.id == id })
	}
	for _, e := range a.f.Effects {
		if s.drop(e.Link, id) {
			s.recompute(e.Link)
		}
	}
}

// SuppressLinkEffect removes fault id's effects on link l only — the
// outcome of a successful link-scoped repair (cleaning one connector,
// replacing one transceiver) on a fault that may span several links. When
// every affected link of the fault has been repaired this way, the fault is
// removed entirely: once as many distinct links have been named for it as
// it has effects, whether it touches them or not. A fault's effects name
// distinct links.
func (s *State) SuppressLinkEffect(id ID, l topology.LinkID) {
	a, ok := s.faults[id]
	if !ok {
		return
	}
	switch {
	case s.drop(l, id):
		s.recompute(l)
	case slices.ContainsFunc(a.f.Effects, func(e LinkEffect) bool { return e.Link == l }),
		slices.Contains(s.strays, stray{id, l}):
		return // named before
	default:
		s.strays = append(s.strays, stray{id, l})
	}
	if a.named++; a.named == len(a.f.Effects) {
		s.Clear(id)
		return
	}
	s.faults[id] = a
}

// RepairLink removes every active fault effect on link l (a fully
// successful link repair). The faults it addresses are ActiveFaults(l)
// before the call.
func (s *State) RepairLink(l topology.LinkID) {
	for s.slot[l] != noSlot {
		s.SuppressLinkEffect(s.slots[s.slot[l]].active[0].ID, l)
	}
}

// recompute rebuilds link l's optical state and corruption rates from its
// currently active faults, returning its slot to the pool when none is
// left.
func (s *State) recompute(l topology.LinkID) {
	i := s.slot[l]
	if i == noSlot {
		return
	}
	fl := &s.slots[i]
	if len(fl.active) == 0 {
		s.slot[l] = noSlot
		s.free = append(s.free, i)
		return
	}
	ol := &fl.optics
	ol.Reset()
	// The combined direct (non-optical) corruption rate per direction.
	var direct [2]float64
	for _, f := range fl.active {
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
	k := &s.kinds[s.kind[l]]
	fl.rate[topology.Up] = combineRates(k.opticalRate(ol.Margin(optics.UpperSide)), direct[topology.Up])
	fl.rate[topology.Down] = combineRates(k.opticalRate(ol.Margin(optics.LowerSide)), direct[topology.Down])
}

// combineRates composes two independent loss processes: a packet survives
// only if it survives both.
func combineRates(a, b float64) float64 { return 1 - (1-a)*(1-b) }

// Optics returns the optical state of link l. The pointer is read-only and
// valid until the next mutation of s (Apply, Clear, SuppressLinkEffect,
// RepairLink, Reset): every healthy link of a technology shares one Link,
// and a faulty link's Link is a pooled slot that a later mutation may hand
// to another link. A write through it would also leave the cached rate
// describing optics that no longer exist.
func (s *State) Optics(l topology.LinkID) *optics.Link {
	if i := s.slot[l]; i != noSlot {
		return &s.slots[i].optics
	}
	return &s.kinds[s.kind[l]].healthy
}

// Healthy returns the optics and corruption rate (either direction) that
// every fault-free link of l's technology shares: what l reads whenever
// ActiveFaults(l) is empty, whatever has struck it since. The pointer is
// read-only. Healthy reads only what Reset writes, so unlike the rest of
// State it may run concurrently with Apply, Clear, SuppressLinkEffect and
// RepairLink.
func (s *State) Healthy(l topology.LinkID) (healthy *optics.Link, rate float64) {
	k := &s.kinds[s.kind[l]]
	return &k.healthy, k.rate
}

// rates returns link l's corruption rates, indexed by direction.
func (s *State) rates(l topology.LinkID) (up, down float64) {
	if i := s.slot[l]; i != noSlot {
		r := &s.slots[i].rate
		return r[topology.Up], r[topology.Down]
	}
	r := s.kinds[s.kind[l]].rate
	return r, r
}

// CorruptionRate reports the corruption loss rate for frames traveling in
// the given direction over link l: the optics-derived rate at the receiving
// side combined with any direct (non-optical) fault contributions.
func (s *State) CorruptionRate(l topology.LinkID, dir topology.Direction) float64 {
	if i := s.slot[l]; i != noSlot {
		return s.slots[i].rate[dir]
	}
	return s.kinds[s.kind[l]].rate
}

// WorstRate reports the higher of the two directions' corruption rates,
// which is what link-disabling decisions consider given that links can only
// be disabled as a whole.
func (s *State) WorstRate(l topology.LinkID) float64 {
	up, down := s.rates(l)
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
	up, down := s.rates(l)
	return up >= threshold && down >= threshold
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

// ActiveFaults returns the faults currently affecting link l. The slice is
// read-only and valid until the next mutation of s.
func (s *State) ActiveFaults(l topology.LinkID) []*Fault {
	if i := s.slot[l]; i != noSlot {
		return s.slots[i].active
	}
	return nil
}

// Fault returns an active fault by id.
func (s *State) Fault(id ID) (*Fault, bool) {
	a, ok := s.faults[id]
	return a.f, ok
}

// NumActiveFaults reports how many faults are currently active.
func (s *State) NumActiveFaults() int { return len(s.faults) }
