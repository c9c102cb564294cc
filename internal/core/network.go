// Package core implements CorrOpt, the corruption-mitigation system of
// "Understanding and Mitigating Packet Corruption in Data Center Networks"
// (SIGCOMM 2017): the fast checker that decides in O(downstream cone)
// whether a newly corrupting link can be disabled without violating per-ToR
// capacity constraints, the optimizer that computes the exact optimal set of
// corrupting links to disable (topology pruning + segmentation over an
// NP-complete search space), the switch-local baseline used in
// production before CorrOpt, and the root-cause-aware repair recommendation
// engine of Algorithm 1.
package core

import (
	"fmt"
	"slices"

	"corropt/internal/core/netstate"
	"corropt/internal/topology"
)

// Network is the mutable mitigation-facing view of a data center: which
// links are administratively disabled, which enabled links are corrupting
// and how badly, and the per-ToR capacity constraints.
//
// Network keeps its path counter in incremental mode, and the counter's
// disabled set is the network's: Disable and Enable propagate exact count
// deltas through the toggled link's downstream cone instead of triggering
// full recounts, and the per-ToR constraint status (meets/violates) is
// maintained alongside. Capacity metrics over the *current* state —
// ViolatedToRs(nil) and Feasible(nil) — are therefore at most O(|ToRs|)
// reads, not O(|V|+|E|) sweeps; ToRFractions re-sums only from the lowest
// ToR changed since its last read; and a probe from a state where every ToR
// meets (violatedUnder) tests only the ToRs it touched.
//
// The derived state lives in three netstate owners, each of which only its
// own methods can write: Disable, Enable, commitProbe, SetCorruption,
// resetState and Reset call them in order.
//
// Network is not safe for concurrent use.
type Network struct {
	topo  *topology.Topology
	pc    *topology.PathCounter
	links netstate.Links
	pen   netstate.Penalty
	tors  netstate.ToRs

	// gen[s] counts the changes after which some active corrupting link of
	// segment s (topology.LinkSegment) could pass a check alone that it
	// failed before: an Enable, a positive rate on an up link, a ToR
	// constraint, or a replaced disabled set. A disable only removes paths
	// and uplinks, so it bumps nothing; nor does Reset, which clears every
	// rate, so no segment holds an active link again before a SetCorruption
	// bumps it. Engine.recheck skips the segments whose generation has not
	// moved since it last found them settled.
	gen []uint64
}

// NewNetwork returns a fully-enabled, fully-healthy Network with the same
// capacity constraint c (0 <= c <= 1) for every ToR.
func NewNetwork(topo *topology.Topology, c float64) (*Network, error) {
	if c < 0 || c > 1 {
		return nil, fmt.Errorf("core: capacity constraint %v out of [0,1]", c)
	}
	pc := topology.NewPathCounter(topo)
	return &Network{
		topo:  topo,
		pc:    pc,
		links: netstate.NewLinks(topo.NumLinks(), DefaultDetectionThreshold),
		tors:  netstate.NewToRs(topo, c, pc),
		gen:   make([]uint64, topo.NumSegments()),
	}, nil
}

// Reset restores n to the state NewNetwork(n.Topology(), c) would
// construct — every link enabled and healthy, every ToR constrained to c,
// no penalty function registered — while reusing every allocation,
// including the path counter (one full incremental re-sweep) and the
// penalty contribution buffers (parked for the next RegisterPenalty).
// Pooled simulation scratch resets Networks between scenarios instead of
// rebuilding them; the scratch differential tests pin that the two paths
// are observationally identical.
func (n *Network) Reset(c float64) error {
	if c < 0 || c > 1 {
		return fmt.Errorf("core: capacity constraint %v out of [0,1]", c)
	}
	n.pc.ResetIncremental(nil)
	n.links.Reset(DefaultDetectionThreshold)
	n.tors.Reset(c, n.pc)
	n.RegisterPenalty(nil)
	return nil
}

// Topology returns the underlying immutable topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// SetToRConstraint overrides the capacity constraint of one ToR. Traffic
// demand differs across ToRs (§5.1), so CorrOpt supports per-ToR thresholds.
func (n *Network) SetToRConstraint(tor topology.SwitchID, c float64) error {
	if c < 0 || c > 1 {
		return fmt.Errorf("core: capacity constraint %v out of [0,1]", c)
	}
	if n.topo.Switch(tor).Stage != 0 {
		return fmt.Errorf("core: switch %q is not a ToR", n.topo.Switch(tor).Name)
	}
	n.tors.SetConstraint(tor, c, n.pc)
	if up := n.topo.Uplinks(tor); len(up) > 0 {
		n.gen[n.topo.LinkSegment(up[0])]++
	}
	return nil
}

// Constraint reports the capacity constraint of a ToR.
func (n *Network) Constraint(tor topology.SwitchID) float64 { return n.tors.Constraint(tor) }

// Disable administratively takes link l down (both directions), updating
// path counts incrementally through l's downstream cone.
func (n *Network) Disable(l topology.LinkID) {
	if n.Disabled(l) {
		return
	}
	n.pen.Update(l, n.links.Rate(l), true)
	n.links.Toggle(l, true)
	n.tors.Refresh(n.pc.Apply(l), n.pc)
}

// Enable brings link l back up, updating path counts incrementally.
func (n *Network) Enable(l topology.LinkID) {
	if !n.Disabled(l) {
		return
	}
	n.pen.Update(l, n.links.Rate(l), false)
	n.links.Toggle(l, false)
	n.settle(n.pc.Revert(l))
	n.gen[n.topo.LinkSegment(l)]++
}

// commitProbe disables link l through the path counter's pending probe of l,
// which found every ToR it changes meeting its constraint: the probe's walk
// is not run again.
func (n *Network) commitProbe(l topology.LinkID) {
	n.pen.Update(l, n.links.Rate(l), true)
	n.links.Toggle(l, true)
	n.settle(n.pc.Commit())
}

// settle re-evaluates the ToRs changed by a safe toggle: an Enable, whose
// counts only rose, or a disable whose probe tested every ToR it changes and
// found each meeting. Taken while no ToR is violated, such a toggle leaves
// every ToR's status as it was, so only the fractions are stored.
func (n *Network) settle(changed []topology.SwitchID) {
	if n.tors.NumViolated() == 0 {
		n.tors.RefreshFractions(changed, n.pc)
		return
	}
	n.tors.Refresh(changed, n.pc)
}

// Disabled reports whether link l is administratively down.
func (n *Network) Disabled(l topology.LinkID) bool { return n.pc.IncDisabled().Has(l) }

// DisabledLinks returns a read-only view of the disabled set. It is live:
// it follows later Disable and Enable calls.
func (n *Network) DisabledLinks() topology.LinkSetView { return n.pc.IncDisabled() }

// DisabledFunc returns the link-disabled predicate for path counting.
func (n *Network) DisabledFunc() topology.DisabledFunc {
	return n.pc.IncDisabled().Func()
}

// NumDisabled reports how many links are currently disabled, in O(1).
func (n *Network) NumDisabled() int { return n.pc.NumIncDisabled() }

// SetCorruption records the observed worst-direction corruption rate of
// link l; zero — or anything else that is not a positive number — clears it
// (the link has been repaired or was misdetected). With a registered penalty
// function the running penalty sum is updated in O(1).
func (n *Network) SetCorruption(l topology.LinkID, rate float64) {
	disabled := n.Disabled(l)
	if n.links.Set(l, rate, disabled) {
		n.pen.Update(l, n.links.Rate(l), disabled)
	}
	if rate > 0 && !disabled {
		n.gen[n.topo.LinkSegment(l)]++
	}
}

// RegisterPenalty installs p as the network's impact function and switches
// penalty accounting to incremental mode: from now on SetCorruption,
// Disable, and Enable maintain Σ (1-d_l)·I(f_l) as running state, and
// PenaltySum reads it in O(1) instead of rescanning every link the way
// TotalPenalty does. Registering replaces any previous function and
// recomputes the sum from scratch; nil unregisters.
func (n *Network) RegisterPenalty(p PenaltyFunc) {
	n.pen.Register(p, &n.links, n.pc.IncDisabled())
}

// PenaltyRegistered reports whether an impact function is installed.
func (n *Network) PenaltyRegistered() bool { return n.pen.Func() != nil }

// PenaltySum returns the incrementally-maintained objective Σ (1-d_l)·I(f_l)
// for the registered penalty function. O(1) per read (amortized: every so
// many updates the sum is re-summed exactly over the O(#corrupting) cached
// contributions, in the same link order as a fresh TotalPenalty scan, so
// incremental drift never outlives one epoch). It panics if no penalty
// function was registered.
//
//lint:hotpath every Sim.settle and control-plane status read lands here
func (n *Network) PenaltySum() float64 { return n.pen.Sum(&n.links) }

// CorruptionRate reports the recorded corruption rate of link l.
func (n *Network) CorruptionRate(l topology.LinkID) float64 { return n.links.Rate(l) }

// active returns an iterator over the active corrupting links at threshold
// (see netstate.Links.Active). Every reader of that set at another threshold
// than the keyed one, which the live list answers, loops
//
//	it := n.active(threshold)
//	for l := it.Next(); l != topology.NoLink; l = it.Next() { … }
func (n *Network) active(threshold float64) netstate.ActiveIter {
	return n.links.Active(threshold, n.pc.IncDisabled())
}

// ActiveCorrupting returns the active corrupting links at threshold — the
// enabled links with a recorded corruption rate (rate > 0) at or above
// threshold, in ascending order — the set the optimizer works over. A
// threshold at or below zero selects every enabled corrupting link, never a
// healthy one.
func (n *Network) ActiveCorrupting(threshold float64) []topology.LinkID {
	return n.AppendActiveCorrupting(nil, threshold)
}

// AppendActiveCorrupting appends the active corrupting links at threshold
// (rate > 0, rate >= threshold, enabled; ascending) to dst and returns the
// extended slice. Callers on hot paths pass a retained buffer (dst[:0]) to
// avoid re-allocating the set on every optimizer run. At the keyed threshold
// it copies the live list.
//
//lint:hotpath every optimizer run and baseline sweep starts by collecting this set
func (n *Network) AppendActiveCorrupting(dst []topology.LinkID, threshold float64) []topology.LinkID {
	if threshold == n.links.Threshold() {
		return n.links.AppendLive(dst)
	}
	it := n.active(threshold)
	for l := it.Next(); l != topology.NoLink; l = it.Next() {
		dst = append(dst, l)
	}
	return dst
}

// NumActiveCorrupting counts the active corrupting links at threshold
// (rate > 0, rate >= threshold, enabled) without materializing the set. The
// simulator's sample path and the control-plane status endpoint only need
// the count, which at the keyed threshold is the live list's length.
//
//lint:hotpath every simulator sample and control-plane status read
func (n *Network) NumActiveCorrupting(threshold float64) int {
	if threshold == n.links.Threshold() {
		return n.links.NumLive()
	}
	count := 0
	it := n.active(threshold)
	for l := it.Next(); l != topology.NoLink; l = it.Next() {
		count++
	}
	return count
}

// resetState replaces the disabled set wholesale (used by LoadState): one
// full incremental re-sweep, then every owner rebuilt from it.
func (n *Network) resetState(disabled []topology.LinkID) {
	set := topology.NewLinkSet(n.topo.NumLinks())
	for _, l := range disabled {
		set.Add(l)
	}
	n.pc.ResetIncremental(set)
	n.links.Rebuild(n.pc.IncDisabled())
	n.tors.Recompute(n.pc)
	n.pen.Refresh(&n.links, n.pc.IncDisabled())
	for s := range n.gen {
		n.gen[s]++
	}
}

// ViolatedToRs returns the ToRs whose capacity constraints are violated
// when, in addition to the currently disabled links, every link in extra is
// disabled. A nil extra checks the current state in O(|ToRs|) using the
// incrementally-maintained constraint status.
func (n *Network) ViolatedToRs(extra map[topology.LinkID]bool) []topology.SwitchID {
	if extra == nil {
		var out []topology.SwitchID
		for _, tor := range n.topo.ToRs() {
			if !n.tors.Met(tor) {
				out = append(out, tor)
			}
		}
		return out
	}
	counts := n.pc.Count(n.composite(extra))
	total := n.pc.Total()
	var out []topology.SwitchID
	for _, tor := range n.topo.ToRs() {
		if !n.tors.Meets(tor, counts, total) {
			out = append(out, tor)
		}
	}
	return out
}

// violatedUnder returns, in ascending order, the ToRs violated when, in
// addition to the current disabled set, every link in extra is disabled —
// evaluated by incremental Apply probes (one downstream-cone delta per link)
// instead of a full topology sweep, and fully reverted before returning.
//
// While every ToR meets its constraint (numViolated == 0) only the ToRs whose
// counts an Apply changed are tested, as each Apply reports them: counts only
// fall under Apply, so a ToR that met and never changed still meets, one
// found violated stays violated, and one violated at the end was last tested
// at its final count. Otherwise — links forced down unchecked, a constraint
// raised, a loaded state — every ToR is tested after the last Apply.
// applied and out are optional scratch buffers (overwritten from length
// zero); the result slices alias them, so each caller must own its buffers
// and must not retain the result past its next call.
func (n *Network) violatedUnder(extra, applied []topology.LinkID, out []topology.SwitchID) ([]topology.SwitchID, []topology.LinkID) {
	applied, out = applied[:0], out[:0]
	counts, total := n.pc.IncCounts(), n.pc.Total() // live: Apply updates counts in place
	changedOnly := n.tors.NumViolated() == 0
	for _, l := range extra {
		if n.Disabled(l) {
			continue
		}
		changed := n.pc.Apply(l)
		applied = append(applied, l)
		if changedOnly {
			for _, tor := range changed {
				if !n.tors.Meets(tor, counts, total) {
					out = append(out, tor)
				}
			}
		}
	}
	if changedOnly {
		// One entry per Apply that left the ToR violated, in probe order:
		// restore the full scan's.
		slices.Sort(out)
		out = slices.Compact(out)
	} else {
		for _, tor := range n.topo.ToRs() {
			if !n.tors.Meets(tor, counts, total) {
				out = append(out, tor)
			}
		}
	}
	for _, l := range applied {
		n.pc.Revert(l)
	}
	return out, applied
}

// meetsAll reports whether every ToR in tors meets its constraint under the
// given counts.
func (n *Network) meetsAll(tors []topology.SwitchID, counts, total []int64) bool {
	for _, tor := range tors {
		if !n.tors.Meets(tor, counts, total) {
			return false
		}
	}
	return true
}

// Feasible reports whether every ToR meets its constraint with the current
// disabled set plus extra. A nil extra is O(1).
func (n *Network) Feasible(extra map[topology.LinkID]bool) bool {
	if extra == nil {
		return n.tors.NumViolated() == 0
	}
	return len(n.ViolatedToRs(extra)) == 0
}

// composite merges the persistent disabled set with a tentative extra set.
func (n *Network) composite(extra map[topology.LinkID]bool) topology.DisabledFunc {
	if extra == nil {
		return n.DisabledFunc()
	}
	return func(l topology.LinkID) bool { return n.Disabled(l) || extra[l] }
}

// ToRFractions reports the minimum and the average per-ToR available-path
// fraction in the current state, for callers, like the simulator's sampler,
// that want both. The result is bit-identical to one in-order pass
//
//	worst, sum := 1.0, 0.0
//	for _, tor := range topo.ToRs() { f := count/total (0 without paths); sum += f; if f < worst { worst = f } }
//
// but the per-ToR fractions are cached as Disable and Enable change them,
// and a read resumes that pass from the checkpoint at or below the lowest
// ToR changed since the last read, adding each run of fractions equal to 1.0
// in one step per power of two it crosses (netstate.AddOnes). The first
// read builds the cache: O(|ToRs|) once per Network.
//
//lint:hotpath every simulator sample and control-plane status read
func (n *Network) ToRFractions() (worst, mean float64) {
	return n.tors.Fractions(n.pc)
}

// ToRFraction reports ToR tor's available-path fraction in the current
// state: its surviving paths over its paths with every link up, 0 for a ToR
// with no paths at all.
func (n *Network) ToRFraction(tor topology.SwitchID) float64 {
	return netstate.Fraction(n.pc.IncCounts()[tor], n.pc.Total()[tor])
}

// ToRMeets reports whether ToR tor meets its capacity constraint in the
// current state.
func (n *Network) ToRMeets(tor topology.SwitchID) bool { return n.tors.Met(tor) }

// WorstToRFraction reports the minimum per-ToR available-path fraction in
// the current state (Figures 15 and 16); see ToRFractions.
func (n *Network) WorstToRFraction() float64 {
	worst, _ := n.ToRFractions()
	return worst
}

// MeanToRFraction reports the average per-ToR available-path fraction in
// the current state (§7.3's capacity-cost metric); see ToRFractions.
func (n *Network) MeanToRFraction() float64 {
	_, mean := n.ToRFractions()
	return mean
}

// TotalPenalty sums penalty(rate) over the enabled corrupting links (rate >
// 0, enabled) in ascending link order: the objective Σ (1 - d_l) · I(f_l) of
// §5.1.
func (n *Network) TotalPenalty(p PenaltyFunc) float64 {
	sum := 0.0
	it := n.active(0)
	for l := it.Next(); l != topology.NoLink; l = it.Next() {
		sum += p(it.Rate())
	}
	return sum
}
