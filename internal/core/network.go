// Package core implements CorrOpt, the corruption-mitigation system of
// "Understanding and Mitigating Packet Corruption in Data Center Networks"
// (SIGCOMM 2017): the fast checker that decides in O(downstream cone)
// whether a newly corrupting link can be disabled without violating per-ToR
// capacity constraints, the optimizer that computes the exact optimal set of
// corrupting links to disable (topology pruning + segmentation + reject
// cache over an NP-complete search space), the switch-local baseline used in
// production before CorrOpt, and the root-cause-aware repair recommendation
// engine of Algorithm 1.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"corropt/internal/topology"
)

// Network is the mutable mitigation-facing view of a data center: which
// links are administratively disabled, which enabled links are corrupting
// and how badly, and the per-ToR capacity constraints.
//
// Network keeps its path counter in incremental mode, mirroring the
// disabled set at all times: Disable and Enable propagate exact count
// deltas through the toggled link's downstream cone instead of triggering
// full recounts, and the per-ToR constraint status (meets/violates) is
// maintained alongside. Capacity metrics over the *current* state —
// ViolatedToRs(nil) and Feasible(nil) — are therefore at most O(|ToRs|)
// reads, not O(|V|+|E|) sweeps; ToRFractions re-sums only from the lowest
// ToR changed since its last read; and a probe from a state where every ToR
// meets (violatedUnder) tests only the ToRs it touched.
//
// Network is not safe for concurrent use.
type Network struct {
	topo *topology.Topology
	pc   *topology.PathCounter
	// disabled is the administratively-down link set, aliasing the path
	// counter's incremental set (the counter owns it; Network mutates it
	// only through Apply/Revert).
	disabled *topology.LinkSet
	// numDisabled counts set bits in disabled, maintained on toggle so
	// NumDisabled is O(1).
	numDisabled int
	// rate holds the worst-direction corruption rate per link; zero for
	// healthy links. Disabled links keep their rate so that re-enabling a
	// still-broken link is visible to the caller.
	rate []float64
	// corrupting indexes the links with a recorded rate: the invariant
	// corrupting == {l : rate[l] > 0} is kept by SetCorruption and Reset,
	// the only writers of rate. The corrupting links are a few dozen among
	// tens of thousands, so every read that needs them (Network.active and
	// its callers, SaveState, LoadState, the exact penalty rebuild) walks
	// this set word by word instead of scanning rate.
	corrupting *topology.LinkSet
	// reportable indexes the corrupting links at or above the detection
	// threshold the network is keyed to: the invariant reportable ==
	// {l : rate[l] > 0 ∧ rate[l] >= threshold} is kept by SetCorruption and
	// Reset, and by setDetectionThreshold when an Engine re-keys the network.
	// Most recorded rates sit between the 1e-8 lossy floor and the 1e-6
	// operators act on (§2).
	reportable *topology.LinkSet
	threshold  float64
	// live lists reportable &^ disabled in ascending link order: the active
	// corrupting set at the keyed threshold, which every simulator sample,
	// optimizer run and baseline sweep reads. SetCorruption, Disable, Enable,
	// setDetectionThreshold, Reset and resetState keep it, so those reads are
	// a length or a copy of a few dozen links, not a walk of every word of
	// the reportable set.
	live []topology.LinkID
	// constraint is the per-ToR minimum fraction of valley-free spine
	// paths that must remain available, indexed by SwitchID (non-ToR
	// entries unused).
	constraint []float64
	// meetsNow caches, per ToR SwitchID, whether the ToR currently meets
	// its constraint under the incremental counts; numViolated counts the
	// ToRs that do not.
	meetsNow    []bool
	numViolated int

	// ToRFractions' cache, indexed by position in topo.ToRs(). The first
	// read builds it (fleet shards never read it, so they never pay for it);
	// after that refreshToR and recomputeViolated store each changed ToR's
	// fraction and lower torDirty to the lowest changed position, and a read
	// re-sums only from the checkpoint at or below torDirty.
	//   - torPos maps a ToR's SwitchID to its position; nil until built.
	//   - torFrac holds count/total per position, 0 for a ToR with no paths.
	//   - torNotOne has bit p set iff torFrac[p] != 1.0: about half the
	//     ToRs of a running simulation sit at exactly 1.0, and a run of
	//     them is summed without visiting each (addOnes).
	//   - torSum[k] and torMin[k] are the in-order running sum and minimum
	//     of torFrac[:64k]; the last entry holds the whole list's.
	torPos    []int32
	torFrac   []float64
	torNotOne []uint64
	torSum    []float64
	torMin    []float64
	torDirty  int

	// Incremental penalty accounting (§5.1's objective Σ (1-d_l)·I(f_l)),
	// active once RegisterPenalty installs an impact function. penalty is
	// that function; contrib[l] caches link l's current contribution
	// (p(rate[l]) when the link is enabled and corrupting, else 0);
	// penaltySum is Σ contrib, maintained in O(1) per SetCorruption /
	// Disable / Enable.
	penalty    PenaltyFunc
	contrib    []float64
	penaltySum float64
	// penaltyOps counts updates folded into penaltySum since the last
	// exact rebuild; PenaltySum re-sums the contributions (in link order,
	// matching the TotalPenalty scan) every penaltyRebuildEvery updates so
	// floating-point drift from incremental +=/-= never accumulates beyond
	// one epoch.
	penaltyOps int
}

// penaltyRebuildEvery bounds floating-point drift of the incremental
// penalty sum: after this many O(1) delta updates, the next PenaltySum read
// re-sums the cached contributions exactly. Rebuilds cost O(#corrupting
// links) and amortize to O(1) per update.
const penaltyRebuildEvery = 1024

// constraintSlack absorbs float64 rounding when comparing exact integer
// path-count ratios against fractional constraints.
const constraintSlack = 1e-9

// NewNetwork returns a fully-enabled, fully-healthy Network with the same
// capacity constraint c (0 <= c <= 1) for every ToR.
func NewNetwork(topo *topology.Topology, c float64) (*Network, error) {
	if c < 0 || c > 1 {
		return nil, fmt.Errorf("core: capacity constraint %v out of [0,1]", c)
	}
	pc := topology.NewPathCounter(topo)
	n := &Network{
		topo:       topo,
		pc:         pc,
		disabled:   pc.IncDisabled(),
		rate:       make([]float64, topo.NumLinks()),
		corrupting: topology.NewLinkSet(topo.NumLinks()),
		reportable: topology.NewLinkSet(topo.NumLinks()),
		threshold:  DefaultDetectionThreshold,
		constraint: make([]float64, topo.NumSwitches()),
		meetsNow:   make([]bool, topo.NumSwitches()),
	}
	for _, tor := range topo.ToRs() {
		n.constraint[tor] = c
	}
	n.recomputeViolated()
	return n, nil
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
	n.numDisabled = 0
	clear(n.rate)
	n.corrupting.Clear()
	n.reportable.Clear()
	n.live = n.live[:0]
	n.threshold = DefaultDetectionThreshold
	clear(n.constraint)
	for _, tor := range n.topo.ToRs() {
		n.constraint[tor] = c
	}
	n.recomputeViolated()
	n.RegisterPenalty(nil)
	return nil
}

// Topology returns the underlying immutable topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// PathCounter exposes the network's path counter for callers computing
// custom capacity metrics. The counter shares scratch space with the
// Network; do not use it concurrently with Network methods, and restore any
// Apply/Revert probes before returning control to the Network.
func (n *Network) PathCounter() *topology.PathCounter { return n.pc }

// SetToRConstraint overrides the capacity constraint of one ToR. Traffic
// demand differs across ToRs (§5.1), so CorrOpt supports per-ToR thresholds.
func (n *Network) SetToRConstraint(tor topology.SwitchID, c float64) error {
	if c < 0 || c > 1 {
		return fmt.Errorf("core: capacity constraint %v out of [0,1]", c)
	}
	if n.topo.Switch(tor).Stage != 0 {
		return fmt.Errorf("core: switch %q is not a ToR", n.topo.Switch(tor).Name)
	}
	n.constraint[tor] = c
	n.refreshToR(tor)
	return nil
}

// Constraint reports the capacity constraint of a ToR.
func (n *Network) Constraint(tor topology.SwitchID) float64 { return n.constraint[tor] }

// Disable administratively takes link l down (both directions), updating
// path counts incrementally through l's downstream cone.
func (n *Network) Disable(l topology.LinkID) {
	if n.disabled.Has(l) {
		return
	}
	n.numDisabled++
	n.penaltyOnToggle(l, true)
	if n.reportable.Has(l) {
		n.setLive(l, false)
	}
	n.refreshToRs(n.pc.Apply(l))
}

// Enable brings link l back up, updating path counts incrementally.
func (n *Network) Enable(l topology.LinkID) {
	if !n.disabled.Has(l) {
		return
	}
	n.numDisabled--
	n.penaltyOnToggle(l, false)
	if n.reportable.Has(l) {
		n.setLive(l, true)
	}
	n.refreshToRs(n.pc.Revert(l))
}

// Disabled reports whether link l is administratively down.
func (n *Network) Disabled(l topology.LinkID) bool { return n.disabled.Has(l) }

// DisabledLinks returns the disabled set as a bitset. The set is live and
// owned by the Network; callers must not mutate it.
func (n *Network) DisabledLinks() *topology.LinkSet { return n.disabled }

// DisabledFunc returns the link-disabled predicate for path counting.
func (n *Network) DisabledFunc() topology.DisabledFunc {
	return n.disabled.Func()
}

// NumDisabled reports how many links are currently disabled. O(1): the
// count is maintained by Disable/Enable.
func (n *Network) NumDisabled() int { return n.numDisabled }

// SetCorruption records the observed worst-direction corruption rate of
// link l; zero — or anything else that is not a positive number — clears it
// (the link has been repaired or was misdetected). With a registered penalty
// function the running penalty sum is updated in O(1).
func (n *Network) SetCorruption(l topology.LinkID, rate float64) {
	if !(rate > 0) { // written so that NaN clears too
		// Stored, it would be a nonzero rate outside the corrupting index.
		rate = 0
	}
	if n.rate[l] == rate {
		return
	}
	n.rate[l] = rate
	if rate > 0 {
		n.corrupting.Add(l)
	} else {
		n.corrupting.Remove(l)
	}
	if reportable := rate > 0 && rate >= n.threshold; reportable != n.reportable.Has(l) {
		if reportable {
			n.reportable.Add(l)
		} else {
			n.reportable.Remove(l)
		}
		if !n.disabled.Has(l) {
			n.setLive(l, reportable)
		}
	}
	n.penaltyOnToggle(l, n.disabled.Has(l))
}

// setDetectionThreshold keys the reportable index to threshold, rebuilding it
// from the corrupting index when the key changes. An Engine calls it at
// construction: rates may already be recorded by then (a state loaded before
// the engine exists, a pooled network re-used at another threshold).
func (n *Network) setDetectionThreshold(threshold float64) {
	if threshold == n.threshold {
		return
	}
	n.threshold = threshold
	n.reportable.Clear()
	it := n.corrupting.Iter(nil)
	for l := it.Next(); l != topology.NoLink; l = it.Next() {
		if n.rate[l] >= threshold {
			n.reportable.Add(l)
		}
	}
	n.rebuildLive()
}

// setLive adds link l to the live list (on) or removes it, keeping the list
// sorted. The search and the shift are written out rather than left to
// slices.BinarySearch/Insert/Delete: hotalloc cannot see inside those, and
// every report reaches here.
func (n *Network) setLive(l topology.LinkID, on bool) {
	live := n.live
	lo, hi := 0, len(live)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if live[m] < l {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(live) && live[lo] == l {
		if !on {
			copy(live[lo:], live[lo+1:])
			n.live = live[:len(live)-1]
		}
		return
	}
	if on {
		live = append(live, 0)
		copy(live[lo+1:], live[lo:])
		live[lo] = l
		n.live = live
	}
}

// rebuildLive refills the live list from the reportable and disabled sets.
func (n *Network) rebuildLive() {
	n.live = n.live[:0]
	it := n.reportable.Iter(n.disabled)
	for l := it.Next(); l != topology.NoLink; l = it.Next() {
		n.live = append(n.live, l)
	}
}

// RegisterPenalty installs p as the network's impact function and switches
// penalty accounting to incremental mode: from now on SetCorruption,
// Disable, and Enable maintain Σ (1-d_l)·I(f_l) as running state, and
// PenaltySum reads it in O(1) instead of rescanning every link the way
// TotalPenalty does. Registering replaces any previous function and
// recomputes the sum from scratch.
func (n *Network) RegisterPenalty(p PenaltyFunc) {
	if p == nil {
		// Keep the contribution buffer: the next registration reuses it.
		n.penalty = nil
		n.penaltySum, n.penaltyOps = 0, 0
		return
	}
	n.penalty = p
	// Reuse the contribution buffers across registrations: Reset parks them
	// so a pooled Network's per-scenario RegisterPenalty allocates nothing.
	if len(n.contrib) == n.topo.NumLinks() {
		clear(n.contrib)
	} else {
		n.contrib = make([]float64, n.topo.NumLinks())
	}
	it := n.active(0)
	for l := it.next(); l != topology.NoLink; l = it.next() {
		n.contrib[l] = p(n.rate[l])
	}
	n.rebuildPenaltySum()
}

// PenaltyRegistered reports whether an impact function is installed.
func (n *Network) PenaltyRegistered() bool { return n.penalty != nil }

// PenaltySum returns the incrementally-maintained objective Σ (1-d_l)·I(f_l)
// for the registered penalty function. O(1) per read (amortized: every
// penaltyRebuildEvery updates the sum is re-summed exactly over the
// O(#corrupting) cached contributions, in the same link order as a fresh
// TotalPenalty scan, so incremental drift never outlives one epoch). It
// panics if no penalty function was registered.
//
// panicNoPenalty is pre-converted to an interface at package scope: a
// literal panic("...") performs a string-to-interface conversion whose
// operand the compiler heap-allocates at every call site, and PenaltySum
// inlines into every hot-path settle — the escapes analyzer holds those
// frames to zero compiler-reported escapes.
var panicNoPenalty any = "core: PenaltySum called without RegisterPenalty"

//lint:hotpath every Sim.settle and control-plane status read lands here
func (n *Network) PenaltySum() float64 {
	if n.penalty == nil {
		panic(panicNoPenalty)
	}
	if n.penaltyOps >= penaltyRebuildEvery {
		n.rebuildPenaltySum()
	}
	return n.penaltySum
}

// setContrib points link l's cached penalty contribution at c, folding the
// delta into the running sum.
//
//lint:hotpath O(1) fold on every SetCorruption / toggle event
func (n *Network) setContrib(l topology.LinkID, c float64) {
	if old := n.contrib[l]; old != c {
		n.penaltySum += c - old
		n.contrib[l] = c
		n.penaltyOps++
	}
}

// penaltyOnToggle updates the penalty state for link l after its rate
// changed or as it transitions to disabled (true) or enabled (false).
// Disable and Enable invoke it before the path counter's disabled set
// flips, so the new state is passed explicitly.
//
//lint:hotpath runs on every SetCorruption/Disable/Enable event
func (n *Network) penaltyOnToggle(l topology.LinkID, nowDisabled bool) {
	if n.penalty == nil {
		return
	}
	var c float64
	if r := n.rate[l]; r > 0 && !nowDisabled {
		c = n.penalty(r)
	}
	n.setContrib(l, c)
}

// rebuildPenaltySum re-sums the cached contributions exactly, iterating the
// corrupting set in ascending link order — term-for-term the same additions
// as TotalPenalty's fresh scan, so the result is bit-identical to it. The
// bitset is walked with an iterator rather than through Each so the amortized
// rebuild inside PenaltySum stays closure-free (hotalloc's proof obligation).
func (n *Network) rebuildPenaltySum() {
	sum := 0.0
	it := n.corrupting.Iter(nil)
	for l := it.Next(); l != topology.NoLink; l = it.Next() {
		sum += n.contrib[l]
	}
	n.penaltySum = sum
	n.penaltyOps = 0
}

// CorruptionRate reports the recorded corruption rate of link l.
func (n *Network) CorruptionRate(l topology.LinkID) float64 { return n.rate[l] }

// activeIter walks the active corrupting links at one threshold in ascending
// link order; see Network.active.
type activeIter struct {
	links     topology.LinkIter
	rate      []float64
	threshold float64
}

// active returns an iterator over the active corrupting links at threshold:
// a link is active corrupting when it has a recorded rate (rate > 0), that
// rate is at or above threshold, and the link is enabled. Healthy links are
// never active, whatever the threshold. Every reader of that set at another
// threshold than the keyed one (which the live list answers) loops
//
//	it := n.active(threshold)
//	for l := it.next(); l != topology.NoLink; l = it.next() { … }
//
// which walks corrupting &^ disabled in ascending link order — the order,
// and so the float-addition order, of a scan over every link — at a cost of
// O(#links/64 + #corrupting), not O(#links).
func (n *Network) active(threshold float64) activeIter {
	return activeIter{links: n.corrupting.Iter(n.disabled), rate: n.rate, threshold: threshold}
}

// next returns the next active corrupting link, or topology.NoLink.
func (it *activeIter) next() topology.LinkID {
	for {
		l := it.links.Next()
		if l == topology.NoLink || it.rate[l] >= it.threshold {
			return l
		}
	}
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
	if threshold == n.threshold {
		return append(dst, n.live...)
	}
	it := n.active(threshold)
	for l := it.next(); l != topology.NoLink; l = it.next() {
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
	if threshold == n.threshold {
		return len(n.live)
	}
	count := 0
	it := n.active(threshold)
	for l := it.next(); l != topology.NoLink; l = it.next() {
		count++
	}
	return count
}

// panicToRRange is pre-converted at package scope for the same reason as
// panicNoPenalty: meets inlines into the CanDisable hot loop.
var panicToRRange any = "core: meets: ToR index out of range"

// meets reports whether ToR tor meets its constraint given per-ToR counts
// and totals. The single up-front range guard replaces the three implicit
// bounds checks the indexed reads would otherwise each carry inside
// CanDisable's probe loop (the escapes analyzer holds hot-path inner loops
// to zero compiler-inserted bounds checks); out-of-range ToRs still panic.
func (n *Network) meets(tor topology.SwitchID, counts, total []int64) bool {
	i := int(tor)
	if i < 0 || i >= len(counts) || i >= len(total) || i >= len(n.constraint) {
		panic(panicToRRange)
	}
	if total[i] == 0 {
		return n.constraint[i] <= 0
	}
	frac := float64(counts[i]) / float64(total[i])
	return frac+constraintSlack >= n.constraint[i]
}

// refreshToR re-evaluates one ToR's constraint status against the
// incremental counts, maintaining numViolated, and, once ToRFractions has
// built its cache, stores the ToR's fraction there.
func (n *Network) refreshToR(tor topology.SwitchID) {
	counts, total := n.pc.IncCounts(), n.pc.Total()
	now := n.meets(tor, counts, total)
	if now != n.meetsNow[tor] {
		n.meetsNow[tor] = now
		if now {
			n.numViolated--
		} else {
			n.numViolated++
		}
	}
	if n.torPos != nil {
		n.setToRFraction(int(n.torPos[tor]), torFraction(counts[tor], total[tor]))
	}
}

// refreshToRs re-evaluates the given ToRs (typically the changed set of an
// incremental toggle).
func (n *Network) refreshToRs(tors []topology.SwitchID) {
	for _, tor := range tors {
		n.refreshToR(tor)
	}
}

// recomputeViolated rebuilds the per-ToR constraint status from scratch.
func (n *Network) recomputeViolated() {
	n.numViolated = 0
	counts, total := n.pc.IncCounts(), n.pc.Total()
	for _, tor := range n.topo.ToRs() {
		ok := n.meets(tor, counts, total)
		n.meetsNow[tor] = ok
		if !ok {
			n.numViolated++
		}
	}
	if n.torPos != nil {
		n.fillToRFractions()
	}
}

// resetState replaces the disabled set wholesale (used by LoadState): one
// full incremental re-sweep, then a constraint-status rebuild.
func (n *Network) resetState(disabled []topology.LinkID) {
	set := topology.NewLinkSet(n.topo.NumLinks())
	for _, l := range disabled {
		set.Add(l)
	}
	n.pc.ResetIncremental(set)
	n.numDisabled = n.disabled.Len()
	n.rebuildLive()
	n.recomputeViolated()
	if n.penalty != nil {
		// The disabled set changed wholesale: refresh every corrupting
		// link's contribution, then re-sum exactly.
		n.corrupting.Each(func(l topology.LinkID) {
			var c float64
			if r := n.rate[l]; r > 0 && !n.disabled.Has(l) {
				c = n.penalty(r)
			}
			n.contrib[l] = c
		})
		n.rebuildPenaltySum()
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
			if !n.meetsNow[tor] {
				out = append(out, tor)
			}
		}
		return out
	}
	counts := n.pc.Count(n.composite(extra))
	total := n.pc.Total()
	var out []topology.SwitchID
	for _, tor := range n.topo.ToRs() {
		if !n.meets(tor, counts, total) {
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
// raised, a loaded state — every ToR is tested after the last Apply: a nil
// tors scans them all, a non-nil tors restricts the scan to those switches,
// which is exact when every link in extra has all its downstream ToRs in tors
// (the segment boundary invariant, under which the changed ToRs lie in tors
// too). applied and out are optional scratch buffers (overwritten from length
// zero); the result slices alias them, so each caller must own its buffers
// and must not retain the result past its next call.
func (n *Network) violatedUnder(tors []topology.SwitchID, extra, applied []topology.LinkID, out []topology.SwitchID) ([]topology.SwitchID, []topology.LinkID) {
	applied, out = applied[:0], out[:0]
	counts, total := n.pc.IncCounts(), n.pc.Total() // live: Apply updates counts in place
	changedOnly := n.numViolated == 0
	for _, l := range extra {
		if n.disabled.Has(l) {
			continue
		}
		changed := n.pc.Apply(l)
		applied = append(applied, l)
		if changedOnly {
			for _, tor := range changed {
				if !n.meets(tor, counts, total) {
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
		if tors == nil {
			tors = n.topo.ToRs()
		}
		for _, tor := range tors {
			if !n.meets(tor, counts, total) {
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
		if !n.meets(tor, counts, total) {
			return false
		}
	}
	return true
}

// Feasible reports whether every ToR meets its constraint with the current
// disabled set plus extra. A nil extra is O(1).
func (n *Network) Feasible(extra map[topology.LinkID]bool) bool {
	if extra == nil {
		return n.numViolated == 0
	}
	return len(n.ViolatedToRs(extra)) == 0
}

// composite merges the persistent disabled set with a tentative extra set.
func (n *Network) composite(extra map[topology.LinkID]bool) topology.DisabledFunc {
	if extra == nil {
		return n.DisabledFunc()
	}
	return func(l topology.LinkID) bool { return n.disabled.Has(l) || extra[l] }
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
// in one step per power of two it crosses (addOnes). The first read builds
// the cache: O(|ToRs|) once per Network.
//
//lint:hotpath every simulator sample and control-plane status read
func (n *Network) ToRFractions() (worst, mean float64) {
	nt := len(n.topo.ToRs())
	if nt == 0 {
		return 1.0, 0
	}
	if n.torPos == nil {
		//lint:allow escapes builds the fraction cache once per Network, on its first read
		n.buildToRFractions()
	}
	sum, worst := n.sumToRFractions()
	return worst, sum / float64(nt)
}

// torFraction is a ToR's available-path fraction: count/total, or 0 for a
// ToR with no paths to the spine at all.
func torFraction(count, total int64) float64 {
	if total > 0 {
		return float64(count) / float64(total)
	}
	return 0
}

// buildToRFractions allocates ToRFractions' cache and fills it.
func (n *Network) buildToRFractions() {
	tors := n.topo.ToRs()
	blocks := (len(tors) + 63) / 64
	n.torPos = make([]int32, n.topo.NumSwitches())
	for p, tor := range tors {
		n.torPos[tor] = int32(p)
	}
	n.torFrac = make([]float64, len(tors))
	n.torNotOne = make([]uint64, blocks)
	n.torSum = make([]float64, blocks+1)
	n.torMin = make([]float64, blocks+1)
	n.torMin[0] = 1.0
	n.fillToRFractions()
}

// fillToRFractions recomputes every cached fraction from the incremental
// counts; the next read re-sums from the first ToR.
func (n *Network) fillToRFractions() {
	counts, total := n.pc.IncCounts(), n.pc.Total()
	clear(n.torNotOne)
	for p, tor := range n.topo.ToRs() {
		f := torFraction(counts[tor], total[tor])
		n.torFrac[p] = f
		if f != 1.0 {
			n.torNotOne[p>>6] |= 1 << (uint(p) & 63)
		}
	}
	n.torDirty = 0
}

// setToRFraction stores the fraction of the ToR at position p.
func (n *Network) setToRFraction(p int, f float64) {
	if n.torFrac[p] == f {
		return
	}
	n.torFrac[p] = f
	if f != 1.0 {
		n.torNotOne[p>>6] |= 1 << (uint(p) & 63)
	} else {
		n.torNotOne[p>>6] &^= 1 << (uint(p) & 63)
	}
	n.torDirty = min(n.torDirty, p)
}

// sumToRFractions resumes the in-order pass over the cached fractions at the
// checkpoint of torDirty's block, re-recording each later checkpoint, and
// returns the running sum and minimum of the whole list.
func (n *Network) sumToRFractions() (sum, worst float64) {
	blocks := len(n.torNotOne)
	if n.torDirty == len(n.torFrac) {
		return n.torSum[blocks], n.torMin[blocks]
	}
	k := n.torDirty >> 6
	sum, worst = n.torSum[k], n.torMin[k]
	for ; k < blocks; k++ {
		n.torSum[k], n.torMin[k] = sum, worst
		next, end := k<<6, min(k<<6+64, len(n.torFrac))
		for w := n.torNotOne[k]; w != 0; w &= w - 1 {
			p := k<<6 + bits.TrailingZeros64(w)
			if p > next {
				sum = addOnes(sum, p-next)
			}
			f := n.torFrac[p]
			sum += f
			if f < worst { // not min(): with its NaN and signed-zero handling this loop ran 2.7× slower on amd64
				worst = f
			}
			next = p + 1
		}
		if end > next {
			sum = addOnes(sum, end-next)
		}
	}
	n.torSum[blocks], n.torMin[blocks] = sum, worst
	n.torDirty = len(n.torFrac)
	return sum, worst
}

// addOnes returns s after k sequential s += 1 — the in-order sum over a run
// of k fractions equal to 1.0 — bit for bit, in one addition per power of
// two the sum crosses. For 1 <= s < 2^53, s and every integer are multiples
// of the unit in the last place of s's binade [b/2, b), so s + j is exact
// while it stays below b and equals j single additions; only the addition
// that reaches b rounds, and it is done as the loop does it. Outside that
// range the loop is run as written.
func addOnes(s float64, k int) float64 {
	for k > 0 {
		if !(s >= 1 && s < 1<<53) {
			s++
			k--
			continue
		}
		b := math.Float64frombits((math.Float64bits(s)>>52 + 1) << 52) // next power of two above s
		j := int(math.Ceil(b-s)) - 1                                   // b-s is exact (Sterbenz)
		if k <= j {
			return s + float64(k)
		}
		s += float64(j)
		s++
		k -= j + 1
	}
	return s
}

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
	for l := it.next(); l != topology.NoLink; l = it.next() {
		sum += p(n.rate[l])
	}
	return sum
}
