package core

import (
	"cmp"
	"slices"

	"corropt/internal/topology"
)

// FastChecker implements CorrOpt's first phase (§5.1): when a link starts
// corrupting packets, decide quickly — but using global path counts rather
// than a switch-local rule — whether it can be disabled without violating
// any ToR's capacity constraint.
//
// The check is incremental: disabling the candidate link is probed on the
// network's path counter, one walk over the link's downstream cone (one pod
// or less on a Clos topology) instead of a re-sweep of the whole data
// center, and a disable commits that probe rather than walking again. The
// paper reports 100–300 ms per decision for its full-recount Python
// prototype on a 35K-link data center; the incremental engine answers in
// microseconds with zero allocations.
type FastChecker struct {
	net *Network
}

// NewFastChecker returns a FastChecker over net.
func NewFastChecker(net *Network) *FastChecker { return &FastChecker{net: net} }

// CanDisable reports whether link l can be disabled right now without
// violating any ToR capacity constraint. Already-disabled links are
// trivially "disableable" (no state change).
//
//lint:hotpath the per-corruption-event decision the paper budgets in §5.1
func (fc *FastChecker) CanDisable(l topology.LinkID) bool {
	n := fc.net
	if n.Disabled(l) {
		return true
	}
	// Probe: only ToRs downstream of l can lose paths — the paper's "check
	// the downstream of l" refinement — and the walk visits exactly those
	// whose counts would change. The probe stays pending for DisableIfSafe.
	changed := n.pc.Probe(l)
	if n.tors.NumViolated() == 0 {
		// Every ToR meets its constraint right now, so ToRs whose counts
		// would not change still do; checking the changed set is exact.
		return n.tors.ProbeMeets(changed, n.pc)
	}
	// Rare path: some ToR is already in violation (links were forced down
	// or constraints tightened). Match the full-check semantics, which
	// refuses when any downstream ToR of l is infeasible even if l does not
	// change its count.
	//lint:allow escapes DownstreamToRs allocates on the rare already-violated path only
	return n.tors.ProbeMeets(n.topo.DownstreamToRs(l), n.pc)
}

// DisableIfSafe disables l if the capacity constraints allow it and reports
// whether it did. The disable commits CanDisable's probe.
func (fc *FastChecker) DisableIfSafe(l topology.LinkID) bool {
	if fc.net.Disabled(l) || !fc.CanDisable(l) {
		return false
	}
	fc.net.commitProbe(l)
	return true
}

// Sweep runs the fast check over every active corrupting link at or above
// threshold, in decreasing corruption-rate order (most harmful first, so
// when capacity is scarce it protects against the worst offenders), and
// disables those that pass. It returns the links it disabled.
//
// Disabling a link only removes paths, so nothing goes together unless
// something goes alone: a link the check refuses on its own is refused after
// any further disables too. Sweep therefore offers only the links that pass
// alone, and a state where none does is maximal — the paper's remark that
// the network is maximal after a sweep until the next activation.
func (fc *FastChecker) Sweep(threshold float64) []topology.LinkID {
	return sweep(fc.net, fc, threshold, &sweepScratch{})
}

// checker is a link-disabling rule: the fast checker's global path counts,
// the switch-local baseline's per-switch uplink fraction, or an Engine's
// policy choosing between them. Both rules are monotone: a link CanDisable
// refuses stays refused while more links go down.
type checker interface {
	CanDisable(topology.LinkID) bool
	DisableIfSafe(topology.LinkID) bool
}

// sweepScratch is a sweep's reused buffers: the active corrupting links,
// and those of them that pass the check alone, ranked.
type sweepScratch struct {
	active []topology.LinkID
	order  []rankedLink
}

// sweep offers c the active corrupting links at or above threshold that
// pass c's check on their own, worst first with ties broken by LinkID so the
// order — and therefore the disabled set — is deterministic. It returns
// the links c disabled: those a sweep over every active corrupting link
// disables, as a link c refuses alone it refuses at its turn too.
func sweep(n *Network, c checker, threshold float64, b *sweepScratch) []topology.LinkID {
	b.active = n.AppendActiveCorrupting(b.active[:0], threshold)
	order := b.order[:0]
	for _, l := range b.active {
		if c.CanDisable(l) {
			order = append(order, rankedLink{l, n.links.Rate(l)})
		}
	}
	b.order = order
	return disableRanked(c, order)
}

// disableRanked offers c the links of order worst first, ties by LinkID,
// and returns those it disabled.
func disableRanked(c checker, order []rankedLink) []topology.LinkID {
	sortRanked(order)
	var disabled []topology.LinkID
	for _, r := range order {
		if c.DisableIfSafe(r.link) {
			disabled = append(disabled, r.link)
		}
	}
	return disabled
}

// rankedLink is a link with the key a worst-first order sorts it by: its
// rate in a sweep, its penalty in the optimizer's exact search.
type rankedLink struct {
	link topology.LinkID
	key  float64
}

// sortRanked sorts links by descending key, ties by ascending LinkID. The
// keys are worked out once before the sort, not in every comparison.
func sortRanked(links []rankedLink) {
	slices.SortFunc(links, func(a, b rankedLink) int {
		return cmp.Or(cmp.Compare(b.key, a.key), cmp.Compare(a.link, b.link))
	})
}
