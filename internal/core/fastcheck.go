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
// The check is incremental: disabling the candidate link is probed with an
// Apply/Revert delta pair on the network's path counter, touching only the
// link's downstream cone (one pod or less on a Clos topology) instead of
// re-sweeping the whole data center. The paper reports 100–300 ms per
// decision for its full-recount Python prototype on a 35K-link data center;
// the incremental engine answers in microseconds with zero allocations.
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
	pc := n.PathCounter()
	// Probe: apply the single-link delta, inspect, revert. Only ToRs
	// downstream of l can lose paths — the paper's "check the downstream of
	// l" refinement — and the propagation visits exactly those whose counts
	// actually change.
	changed := pc.Apply(l)
	counts, total := pc.IncCounts(), pc.Total()
	ok := true
	if n.numViolated == 0 {
		// Every ToR meets its constraint right now, so ToRs whose counts
		// did not change still do; checking the changed set is exact.
		for _, tor := range changed {
			if !n.meets(tor, counts, total) {
				ok = false
				break
			}
		}
	} else {
		// Rare path: some ToR is already in violation (links were forced
		// down or constraints tightened). Match the full-check semantics,
		// which refuses when any downstream ToR of l is infeasible even if
		// l does not change its count.
		//lint:allow hotalloc DownstreamToRs allocates on the rare already-violated path only
		for _, tor := range n.topo.DownstreamToRs(l) {
			if !n.meets(tor, counts, total) {
				ok = false
				break
			}
		}
	}
	pc.Revert(l)
	return ok
}

// DisableIfSafe disables l if the capacity constraints allow it and reports
// whether it did.
func (fc *FastChecker) DisableIfSafe(l topology.LinkID) bool {
	return fc.net.disableIf(l, fc.CanDisable(l))
}

// Sweep runs the fast check over every active corrupting link at or above
// threshold, in decreasing corruption-rate order (most harmful first, so
// when capacity is scarce it protects against the worst offenders), and
// disables those that pass. It returns the links it disabled.
//
// The paper notes that as long as no link was activated since the last run,
// the network is maximal after a sweep — no further link can be disabled —
// so Sweep only needs to run on new corrupting links or after activations.
func (fc *FastChecker) Sweep(threshold float64) []topology.LinkID {
	return sweep(fc.net, fc, threshold, nil)
}

// checker is a link-disabling rule: the fast checker's global path counts,
// the switch-local baseline's per-switch uplink fraction, or an Engine's
// policy choosing between them. All answer in O(1) for a link that is
// already down, so callers may evaluate the rule before looking.
type checker interface {
	CanDisable(topology.LinkID) bool
}

// disableIf disables l when the checker allowed it and it is not already
// down, and reports whether it did.
func (n *Network) disableIf(l topology.LinkID, allowed bool) bool {
	if !allowed || n.disabled.Has(l) {
		return false
	}
	n.Disable(l)
	return true
}

// sweep applies c to every active corrupting link at or above threshold
// (within scope, when non-nil), worst first with ties broken by LinkID so
// the order — and therefore the disabled set — is deterministic, disabling
// those that pass. It returns the links it disabled.
func sweep(n *Network, c checker, threshold float64, scope *topology.LinkSet) []topology.LinkID {
	active := n.ActiveCorrupting(threshold)
	slices.SortFunc(active, func(a, b topology.LinkID) int {
		return cmp.Or(cmp.Compare(n.rate[b], n.rate[a]), cmp.Compare(a, b))
	})
	var disabled []topology.LinkID
	for _, l := range active {
		if (scope == nil || scope.Has(l)) && n.disableIf(l, c.CanDisable(l)) {
			disabled = append(disabled, l)
		}
	}
	return disabled
}
