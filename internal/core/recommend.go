package core

import (
	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/telemetry"
	"corropt/internal/topology"
)

// Diagnostics carries the inputs of Algorithm 1 for one corrupting link:
// the optical power levels around the corrupting direction, whether
// co-located links or the reverse direction also corrupt, and the link's
// repair history.
type Diagnostics struct {
	Link topology.LinkID
	// Dir is the (worst) corrupting direction.
	Dir topology.Direction
	// NeighborCorrupting reports whether other links sharing a component
	// (the same switch / breakout cable) corrupt too — the shared-
	// component signature.
	NeighborCorrupting bool
	// OppositeCorrupting reports whether the reverse direction of this
	// link also corrupts — the damaged-fiber signature.
	OppositeCorrupting bool
	// HasOptics reports whether power levels are available; some switch
	// types in the deployment expose none, in which case no
	// recommendation can be generated (§7.2).
	HasOptics bool
	// Rx1 is the receive power at the corrupting link's receive side.
	Rx1 optics.DBm
	// Rx2 and Tx2 are the receive and transmit power at the opposite
	// side.
	Rx2, Tx2 optics.DBm
	// RecentlyReseated reports whether a reseat was already attempted on
	// this link (the history input that separates reseat from replace).
	RecentlyReseated bool
	// Tech supplies PowerThreshRx and PowerThreshTx for the link's
	// optical technology.
	Tech optics.Technology
}

// Recommend implements Algorithm 1, CorrOpt's root-cause-aware repair
// recommendation engine. It returns the concrete action a technician
// should take, derived from the most likely symptom signatures of §4.
func Recommend(d Diagnostics) faults.RepairAction {
	// Lines 2–4: corruption on co-located links means a shared component
	// (breakout cable or switch backplane) is at fault.
	if d.NeighborCorrupting {
		return faults.ActionReplaceSharedComponent
	}
	// Lines 5–6: corruption in both directions points at the fiber.
	if d.OppositeCorrupting {
		return faults.ActionReplaceFiber
	}
	if !d.HasOptics {
		return faults.ActionUnknown
	}
	// Lines 10–11: a dim transmitter on the far side is a decaying laser.
	if d.Tx2 <= d.Tech.TxThreshold {
		return faults.ActionReplaceOppositeTransceiver
	}
	// Lines 12–13: both receivers starved — bent or damaged fiber.
	if d.Rx1 < d.Tech.RxThreshold && d.Rx2 < d.Tech.RxThreshold {
		return faults.ActionReplaceFiber
	}
	// Lines 14–15: one starved receiver — connector contamination.
	if d.Rx1 < d.Tech.RxThreshold {
		return faults.ActionCleanFiber
	}
	// Lines 16–20: good optics but corrupting — transceiver trouble;
	// reseat first, replace if that was already tried.
	if !d.RecentlyReseated {
		return faults.ActionReseatTransceiver
	}
	return faults.ActionReplaceTransceiver
}

// DeployedThresholds are the single, global power thresholds the early
// deployment used for every link regardless of its optical technology
// (§7.2: per-technology information "was not readily available"). Links
// whose technology has tighter or looser real thresholds get misclassified
// when their power sits between the global and the true value — one of the
// reasons the deployed accuracy underestimates the full design's.
var DeployedThresholds = optics.Technology{
	Name:        "deployed-global",
	TxThreshold: -4,
	RxThreshold: -10,
}

// Deployed returns d as the simplified engine deployed across the 70 data
// centers (§7.2) saw it: power compared against DeployedThresholds instead
// of the link's per-technology values, and no repair history, so Recommend
// always suggests reseating before replacement and cannot escalate. The
// neighbor-corruption input stays — it comes from the packet counters the
// monitoring system already collects, not from optics.
func (d Diagnostics) Deployed() Diagnostics {
	d.Tech, d.RecentlyReseated = DeployedThresholds, false
	return d
}

// Diagnose assembles Diagnostics for link l from the latest telemetry.
// threshold is the corruption rate at which a direction counts as
// corrupting; reseated reports prior reseat attempts on the link.
func Diagnose(c *telemetry.Collector, topo *topology.Topology, tech optics.Technology,
	l topology.LinkID, threshold float64, reseated bool) (Diagnostics, bool) {
	obs, ok := c.Latest(l)
	if !ok || obs.Disabled {
		return Diagnostics{}, false
	}
	dir := topology.Up
	if obs.CorruptionRate[topology.Down] > obs.CorruptionRate[topology.Up] {
		dir = topology.Down
	}
	if obs.CorruptionRate[dir] < threshold {
		return Diagnostics{}, false
	}
	d := Diagnostics{
		Link:             l,
		Dir:              dir,
		HasOptics:        true,
		RecentlyReseated: reseated,
		Tech:             tech,
	}
	d.OppositeCorrupting = obs.CorruptionRate[1-dir] >= threshold

	// Receive side of the corrupting direction.
	recv := optics.UpperSide
	if dir == topology.Down {
		recv = optics.LowerSide
	}
	d.Rx1 = obs.RxPower[recv]
	d.Rx2 = obs.RxPower[recv.Opposite()]
	d.Tx2 = obs.TxPower[recv.Opposite()]

	// Neighbor corruption: any other link sharing a switch with l
	// corrupting at the same time. The breakout-cable group is the
	// tightest shared component; fall back to the switch's links.
	for _, nb := range neighborLinks(topo, l) {
		if nb == l {
			continue
		}
		if nobs, ok := c.Latest(nb); ok && !nobs.Disabled {
			if nobs.CorruptionRate[topology.Up] >= threshold || nobs.CorruptionRate[topology.Down] >= threshold {
				d.NeighborCorrupting = true
				break
			}
		}
	}
	return d, true
}

// DiagnoseState assembles Diagnostics for link l straight from fault-state
// ground truth, bypassing the telemetry layer; simulations use it where the
// deployed system would read its monitoring database. The power readings
// are exactly the transceivers' current values (telemetry adds only
// counter noise, not power noise), so the two paths agree.
func DiagnoseState(st *faults.State, l topology.LinkID, threshold float64, reseated bool) (Diagnostics, bool) {
	up := st.CorruptionRate(l, topology.Up)
	down := st.CorruptionRate(l, topology.Down)
	dir := topology.Up
	if down > up {
		dir = topology.Down
	}
	if st.CorruptionRate(l, dir) < threshold {
		return Diagnostics{}, false
	}
	d := Diagnostics{
		Link:             l,
		Dir:              dir,
		HasOptics:        true,
		RecentlyReseated: reseated,
		Tech:             st.TechOf(l),
	}
	d.OppositeCorrupting = st.CorruptionRate(l, 1-dir) >= threshold
	recv := optics.UpperSide
	if dir == topology.Down {
		recv = optics.LowerSide
	}
	ol := st.Optics(l)
	d.Rx1 = ol.RxPower(recv)
	d.Rx2 = ol.RxPower(recv.Opposite())
	d.Tx2 = ol.TxPower(recv.Opposite())
	for _, nb := range neighborLinks(st.Topology(), l) {
		if nb != l && st.Corrupting(nb, threshold) {
			d.NeighborCorrupting = true
			break
		}
	}
	return d, true
}

// neighborLinks returns the links sharing a component with l: its breakout
// group if it has one, otherwise all links on either endpoint switch.
func neighborLinks(topo *topology.Topology, l topology.LinkID) []topology.LinkID {
	if group := topo.SameBreakout(l); len(group) > 1 {
		return group
	}
	lk := topo.Link(l)
	out := topo.LinksOnSwitch(lk.Lower)
	out = append(out, topo.LinksOnSwitch(lk.Upper)...)
	return out
}
