// Package faults models the root causes of packet corruption identified in
// §4 of the paper, the optical symptoms each produces, and a fault injector
// that generates corruption events with the statistical shape reported in
// §2–§3 (Table 1 loss buckets, 8.2% bidirectionality, weak spatial locality
// via shared-component failures).
package faults

import (
	"fmt"
	"slices"
)

// RootCause enumerates the five corruption root causes of Table 2.
type RootCause int

const (
	// ConnectorContamination: dirt, oil, pits, chips or scratches on a
	// fiber connector. Symptom: high TxPower both sides, low RxPower in
	// one direction only. Repair: clean the fiber.
	ConnectorContamination RootCause = iota
	// DamagedFiber: a bent or physically damaged fiber leaking signal.
	// Symptom: low RxPower on both sides with high TxPower. Repair:
	// replace the cable/fiber.
	DamagedFiber
	// DecayingTransmitter: an aging laser with deteriorating launch power.
	// Symptom: low TxPower on the send side and low RxPower on the receive
	// side. Repair: replace the transceiver on the sending side.
	DecayingTransmitter
	// BadTransceiver: a faulty or loosely seated transceiver. Symptom:
	// good power levels on both sides yet the link corrupts, and only one
	// link on the switch is affected. Repair: reseat, then replace.
	BadTransceiver
	// SharedComponent: a faulty breakout cable or switch backplane taking
	// several co-located links down at once with similar corruption rates
	// and good optics. Repair: replace the shared component (or rewire).
	// This cause is primarily responsible for corruption's weak spatial
	// locality (§3).
	SharedComponent

	numCauses
)

// NumCauses is the number of distinct root causes.
const NumCauses = int(numCauses)

// String implements fmt.Stringer. Its names are the only spelling of each
// cause: CauseNames and CauseByName are built from them.
func (c RootCause) String() string {
	switch c {
	case ConnectorContamination:
		return "connector-contamination"
	case DamagedFiber:
		return "damaged-fiber"
	case DecayingTransmitter:
		return "decaying-transmitter"
	case BadTransceiver:
		return "bad-transceiver"
	case SharedComponent:
		return "shared-component"
	default:
		return fmt.Sprintf("RootCause(%d)", int(c))
	}
}

// CauseNames lists every root cause's String, indexed by RootCause.
func CauseNames() []string {
	names := make([]string, numCauses)
	for c := range names {
		names[c] = RootCause(c).String()
	}
	return names
}

// CauseByName is the inverse of RootCause.String: ok is false for a name no
// cause has.
func CauseByName(name string) (c RootCause, ok bool) {
	i := slices.Index(CauseNames(), name)
	return RootCause(i), i >= 0
}

// RepairAction enumerates the concrete repairs Algorithm 1 can recommend.
type RepairAction int

const (
	// ActionUnknown means no recommendation could be produced (e.g. the
	// switch type exposes no optical power data, as for some switches in
	// the deployment of §7.2).
	ActionUnknown RepairAction = iota
	// ActionCleanFiber cleans connectors with an optical cleaning kit.
	ActionCleanFiber
	// ActionReplaceFiber replaces the cable/fiber.
	ActionReplaceFiber
	// ActionReseatTransceiver unplugs and replugs the transceiver.
	ActionReseatTransceiver
	// ActionReplaceTransceiver replaces the transceiver on the corrupting
	// link's receive side.
	ActionReplaceTransceiver
	// ActionReplaceOppositeTransceiver replaces the transceiver on the far
	// side (the decaying transmitter case).
	ActionReplaceOppositeTransceiver
	// ActionReplaceSharedComponent replaces a breakout cable or switch, or
	// rewires to unused ports.
	ActionReplaceSharedComponent
)

// String implements fmt.Stringer.
func (a RepairAction) String() string {
	switch a {
	case ActionUnknown:
		return "unknown"
	case ActionCleanFiber:
		return "clean-fiber"
	case ActionReplaceFiber:
		return "replace-fiber"
	case ActionReseatTransceiver:
		return "reseat-transceiver"
	case ActionReplaceTransceiver:
		return "replace-transceiver"
	case ActionReplaceOppositeTransceiver:
		return "replace-opposite-transceiver"
	case ActionReplaceSharedComponent:
		return "replace-shared-component"
	default:
		return fmt.Sprintf("RepairAction(%d)", int(a))
	}
}

// Repairs reports the actions that actually fix a fault with this root
// cause, in the order a technician would try them. Any action in the list
// counts as a correct repair; actions outside it leave the fault in place.
func (c RootCause) Repairs() []RepairAction {
	switch c {
	case ConnectorContamination:
		// Cleaning fixes contamination; a full fiber replacement renews
		// the connectors too.
		return []RepairAction{ActionCleanFiber, ActionReplaceFiber}
	case DamagedFiber:
		return []RepairAction{ActionReplaceFiber}
	case DecayingTransmitter:
		return []RepairAction{ActionReplaceOppositeTransceiver}
	case BadTransceiver:
		// Reseating fixes loose transceivers; replacement fixes bad ones.
		return []RepairAction{ActionReseatTransceiver, ActionReplaceTransceiver}
	case SharedComponent:
		return []RepairAction{ActionReplaceSharedComponent}
	default:
		return nil
	}
}

// CauseMix is a probability distribution over root causes.
type CauseMix [NumCauses]float64

// DefaultCauseMix returns the root-cause mix used by the fault injector,
// chosen at the midpoints of Table 2's contribution ranges and normalized:
// contamination 17–57%, bent/damaged fiber 14–48%, decaying transmitter
// <1%, bad/loose transceiver 6–45%, shared component 10–26%.
func DefaultCauseMix() CauseMix {
	return CauseMix{
		ConnectorContamination: 0.35,
		DamagedFiber:           0.27,
		DecayingTransmitter:    0.01,
		BadTransceiver:         0.22,
		SharedComponent:        0.15,
	}
}

// Normalize scales the mix so it sums to one. It panics on a non-positive
// total because an all-zero mix cannot be sampled from.
func (m CauseMix) Normalize() CauseMix {
	total := 0.0
	for _, p := range m {
		total += p
	}
	if total <= 0 {
		panic("faults: cause mix has non-positive total")
	}
	for i := range m {
		m[i] /= total
	}
	return m
}

// Sample draws a cause given a uniform value u in [0,1).
func (m CauseMix) Sample(u float64) RootCause {
	acc := 0.0
	for c, p := range m {
		acc += p
		if u < acc {
			return RootCause(c)
		}
	}
	return RootCause(NumCauses - 1)
}

// BidirectionalProb is the per-cause probability that a fault corrupts both
// directions of the link. The values are chosen so that the aggregate
// bidirectional fraction under DefaultCauseMix matches the 8.2% the paper
// measures (§3, Figure 5), with fiber damage — which attenuates both
// directions — contributing most of it.
func (c RootCause) BidirectionalProb() float64 {
	switch c {
	case ConnectorContamination:
		return 0.02
	case DamagedFiber:
		return 0.25
	case DecayingTransmitter:
		return 0
	case BadTransceiver:
		return 0.02
	case SharedComponent:
		return 0.03
	default:
		return 0
	}
}
