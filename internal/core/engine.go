package core

import (
	"fmt"
	"slices"

	"corropt/internal/topology"
)

// DefaultDetectionThreshold is the corruption rate at which operators act:
// IEEE 802.3 demands 1e-8, but production systems alarm near 1e-6 (§2).
const DefaultDetectionThreshold = 1e-6

// LossyFloor is the IEEE 802.3 lossy threshold of §2: corruption rates
// below 1e-8 are indistinguishable from a healthy link (the standard's
// residual bit-error budget) and are treated as zero wherever ground truth
// is mirrored into detection-facing state. stats.DefaultBuckets' lowest
// bucket boundary is the same floor.
const LossyFloor = 1e-8

// CheckRate returns nil for a corruption rate, a number in [0,1], and an
// error naming the value for anything else: NaN, a negative or a rate above
// 1. Every ingress of reports — the control plane and the fleet — checks
// with it before a rate reaches an Engine.
func CheckRate(rate float64) error {
	if rate >= 0 && rate <= 1 { // written so that NaN fails too
		return nil
	}
	return fmt.Errorf("corruption rate %v out of [0,1]", rate)
}

// PolicyKind selects the link-disabling strategy: which check a corruption
// report runs and what re-checks the remaining corrupting links when a link
// is activated.
type PolicyKind int

const (
	// PolicyNone never disables links; the do-nothing baseline that
	// calibrates how much any mitigation helps (the paper estimates
	// corruption losses would be two orders of magnitude higher without
	// automatic disabling, §2).
	PolicyNone PolicyKind = iota
	// PolicySwitchLocal is the production baseline: a link may go down
	// only if its switch keeps c^(1/r) of its uplinks.
	PolicySwitchLocal
	// PolicyFastOnly runs CorrOpt's fast checker for new corrupting links
	// and re-runs it (instead of the optimizer) on activations.
	PolicyFastOnly
	// PolicyCorrOpt is the full system: fast checker on arrival, global
	// optimizer on activation.
	PolicyCorrOpt

	numPolicies
)

// String implements fmt.Stringer. Its names are the only spelling of each
// policy: PolicyNames and PolicyByName are built from them.
func (p PolicyKind) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicySwitchLocal:
		return "switch-local"
	case PolicyFastOnly:
		return "fast-only"
	case PolicyCorrOpt:
		return "corropt"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// PolicyNames lists every policy's String, indexed by PolicyKind.
func PolicyNames() []string {
	names := make([]string, numPolicies)
	for p := range names {
		names[p] = PolicyKind(p).String()
	}
	return names
}

// PolicyByName is the inverse of PolicyKind.String: ok is false for a name
// no policy has.
func PolicyByName(name string) (p PolicyKind, ok bool) {
	i := slices.Index(PolicyNames(), name)
	return PolicyKind(i), i >= 0
}

// Outcome classifies what the engine did with a corruption report.
type Outcome uint8

const (
	// OutcomeBelowThreshold: the rate was recorded but does not reach the
	// detection threshold, so no check ran.
	OutcomeBelowThreshold Outcome = iota
	// OutcomeAlreadyDisabled: the link was down before the report.
	OutcomeAlreadyDisabled
	// OutcomeDisabled: the check passed and the link was taken down.
	OutcomeDisabled
	// OutcomeBlocked: the check refused; the link stays up, corrupting.
	OutcomeBlocked
)

// Decision records what the engine did with a corruption report.
type Decision struct {
	Link topology.LinkID
	// Disabled is true for OutcomeDisabled and OutcomeAlreadyDisabled.
	Disabled bool
	Outcome  Outcome

	rate, threshold float64 // for Reason only
}

// Reason explains a negative or no-op decision; empty when the report
// disabled the link. It is formatted on demand so that reports themselves
// never allocate.
func (d Decision) Reason() string {
	switch d.Outcome {
	case OutcomeBelowThreshold:
		return fmt.Sprintf("rate %.3g below detection threshold %.3g", d.rate, d.threshold)
	case OutcomeAlreadyDisabled:
		return "already disabled"
	case OutcomeBlocked:
		return "capacity constraints forbid disabling"
	default:
		return ""
	}
}

// Engine is the decision half of Figure 13, the only implementation of it in
// the repository: switches report corruption; the policy's check decides
// immediately whether the link can be disabled; when repaired links come
// back, the remaining active corrupting links are reconsidered. The
// simulator, the fleet shards and the control plane drive it via RepairLoop.
type Engine struct {
	net       *Network
	policy    PolicyKind
	fast      *FastChecker
	local     *SwitchLocal // PolicySwitchLocal only
	opt       *Optimizer   // PolicyCorrOpt only
	penalty   PenaltyFunc
	threshold float64

	scratch sweepScratch // the activation re-check's
	// settled is the re-check's record of the segments, made by the first
	// one, so an engine that never re-checks carries a single word for it.
	// Another engine on the same network keeps its own.
	settled *segChecks
}

// segChecks is what the re-checks know of the segments: segs[s] of segment
// s (see Network.gen), and probed lists the segments the current re-check
// probes.
type segChecks struct {
	segs   []segCheck
	probed []int32
}

// segCheck is what the re-check knows of one segment.
type segCheck struct {
	// settled is 1 + the segment's generation when this engine's re-check
	// last found no active corrupting link there passing alone; 0 if never.
	settled uint64
	// probed and pass mark, during one re-check, a segment in probed and
	// one where some link passes.
	probed, pass bool
}

// EngineConfig parameterizes an Engine.
type EngineConfig struct {
	// DetectionThreshold is the corruption rate that triggers mitigation, in
	// (0, 1]; zero means DefaultDetectionThreshold.
	DetectionThreshold float64
	// Penalty is the impact function; default LinearPenalty.
	Penalty PenaltyFunc
}

// NewEngine returns the full CorrOpt Engine (PolicyCorrOpt) over net. It
// panics on a configuration NewPolicyEngine rejects; callers whose
// configuration comes from outside the program use NewPolicyEngine.
func NewEngine(net *Network, cfg EngineConfig) *Engine {
	e, err := NewPolicyEngine(net, PolicyCorrOpt, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// NewPolicyEngine returns an Engine over net running the given policy, and
// keys net's reportable index to the engine's detection threshold. The
// switch-local baseline guarantees the strictest ToR constraint net carries
// at construction.
func NewPolicyEngine(net *Network, policy PolicyKind, cfg EngineConfig) (*Engine, error) {
	if cfg.DetectionThreshold == 0 {
		cfg.DetectionThreshold = DefaultDetectionThreshold
	}
	// Written so that NaN fails too: against a threshold no rate compares
	// below, even a clean link's zero-rate report would reach the check.
	if !(cfg.DetectionThreshold > 0 && cfg.DetectionThreshold <= 1) {
		return nil, fmt.Errorf("core: detection threshold %v out of (0,1]", cfg.DetectionThreshold)
	}
	if cfg.Penalty == nil {
		cfg.Penalty = LinearPenalty
	}
	e := &Engine{
		net:       net,
		policy:    policy,
		fast:      NewFastChecker(net),
		penalty:   cfg.Penalty,
		threshold: cfg.DetectionThreshold,
	}
	switch policy {
	case PolicyNone, PolicyFastOnly:
	case PolicyCorrOpt:
		e.opt = NewOptimizer(net, cfg.Penalty)
	case PolicySwitchLocal:
		c := 0.0
		for _, tor := range net.Topology().ToRs() {
			c = max(c, net.Constraint(tor))
		}
		var err error
		if e.local, err = NewSwitchLocal(net, c); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown policy %v", policy)
	}
	net.links.Key(e.threshold, net.pc.IncDisabled())
	return e, nil
}

// Network returns the engine's network state.
func (e *Engine) Network() *Network { return e.net }

// Threshold reports the detection threshold in use.
func (e *Engine) Threshold() float64 { return e.threshold }

// TotalPenalty is the engine's objective Σ (1 - d_l) · I(f_l) under its own
// impact function, by an exact scan in ascending link order.
func (e *Engine) TotalPenalty() float64 { return e.net.TotalPenalty(e.penalty) }

// ReportCorruption handles a new corruption report for link l at the given
// worst-direction rate: it records the rate and, if the rate is at or above
// the detection threshold, runs the policy's check and disables the link
// when it passes. The whole decision is incremental — one probe walk over
// l's downstream cone, plus on success a write-back of what it found — so a
// report costs microseconds even on the largest topologies, and the engine
// can absorb report storms (e.g. a breakout cable taking 8 links down at
// once) without re-sweeping the data center per link.
//
//lint:hotpath every report of the simulator, the fleet shards and the control plane
func (e *Engine) ReportCorruption(l topology.LinkID, rate float64) Decision {
	e.net.SetCorruption(l, rate)
	d := Decision{Link: l, rate: rate, threshold: e.threshold}
	switch {
	case rate < e.threshold:
		d.Outcome = OutcomeBelowThreshold
	case e.net.Disabled(l):
		d.Outcome, d.Disabled = OutcomeAlreadyDisabled, true
	case e.DisableIfSafe(l):
		d.Outcome, d.Disabled = OutcomeDisabled, true
	default:
		d.Outcome = OutcomeBlocked
	}
	return d
}

// DisableIfSafe runs the policy's check on link l and disables it when the
// check passes, reporting whether it did. The dispatch is a switch over
// concrete checkers, not an interface call, so the report path stays
// provably allocation-free.
func (e *Engine) DisableIfSafe(l topology.LinkID) bool {
	switch e.policy {
	case PolicyNone:
		return false
	case PolicySwitchLocal:
		return e.local.DisableIfSafe(l)
	default:
		return e.fast.DisableIfSafe(l)
	}
}

// CanDisable reports whether the policy's check would let link l go down on
// its own right now, without taking it down. Like DisableIfSafe it is a
// switch over concrete checkers.
func (e *Engine) CanDisable(l topology.LinkID) bool {
	switch e.policy {
	case PolicyNone:
		return false
	case PolicySwitchLocal:
		return e.local.CanDisable(l)
	default:
		return e.fast.CanDisable(l)
	}
}

// Activate enables link l and runs the policy's activation step — the
// optimizer under PolicyCorrOpt, a worst-first sweep of the policy's check
// under the baselines — over the remaining active corrupting links, as link
// activations are what create room to disable more of them. It returns the
// newly disabled links. l's recorded corruption rate is left as it is:
// callers that know the link came back clean use LinkRepaired.
//
// Disabling a link only removes paths, so nothing goes together unless
// something goes alone: a link the policy's check refuses on its own is in
// no set that can go. The step therefore first probes the links alone, and
// only in the segments that changed since the engine last found them
// settled (see recheck). The sweep offers only the links that pass; the
// optimizer is skipped when none does, which is most activations of a
// running fabric.
func (e *Engine) Activate(l topology.LinkID) []topology.LinkID {
	e.net.Enable(l)
	disabled, _ := e.recheck()
	return disabled
}

// LinkRepaired handles a link coming back from repair: its corruption
// record is cleared (a link that is still corrupting gets re-reported by
// monitoring) and it is activated.
func (e *Engine) LinkRepaired(l topology.LinkID) []topology.LinkID {
	e.net.SetCorruption(l, 0)
	return e.Activate(l)
}

// recheck runs the policy's activation step. It probes the active
// corrupting links of the unsettled segments alone — all of them for a
// sweep, up to the first pass per segment for the optimizer — marks the
// segments where none passes settled, and hands the links of the others to
// the sweep or the optimizer.
//
// The optimizer's skip is exact from a violated state too. A ToR violated
// now stays in violatedUnder's result, so every link upstream of it shares
// its segment, whose meetsAll fails and whose solveSegment disables
// nothing. Every link the optimizer does disable is thus downstream only of
// ToRs that are unendangered or in a feasible segment, and by monotonicity
// it can go alone: the fast check's violated-state path, which checks all
// of DownstreamToRs(l), passes it.
//
// The same argument holds per topology segment (topology.Partition): a
// toggle changes path counts only inside its own segment, each optimizer
// segment and budget lies inside one, and so does every
// input of a link's check. A segment where no link passes alone therefore
// contributes nothing to a whole-fabric step, and the step over the
// segments where some link passes returns the same list.
func (e *Engine) recheck() ([]topology.LinkID, OptimizeStats) {
	topo, gen, b := e.net.topo, e.net.gen, &e.scratch
	if e.settled == nil {
		n := topo.NumSegments()
		e.settled = &segChecks{segs: make([]segCheck, n), probed: make([]int32, 0, n)}
	}
	sc := e.settled
	b.active = e.net.AppendActiveCorrupting(b.active[:0], e.threshold)
	order, passing := b.order[:0], false
	for _, l := range b.active {
		s := topo.LinkSegment(l)
		seg := &sc.segs[s]
		if seg.settled == gen[s]+1 || seg.pass && e.opt != nil {
			continue
		}
		if !seg.probed {
			seg.probed = true
			sc.probed = append(sc.probed, int32(s))
		}
		if e.CanDisable(l) {
			seg.pass, passing = true, true
			if e.opt == nil {
				order = append(order, rankedLink{l, e.net.links.Rate(l)})
			}
		}
	}
	b.order = order
	if e.opt == nil {
		sc.settle(gen)
		return disableRanked(e, order), OptimizeStats{}
	}
	if !passing {
		sc.settle(gen)
		return nil, OptimizeStats{}
	}
	kept := b.active[:0]
	for _, l := range b.active {
		if sc.segs[topo.LinkSegment(l)].pass {
			kept = append(kept, l)
		}
	}
	sc.settle(gen)
	return e.opt.run(kept)
}

// settle ends a re-check: a probed segment where no link passed is settled
// at its current generation, and the marks are cleared. A disable bumps no
// generation, so the result stays true while the sweep or the optimizer
// disables links. A segment without active corrupting links is never
// probed, and stays as it was.
func (sc *segChecks) settle(gen []uint64) {
	for _, s := range sc.probed {
		seg := &sc.segs[s]
		if !seg.pass {
			seg.settled = gen[s] + 1
		}
		seg.probed, seg.pass = false, false
	}
	sc.probed = sc.probed[:0]
}
