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

// Scope restricts an activation's re-check to one cone-closed segment of
// the topology (see Optimizer.RunScoped for the exactness preconditions).
// The zero value is the whole topology.
type Scope struct {
	Links *topology.LinkSet
	ToRs  []topology.SwitchID
}

// Engine is the workflow of Figure 13, the only implementation of it in the
// repository: switches report corruption; the policy's check decides
// immediately whether the link can be disabled; when repaired links come
// back, the remaining active corrupting links are reconsidered. The
// simulator, the fleet shards and the control plane all drive this type and
// keep only their own bookkeeping.
type Engine struct {
	net       *Network
	policy    PolicyKind
	fast      *FastChecker
	local     *SwitchLocal // PolicySwitchLocal only
	opt       *Optimizer   // PolicyCorrOpt only
	penalty   PenaltyFunc
	threshold float64
}

// EngineConfig parameterizes an Engine.
type EngineConfig struct {
	// DetectionThreshold is the corruption rate that triggers mitigation, in
	// (0, 1]; zero means DefaultDetectionThreshold.
	DetectionThreshold float64
	// Penalty is the impact function; default LinearPenalty.
	Penalty PenaltyFunc
	// Optimizer tunes the second phase.
	Optimizer OptimizerConfig
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
		e.opt = NewOptimizer(net, cfg.Penalty, cfg.Optimizer)
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
	net.setDetectionThreshold(e.threshold)
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
// when it passes. The whole decision is incremental — an Apply/Revert
// probe over l's downstream cone plus, on success, one Apply to commit —
// so a report costs microseconds even on the largest topologies, and the
// engine can absorb report storms (e.g. a breakout cable taking 8 links
// down at once) without re-sweeping the data center per link.
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
	case e.net.disableIf(l, e.CanDisable(l)):
		d.Outcome, d.Disabled = OutcomeDisabled, true
	default:
		d.Outcome = OutcomeBlocked
	}
	return d
}

// CanDisable is the policy's check: whether link l may be taken down right
// now. The dispatch is a switch over concrete checkers, not an interface
// call, so the report path stays provably allocation-free.
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
// under the baselines — over the remaining active corrupting links in
// scope, as link activations are what create room to disable more of them.
// It returns the newly disabled links. l's recorded corruption rate is left
// as it is: callers that know the link came back clean use LinkRepaired.
func (e *Engine) Activate(l topology.LinkID, scope Scope) []topology.LinkID {
	e.net.Enable(l)
	disabled, _ := e.recheck(scope)
	return disabled
}

// LinkRepaired handles a link coming back from repair: its corruption
// record is cleared (a link that is still corrupting gets re-reported by
// monitoring) and it is activated over the whole topology.
func (e *Engine) LinkRepaired(l topology.LinkID) []topology.LinkID {
	e.net.SetCorruption(l, 0)
	return e.Activate(l, Scope{})
}

// Reoptimize runs the activation step without any link state change,
// returning the links it disabled; exposed for periodic background
// optimization.
func (e *Engine) Reoptimize() ([]topology.LinkID, OptimizeStats) {
	return e.recheck(Scope{})
}

func (e *Engine) recheck(scope Scope) ([]topology.LinkID, OptimizeStats) {
	if e.opt != nil {
		return e.opt.RunScoped(e.threshold, scope.Links, scope.ToRs)
	}
	return sweep(e.net, e, e.threshold, scope.Links), OptimizeStats{}
}
