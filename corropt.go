// Package corropt is a full reimplementation of CorrOpt, the
// corruption-mitigation system of "Understanding and Mitigating Packet
// Corruption in Data Center Networks" (SIGCOMM 2017), together with every
// substrate its evaluation needs: Clos/fat-tree topologies with valley-free
// path counting, an optical-layer model, a root-cause fault injector, a
// congestion traffic model, SNMP-style telemetry, a ticket/technician
// repair workflow, and a discrete-event simulator.
//
// The package re-exports the user-facing API of the internal packages so
// that downstream code imports a single path:
//
//	topo, _ := corropt.NewClos(corropt.ClosConfig{ ... })
//	net, _ := corropt.NewNetwork(topo, 0.75)       // per-ToR capacity c
//	engine := corropt.NewEngine(net, corropt.EngineConfig{})
//
//	// A switch reports corruption; the fast checker decides instantly.
//	decision := engine.ReportCorruption(link, 1e-3)
//
//	// A repaired link comes back; the optimizer reconsiders the rest.
//	newlyDisabled := engine.LinkRepaired(link)
//
//	// Root-cause-aware repair recommendation (Algorithm 1).
//	action := corropt.Recommend(diagnostics)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// regenerated tables and figures.
package corropt

import (
	"corropt/internal/core"
	"corropt/internal/ctlplane"
	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/sim"
	"corropt/internal/topology"
)

// Topology modeling.
type (
	// Topology is an immutable multi-stage Clos network.
	Topology = topology.Topology
	// ClosConfig parameterizes the three-stage Clos generator.
	ClosConfig = topology.ClosConfig
	// Builder assembles arbitrary staged topologies.
	Builder = topology.Builder
	// SwitchID identifies a switch.
	SwitchID = topology.SwitchID
	// LinkID identifies a bidirectional link.
	LinkID = topology.LinkID
	// Direction selects one direction of a link.
	Direction = topology.Direction
	// PathCounter counts valley-free ToR→spine paths, with full-sweep,
	// scoped, and incremental (Apply/Revert delta) engines.
	PathCounter = topology.PathCounter
	// LinkSet is a bitset over LinkIDs, the hot-path representation of
	// disabled-link sets.
	LinkSet = topology.LinkSet
)

// Direction values.
const (
	Up   = topology.Up
	Down = topology.Down
)

// NewClos builds a three-stage Clos network.
func NewClos(cfg ClosConfig) (*Topology, error) { return topology.NewClos(cfg) }

// NewFatTree builds a canonical k-ary fat-tree.
func NewFatTree(k int) (*Topology, error) { return topology.NewFatTree(k) }

// NewBuilder returns a topology builder for custom layouts.
func NewBuilder() *Builder { return topology.NewBuilder() }

// NewPathCounter returns a valley-free path counter over t.
func NewPathCounter(t *Topology) *PathCounter { return topology.NewPathCounter(t) }

// NewLinkSet returns an empty link bitset sized for numLinks links.
func NewLinkSet(numLinks int) *LinkSet { return topology.NewLinkSet(numLinks) }

// Mitigation (the paper's contribution).
type (
	// Network is the mutable mitigation state: disabled links, corruption
	// records, per-ToR capacity constraints.
	Network = core.Network
	// Engine is the Figure 13 workflow — report, check, disable; repair,
	// enable, re-check — that the simulator, the fleet supervisor and the
	// control plane all drive.
	Engine = core.Engine
	// EngineConfig parameterizes an Engine.
	EngineConfig = core.EngineConfig
	// FastChecker is phase one: instant global-path-count decisions.
	FastChecker = core.FastChecker
	// Optimizer is phase two: the exact NP-complete search with pruning
	// and segmentation.
	Optimizer = core.Optimizer
	// OptimizeStats describes one optimizer run.
	OptimizeStats = core.OptimizeStats
	// SwitchLocal is the production baseline checker CorrOpt replaces.
	SwitchLocal = core.SwitchLocal
	// PenaltyFunc maps a corruption rate to application impact I(f).
	PenaltyFunc = core.PenaltyFunc
	// Decision records the outcome of a corruption report; its Reason
	// method explains a link that was kept.
	Decision = core.Decision
	// Diagnostics carries Algorithm 1's inputs for one corrupting link.
	Diagnostics = core.Diagnostics
)

// DefaultDetectionThreshold is the corruption rate that triggers
// mitigation (operators alarm near 1e-6, §2).
const DefaultDetectionThreshold = core.DefaultDetectionThreshold

// NewNetwork returns a fully-enabled Network with capacity constraint c
// for every ToR.
func NewNetwork(t *Topology, c float64) (*Network, error) { return core.NewNetwork(t, c) }

// NewEngine returns the CorrOpt engine over net.
func NewEngine(net *Network, cfg EngineConfig) *Engine { return core.NewEngine(net, cfg) }

// NewFastChecker returns phase one alone.
func NewFastChecker(net *Network) *FastChecker { return core.NewFastChecker(net) }

// OptimizerConfig is empty: pruning and segmentation are the algorithm,
// and its search limits are constants. It stays, with
// NewOptimizer's third parameter, only because the benchmark module under
// bench/ passes one.
type OptimizerConfig struct{}

// NewOptimizer returns phase two alone. The OptimizerConfig is ignored.
func NewOptimizer(net *Network, penalty PenaltyFunc, _ OptimizerConfig) *Optimizer {
	return core.NewOptimizer(net, penalty)
}

// NewSwitchLocal returns the baseline checker guaranteeing capacity c via
// sc = c^(1/r).
func NewSwitchLocal(net *Network, c float64) (*SwitchLocal, error) {
	return core.NewSwitchLocal(net, c)
}

// LinearPenalty is I(f) = f, the paper's evaluation penalty.
func LinearPenalty(rate float64) float64 { return core.LinearPenalty(rate) }

// TCPThroughputPenalty is a concave penalty following the TCP throughput
// law, for ablations.
func TCPThroughputPenalty(rate float64) float64 { return core.TCPThroughputPenalty(rate) }

// Recommend implements Algorithm 1: the root-cause-aware repair
// recommendation.
func Recommend(d Diagnostics) RepairAction { return core.Recommend(d) }

// RecommendDeployed is the simplified engine variant deployed across 70
// data centers (§7.2).
func RecommendDeployed(d Diagnostics) RepairAction { return core.Recommend(d.Deployed()) }

// Optics and faults.
type (
	// Technology describes a transceiver/fiber technology with its power
	// thresholds.
	Technology = optics.Technology
	// OpticalLink is the optical state of one link.
	OpticalLink = optics.Link
	// RootCause enumerates the five corruption root causes of Table 2.
	RootCause = faults.RootCause
	// RepairAction enumerates concrete repair actions.
	RepairAction = faults.RepairAction
	// Fault is one corruption event.
	Fault = faults.Fault
	// FaultState tracks optics and corruption rates under active faults.
	FaultState = faults.State
	// Injector generates faults with the paper's statistical shape.
	Injector = faults.Injector
	// InjectorConfig parameterizes fault generation.
	InjectorConfig = faults.InjectorConfig
)

// Root causes (Table 2).
const (
	ConnectorContamination = faults.ConnectorContamination
	DamagedFiber           = faults.DamagedFiber
	DecayingTransmitter    = faults.DecayingTransmitter
	BadTransceiver         = faults.BadTransceiver
	SharedComponent        = faults.SharedComponent
)

// Repair actions.
const (
	ActionUnknown                    = faults.ActionUnknown
	ActionCleanFiber                 = faults.ActionCleanFiber
	ActionReplaceFiber               = faults.ActionReplaceFiber
	ActionReseatTransceiver          = faults.ActionReseatTransceiver
	ActionReplaceTransceiver         = faults.ActionReplaceTransceiver
	ActionReplaceOppositeTransceiver = faults.ActionReplaceOppositeTransceiver
	ActionReplaceSharedComponent     = faults.ActionReplaceSharedComponent
)

// DefaultTechnologies returns representative optical technologies.
func DefaultTechnologies() []Technology { return optics.DefaultTechnologies() }

// NewFaultState returns a healthy fault state over t.
func NewFaultState(t *Topology, tech Technology) *FaultState { return faults.NewState(t, tech) }

// NewInjector returns a fault injector seeded deterministically.
func NewInjector(t *Topology, tech Technology, cfg InjectorConfig, seed uint64) (*Injector, error) {
	return faults.NewInjector(t, tech, cfg, rngutil.New(seed))
}

// Simulation.
type (
	// Sim replays fault traces against a mitigation policy (§7.1).
	Sim = sim.Sim
	// SimConfig parameterizes a simulation.
	SimConfig = sim.Config
	// SimResult aggregates one run.
	SimResult = sim.Result
	// PolicyKind selects the mitigation strategy under test.
	PolicyKind = core.PolicyKind
)

// Mitigation policies.
const (
	PolicyNone        = core.PolicyNone
	PolicySwitchLocal = core.PolicySwitchLocal
	PolicyFastOnly    = core.PolicyFastOnly
	PolicyCorrOpt     = core.PolicyCorrOpt
)

// NewSim builds a mitigation simulation.
func NewSim(t *Topology, tech Technology, cfg SimConfig) (*Sim, error) {
	return sim.New(t, tech, cfg)
}

// NP-hardness gadget (Appendix A).
type (
	// Formula is a 3-SAT instance.
	Formula = core.Formula
	// Clause is one 3-literal disjunction.
	Clause = core.Clause
	// Literal is ±v for variable v (1-based).
	Literal = core.Literal
	// Gadget is the Appendix A reduction instantiated for one formula.
	Gadget = core.Gadget
)

// BuildGadget constructs the Theorem 5.1 reduction for f: the optimizer
// can disable f.NumVars of the gadget's faulty links iff f is satisfiable.
func BuildGadget(f Formula) (*Gadget, error) { return core.BuildGadget(f) }

// Control plane.
type (
	// Controller serves the CorrOpt control plane over TCP.
	Controller = ctlplane.Controller
	// ControlClient is a switch agent's connection to the controller.
	ControlClient = ctlplane.Client
)

// NewController starts a control-plane server for engine on addr.
func NewController(addr string, engine *Engine) (*Controller, error) {
	return ctlplane.NewController(addr, engine)
}

// DialController connects an agent to a controller.
func DialController(addr string) (*ControlClient, error) {
	return ctlplane.DialConfig(addr, ctlplane.ClientConfig{})
}
