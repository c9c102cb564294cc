// Package scenario implements the declarative scenario DSL (DESIGN.md
// §7.6): a versioned, strictly-parsed JSON-subset format describing a
// topology, a chaos (random fault) profile, a timed event schedule, one or
// more mitigation-policy runs, and declarative assertions over the runs'
// results. Scenarios compile onto the existing sim + faults + core stack —
// the compiler produces a shared fault trace plus per-run sim.Configs, the
// executor replays every run on the pooled sim.Scratch worker pool — and
// each committed scenario under scenarios/ doubles as a golden-transcript
// regression test pinning the whole simulator surface byte-for-byte.
//
// Determinism: all randomness flows from the scenario's seed through
// rngutil substreams (the chaos stream for the injector, "sim" per run for
// repair outcomes), runs execute on runner.MapScratch with results
// collected in declaration order, and the transcript is assembled from
// those ordered results — so output is byte-identical for any worker count.
package scenario

import (
	"time"

	"corropt/internal/optics"
)

// Version is the scenario format version this package reads and writes.
const Version = 1

// Scenario is a fully decoded and default-filled scenario. The zero value
// is not valid; build one with Parse (which validates and fills defaults)
// or populate every field by hand and run it through Compile.
type Scenario struct {
	// Version is the format version; always Version after a Parse.
	Version int
	// Name identifies the scenario ([a-z0-9_]+); goldens live under
	// scenarios/golden/<name>.txt.
	Name string
	// Description is free-form prose for the transcript header.
	Description string
	// Seed is the root of every rngutil substream in the scenario.
	Seed uint64
	// Horizon is the simulated duration.
	Horizon time.Duration
	// SampleInterval is the output sampling cadence; default 1h.
	SampleInterval time.Duration
	// Topology describes the fabric to build.
	Topology Topology
	// Chaos optionally adds a random background fault trace.
	Chaos *Chaos
	// Events are the scheduled (deterministic) fault events.
	Events []Event
	// Runs are the policy configurations replayed against the shared
	// trace; at least one is required.
	Runs []Run
	// Assertions are checked against the runs' results.
	Assertions []Assertion
}

// Topology selects and sizes the fabric.
type Topology struct {
	// Kind is "clos" or "fattree".
	Kind string
	// Clos shape (Kind "clos").
	Pods, ToRsPerPod, AggsPerPod, Spines, SpineUplinksPerAgg, BreakoutSize int
	// K is the fat-tree arity (Kind "fattree").
	K int
}

// Chaos configures the random background fault trace. Zero values for the
// optional knobs mean the injector's defaults, exactly as when the
// experiment drivers build their traces.
type Chaos struct {
	// Stream names the rngutil substream the injector draws from; the
	// trace is rngutil.New(seed).Split(stream). Default "chaos".
	Stream string
	// FaultsPerLinkPerDay is the Poisson arrival intensity per link.
	FaultsPerLinkPerDay float64
	// MaxRate caps sampled corruption rates; 0 = injector default (0.1).
	MaxRate float64
	// SharedMinLinks/SharedMaxLinks bound shared-component fault spans;
	// 0 = injector defaults (2 and 4).
	SharedMinLinks, SharedMaxLinks int
}

// Event kinds.
const (
	// EventCorrupt starts corruption on one link at a fixed time.
	EventCorrupt = "corrupt"
	// EventRepair externally clears a labeled corrupt/breakout event.
	EventRepair = "repair"
	// EventFlap is a storm of short-lived corruption bursts on one link.
	EventFlap = "flap"
	// EventRamp is a stepwise optical-degradation trajectory on one link.
	EventRamp = "ramp"
	// EventBreakout corrupts a whole breakout-sibling group at once.
	EventBreakout = "breakout"
)

// Event is one scheduled entry; Kind decides which fields are meaningful
// (the decoder rejects fields that do not belong to the kind).
type Event struct {
	// Kind is one of the Event* constants.
	Kind string
	// Label optionally names a corrupt/breakout event so a repair event
	// can target it ("id" in the source form).
	Label string
	// At schedules corrupt, repair, and breakout events.
	At time.Duration
	// Link is the target link (corrupt, flap, ramp, and breakout — where
	// it seeds the sibling group).
	Link int
	// Rate is the direct corruption rate (corrupt, flap, breakout).
	Rate float64
	// Direction is "up", "down", or "both"; default "up".
	Direction string
	// Cause is the root-cause name (faults.RootCause.String) for corrupt
	// events; default faults.BadTransceiver's.
	Cause string
	// Target is the label a repair event clears.
	Target string
	// Start schedules flap and ramp events.
	Start time.Duration
	// Count is the number of flap bursts.
	Count int
	// Up and Down are the flap burst and gap durations.
	Up, Down time.Duration
	// Duration spans the ramp; Steps divides it; the rate interpolates
	// log-uniformly From → To across the steps.
	Duration time.Duration
	Steps    int
	From, To float64
}

// Run is one policy configuration replayed against the shared trace.
type Run struct {
	// Name identifies the run ([a-z0-9_]+, unique within the scenario).
	Name string
	// Policy names a core.PolicyKind by its String.
	Policy string
	// Capacity is the per-ToR constraint c; default 0.75.
	Capacity float64
	// DetectionThreshold triggers mitigation; default 1e-6.
	DetectionThreshold float64
	// DetectionDelay is monitoring latency; default 0.
	DetectionDelay time.Duration
	// RepairMode is "fixed" (fixed accuracy) or "recommendation"
	// (Algorithm 1 + technician); default "fixed".
	RepairMode string
	// Accuracy is the per-attempt success probability under "fixed";
	// default 0.8.
	Accuracy float64
	// IgnoreProb is the probability a recommendation is ignored.
	IgnoreProb float64
	// DeployedEngine swaps in the simplified deployed engine (§7.2).
	DeployedEngine bool
	// NoOpticsFraction is the fraction of links without optical data.
	NoOpticsFraction float64
	// DrainMode enables the §8 drain-instead-of-disable extension.
	DrainMode bool
	// RepairCollateral models breakout repair collateral (§8).
	RepairCollateral bool
	// ServiceTime is one repair attempt's duration; default 48h.
	ServiceTime time.Duration
	// Technicians bounds concurrent repairs; 0 = unlimited.
	Technicians int
	// Seed drives this run's repair randomness; defaults to the
	// scenario seed.
	Seed uint64
	// Dampening optionally enables link-flap dampening.
	Dampening *Dampening
}

// Dampening mirrors sim.DampeningConfig in the DSL.
type Dampening struct {
	Window   time.Duration
	Flaps    int
	Holddown time.Duration
}

// Assertion is one declarative check over the executed runs. Per-run
// metrics name one run; ratio metrics name two (numerator, denominator).
// At least one bound must be present.
type Assertion struct {
	// Metric names the quantity; DESIGN.md §7.6 lists the metrics.
	Metric string
	// Run is the subject of a per-run metric.
	Run string
	// Runs is the [numerator, denominator] pair of a ratio metric.
	Runs [2]string
	// Min and Max bound the value (inclusive); nil = unbounded.
	Min, Max *float64
}

// DefaultTech is the transceiver technology scenarios simulate with. It
// matches experiments.DefaultTech() — the differential test pins the two
// together — without making the compiler depend on the experiment drivers.
func DefaultTech() optics.Technology {
	return optics.Technology{Name: "40G-LR4", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
}
