// Package sim drives the trace-based mitigation simulations of §7: a fault
// trace replays against a topology while a mitigation policy (switch-local,
// fast checker only, or full CorrOpt) decides which corrupting links to
// disable; disabled links queue for repair; repairs succeed per the chosen
// repair model; re-enabled links trigger re-optimization. The simulator
// samples total penalty per second, the worst ToR's available-path
// fraction, and ticket statistics — the series behind Figures 14–19.
package sim

import (
	"fmt"
	"time"

	"corropt/internal/core"
	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/simclock"
	"corropt/internal/tickets"
	"corropt/internal/topology"
)

// PolicyKind selects the link-disabling strategy under test; the engine
// defines the strategies, the simulator only forwards the choice.
type PolicyKind = core.PolicyKind

// Mitigation policies.
const (
	PolicyNone        = core.PolicyNone
	PolicySwitchLocal = core.PolicySwitchLocal
	PolicyFastOnly    = core.PolicyFastOnly
	PolicyCorrOpt     = core.PolicyCorrOpt
)

// RepairMode selects how repair outcomes are decided.
type RepairMode int

const (
	// RepairFixedAccuracy resolves each attempt successfully with a fixed
	// probability, the model §7.1 uses (80% with CorrOpt's
	// recommendations, 50% without).
	RepairFixedAccuracy RepairMode = iota
	// RepairRecommendation plays the full loop: Algorithm 1 diagnoses the
	// symptoms, a technician follows or ignores the recommendation, and
	// the attempt succeeds only if the action taken fixes the true root
	// cause (§7.2).
	RepairRecommendation
)

// Config parameterizes one simulation run.
type Config struct {
	// Capacity is the per-ToR constraint c; default 0.75 (the realistic
	// regime the paper highlights).
	Capacity float64
	// Policy is the link-disabling strategy. The zero value is PolicyNone,
	// the do-nothing baseline; there is no default substitution.
	Policy PolicyKind
	// DetectionThreshold is the corruption rate that triggers
	// mitigation; default core.DefaultDetectionThreshold.
	DetectionThreshold float64
	// DetectionDelay is how long corruption runs before the controller
	// reacts — in production the SNMP poll interval plus alarm latency.
	// During the delay the link keeps corrupting application traffic,
	// which is the main way packets are lost to corruption even with
	// mitigation deployed (§2). Default 0 (instant detection).
	DetectionDelay time.Duration
	// Repair selects the repair model.
	Repair RepairMode
	// FixedAccuracy is the per-attempt success probability under
	// RepairFixedAccuracy; default 0.8.
	FixedAccuracy float64
	// IgnoreProb is the probability technicians ignore a recommendation
	// under RepairRecommendation (the early deployment measured ~30%,
	// §7.2); default 0 — recommendations are followed.
	IgnoreProb float64
	// UseDeployedEngine swaps in the simplified deployed recommendation
	// engine (§7.2) instead of full Algorithm 1.
	UseDeployedEngine bool
	// NoOpticsFraction is the fraction of links whose switches expose no
	// optical power data, so their tickets carry no recommendation (§7.2:
	// "we cannot get optical power information from all types of
	// switches"). Default 0.
	NoOpticsFraction float64
	// DrainMode enables the §8 extension "removing traffic instead of
	// disabling links": a mitigated link is drained (routing cost raised)
	// rather than shut down, so monitoring keeps flowing and a repair can
	// be verified with test traffic before the link carries real load
	// again. A failed repair is then detected without re-exposing
	// applications, eliminating the Figure 12 re-enable/re-corrupt cycle.
	DrainMode bool
	// RepairCollateral models the §8 observation that repairing one link
	// of a breakout cable takes its (healthy) sibling links down for the
	// duration of the repair.
	RepairCollateral bool
	// TechAssign optionally assigns per-link transceiver technologies
	// (real fabrics mix 10G/40G/100G optics with different power
	// thresholds); nil uses the technology passed to New for every link.
	TechAssign func(topology.LinkID) optics.Technology
	// ServiceTime is one repair attempt's duration; default 48h.
	ServiceTime time.Duration
	// Technicians bounds concurrent repairs; 0 = unlimited.
	Technicians int
	// Dampening enables link-flap dampening (see DampeningConfig); nil
	// disables it. The pointed-to config is read, never written.
	Dampening *DampeningConfig
	// SampleInterval is the penalty sampling cadence; default 1h.
	SampleInterval time.Duration
	// Penalty is the impact function; default core.LinearPenalty.
	Penalty core.PenaltyFunc
	// Optimizer tunes PolicyCorrOpt's second phase.
	Optimizer core.OptimizerConfig
	// Seed drives repair-outcome randomness.
	Seed uint64
}

func (c *Config) fillDefaults() {
	if c.Capacity == 0 {
		c.Capacity = 0.75
	}
	if c.DetectionThreshold == 0 {
		c.DetectionThreshold = core.DefaultDetectionThreshold
	}
	if c.FixedAccuracy == 0 {
		c.FixedAccuracy = 0.8
	}
	if c.ServiceTime == 0 {
		c.ServiceTime = 48 * time.Hour
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = time.Hour
	}
	if c.Penalty == nil {
		c.Penalty = core.LinearPenalty
	}
}

// Sample is one point of the simulation's output series.
type Sample struct {
	At time.Duration
	// Penalty is Σ (1-d_l)·I(f_l) at this instant (penalty per second
	// under the linear I).
	Penalty float64
	// WorstToRFraction and MeanToRFraction are the available-path
	// fractions of Figures 15/16 and §7.3.
	WorstToRFraction float64
	MeanToRFraction  float64
	// ActiveCorrupting counts enabled links over the detection threshold.
	ActiveCorrupting int
	// Disabled counts administratively-down links.
	Disabled int
}

// Result aggregates one run.
type Result struct {
	Samples []Sample
	// IntegratedPenalty is ∫ penalty dt over the horizon, in
	// penalty·seconds — the quantity Figure 17 takes ratios of. The
	// integral is exact (advanced at every penalty-changing event), so
	// exposure windows shorter than the sample interval are included.
	IntegratedPenalty float64
	// PenaltyPerDay is the same integral bucketed by simulated day;
	// multiplied by utilization × line rate it yields packets lost per
	// day to corruption (Figure 1's quantity).
	PenaltyPerDay []float64
	// TicketsOpened counts repair attempts; LinksDisabled counts disable
	// actions (both directions count once).
	TicketsOpened, LinksDisabled int
	// FirstAttemptSuccessRate and MeanAttempts summarize repairs.
	FirstAttemptSuccessRate float64
	MeanAttempts            float64
	// UndisabledEvents counts corruption reports the policy had to leave
	// active due to capacity constraints (§5.1 reports up to 15% in
	// realistic configurations).
	UndisabledEvents int
	// CorruptionReports counts above-threshold corruption reports.
	CorruptionReports int
	// DampenedHolds counts successful repairs whose re-enable was held
	// back by flap dampening (Config.Dampening).
	DampenedHolds int
}

// Sim is one configured simulation.
type Sim struct {
	cfg    Config
	topo   *topology.Topology
	state  *faults.State
	net    *core.Network
	eng    *core.Engine
	queue  *tickets.Queue
	tech   *tickets.Technician
	clock  *simclock.Clock
	rng    *rngutil.Source
	result Result
	// ran guards the one-shot Run contract: a second Run on the same Sim
	// would re-register the periodic sampler and re-accrue into the shared
	// result, silently corrupting both runs' outputs.
	ran bool

	// reseated tracks links whose transceiver was reseated since the last
	// successful repair (Algorithm 1's history input).
	reseated map[topology.LinkID]bool
	// ticketed marks links with an open ticket so overlapping faults on a
	// disabled link do not double-book repairs.
	ticketed map[topology.LinkID]bool
	// collateral counts, per healthy link, how many in-progress breakout
	// repairs are holding it down (RepairCollateral mode).
	collateral map[topology.LinkID]int
	// flapAt and dampUntil back flap dampening (Config.Dampening): recent
	// detection times per link, and the holddown expiry armed once the flap
	// count trips. Allocated only when dampening is enabled; deliberately
	// not pooled in Scratch — the maps are tiny (flapping links only) and
	// dampening runs are the exception, not the steady state.
	flapAt    map[topology.LinkID][]time.Duration
	dampUntil map[topology.LinkID]time.Duration

	// Exact penalty integration: lastPenalty held since lastAccrueAt; the
	// integral advances at every penalty-changing event, not just at
	// sample instants, so sub-sample exposure windows (e.g. the detection
	// delay) are accounted for exactly.
	lastAccrueAt time.Duration
	lastPenalty  float64
}

// New builds a simulation over the topology and transceiver technology with
// freshly allocated internals. It is NewWithScratch with a nil Scratch and
// remains the reference construction path the scratch differential tests
// compare against.
func New(topo *topology.Topology, tech optics.Technology, cfg Config) (*Sim, error) {
	return NewWithScratch(topo, tech, cfg, nil)
}

// NewWithScratch builds a simulation like New but, with a non-nil sc,
// borrows the Scratch's pooled internals (clock, ticket queue, bookkeeping
// maps, per-topology Network and fault State) instead of allocating fresh
// ones. The pooled state is reset to exactly the fresh-construction state,
// so a scratch-backed Sim's Run output is bit-identical to New's for the
// same inputs. Building a new Sim from sc invalidates every Sim previously
// built from it; see Scratch for the ownership rules.
func NewWithScratch(topo *topology.Topology, tech optics.Technology, cfg Config, sc *Scratch) (*Sim, error) {
	cfg.fillDefaults()
	assign := cfg.TechAssign
	if assign == nil {
		assign = func(topology.LinkID) optics.Technology { return tech }
	}
	s := &Sim{
		cfg:  cfg,
		topo: topo,
		rng:  rngutil.New(cfg.Seed).Split("sim"),
	}
	if sc == nil {
		net, err := core.NewNetwork(topo, cfg.Capacity)
		if err != nil {
			return nil, err
		}
		s.net = net
		s.state = faults.NewMultiTechState(topo, assign)
		s.queue = tickets.NewQueue(tickets.QueueConfig{ServiceTime: cfg.ServiceTime, Technicians: cfg.Technicians})
		s.clock = simclock.New()
		s.reseated = make(map[topology.LinkID]bool)
		s.ticketed = make(map[topology.LinkID]bool)
		s.collateral = make(map[topology.LinkID]int)
	} else {
		ts, err := sc.pool(topo, cfg.Capacity, assign)
		if err != nil {
			return nil, err
		}
		s.net = ts.net
		s.state = ts.state
		sc.queue.Reset(tickets.QueueConfig{ServiceTime: cfg.ServiceTime, Technicians: cfg.Technicians, Quiet: true})
		s.queue = sc.queue
		sc.clock.Reset()
		s.clock = sc.clock
		clear(sc.reseated)
		clear(sc.ticketed)
		clear(sc.collateral)
		s.reseated = sc.reseated
		s.ticketed = sc.ticketed
		s.collateral = sc.collateral
	}
	if cfg.Dampening != nil {
		if err := cfg.Dampening.validate(); err != nil {
			return nil, err
		}
		s.flapAt = make(map[topology.LinkID][]time.Duration)
		s.dampUntil = make(map[topology.LinkID]time.Duration)
	}
	// Incremental penalty accounting: the network maintains Σ (1-d_l)·I(f_l)
	// as O(1)-updatable state, so settle/sample read it instead of
	// rescanning every link per event.
	s.net.RegisterPenalty(cfg.Penalty)
	s.tech = tickets.NewTechnician(1-cfg.IgnoreProb, s.rng.Split("technician"))
	eng, err := core.NewPolicyEngine(s.net, cfg.Policy, core.EngineConfig{
		DetectionThreshold: cfg.DetectionThreshold,
		Penalty:            cfg.Penalty,
		Optimizer:          cfg.Optimizer,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.eng = eng
	return s, nil
}

// Network exposes the simulated network state (read-only use expected).
func (s *Sim) Network() *core.Network { return s.net }

// State exposes the ground-truth fault state.
func (s *Sim) State() *faults.State { return s.state }

// Run replays the fault trace until horizon and returns the result.
//
// Run is one-shot: a Sim accumulates its event queue, ticket state, and
// penalty integral across the run, so replaying on the same Sim would
// double-register the periodic sampler and re-accrue into the shared
// result. Build a fresh Sim (with the same Config and Seed for identical
// output) to run again; a second Run returns an error.
func (s *Sim) Run(trace []*faults.Fault, horizon time.Duration) (*Result, error) {
	return s.RunEvents(trace, nil, horizon)
}

// syncRate mirrors ground truth into the policy-visible network record.
// Rates under the IEEE 802.3 lossy floor are indistinguishable from a
// healthy link and mirror as zero.
func (s *Sim) syncRate(l topology.LinkID) {
	rate := s.state.WorstRate(l)
	if rate < core.LossyFloor {
		rate = 0
	}
	s.net.SetCorruption(l, rate)
}

// accrue advances the penalty integral to now; callers mutate state after.
//
//lint:hotpath runs before every event mutation and every sample
func (s *Sim) accrue(now time.Duration) {
	s.result.IntegratedPenalty += s.lastPenalty * (now - s.lastAccrueAt).Seconds()
	// Bucket by day, splitting intervals across midnight boundaries.
	const day = 24 * time.Hour
	for at := s.lastAccrueAt; at < now; {
		end := (at/day + 1) * day
		if end > now {
			end = now
		}
		// d is unsigned so both indexed adds below need only the upper bound,
		// which the guard (hot) and the grow loop's exit condition (cold)
		// each prove — the compiler inserts no bounds check on either line,
		// which the escapes analyzer holds hot-path inner loops to. at >= 0
		// always (lastAccrueAt only ever advances from zero).
		d := uint(at / day)
		ppd := s.result.PenaltyPerDay
		if d < uint(len(ppd)) {
			ppd[d] += s.lastPenalty * (end - at).Seconds()
		} else {
			// Cold: first interval of a new simulated day.
			for uint(len(ppd)) <= d {
				//lint:allow hotalloc grows once per simulated day, not per event
				ppd = append(ppd, 0)
			}
			ppd[d] += s.lastPenalty * (end - at).Seconds()
			s.result.PenaltyPerDay = ppd
		}
		at = end
	}
	s.lastAccrueAt = now
}

// settle records the post-mutation penalty level. O(1): the network
// maintains the penalty sum incrementally (no per-event rescan of the
// corrupting-link set).
//
//lint:hotpath runs after every event mutation
func (s *Sim) settle() {
	s.lastPenalty = s.net.PenaltySum()
}

func (s *Sim) onFault(f *faults.Fault, now time.Duration) {
	s.accrue(now)
	defer s.settle()
	s.state.Apply(f)
	// Iterate Effects directly instead of f.Links(): Links() allocates a
	// fresh slice per call, and onFault runs once per trace fault.
	for _, e := range f.Effects {
		l := e.Link
		s.syncRate(l)
		s.monitor(l, now)
	}
}

// monitor models the monitoring system noticing link l: detection runs at
// once, or — with a DetectionDelay, the polling latency during which
// application traffic stays exposed — after the delay, on the rate as it is
// by then.
func (s *Sim) monitor(l topology.LinkID, now time.Duration) {
	if s.cfg.DetectionDelay <= 0 {
		s.detect(l, now)
		return
	}
	s.clock.After(s.cfg.DetectionDelay, func(at time.Duration) {
		s.accrue(at)
		defer s.settle()
		s.syncRate(l) // the fault may have evolved meanwhile
		s.detect(l, at)
	})
}

// detect reports link l's mirrored rate to the engine and books what the
// simulator owns of the outcome: the counters, the flap window, the ticket.
func (s *Sim) detect(l topology.LinkID, now time.Duration) {
	d := s.eng.ReportCorruption(l, s.net.CorruptionRate(l))
	switch d.Outcome {
	case core.OutcomeBelowThreshold, core.OutcomeAlreadyDisabled:
		return
	}
	s.result.CorruptionReports++
	if s.cfg.Dampening != nil {
		s.noteFlap(l, now)
	}
	if d.Disabled {
		s.result.LinksDisabled++
		s.openTicket(l, now)
	} else {
		s.result.UndisabledEvents++
	}
}

// activate returns link l to service and tickets every link the engine's
// activation step disables in response. The recorded rate stays what
// syncRate mirrored: a sub-threshold residual keeps accruing penalty.
func (s *Sim) activate(l topology.LinkID, now time.Duration) {
	for _, nl := range s.eng.Activate(l, core.Scope{}) {
		s.result.LinksDisabled++
		s.openTicket(nl, now)
	}
}

// openTicket books a repair for the (just disabled) link l.
func (s *Sim) openTicket(l topology.LinkID, now time.Duration) {
	if s.ticketed[l] {
		return
	}
	s.ticketed[l] = true
	rec := faults.ActionUnknown
	if s.cfg.Repair == RepairRecommendation && !s.noOptics(l) {
		if d, ok := core.DiagnoseState(s.state, l, s.cfg.DetectionThreshold, s.reseated[l]); ok {
			if s.cfg.UseDeployedEngine {
				rec = core.RecommendDeployed(d)
			} else {
				rec = core.Recommend(d)
			}
		}
	}
	tk, done := s.queue.Open(l, rec, now)
	s.result.TicketsOpened++
	if s.cfg.RepairCollateral {
		// Working on one link of a breakout cable takes its healthy
		// siblings down for the duration of the repair (§8).
		for _, sib := range s.topo.SameBreakout(l) {
			if sib == l || s.net.Disabled(sib) {
				continue
			}
			s.collateral[sib]++
			s.net.Disable(sib)
		}
	}
	s.clock.After(done-now, func(at time.Duration) { s.completeRepair(tk, at) })
}

// releaseCollateral re-enables healthy siblings held down by l's repair.
func (s *Sim) releaseCollateral(l topology.LinkID) {
	if !s.cfg.RepairCollateral {
		return
	}
	for _, sib := range s.topo.SameBreakout(l) {
		if sib == l || s.collateral[sib] == 0 {
			continue
		}
		s.collateral[sib]--
		if s.collateral[sib] == 0 {
			delete(s.collateral, sib)
			s.net.Enable(sib)
		}
	}
}

// completeRepair finishes a repair attempt: decide the action and its
// outcome, update ground truth, re-enable the link, and let the policy
// react to the activation.
func (s *Sim) completeRepair(tk *tickets.Ticket, now time.Duration) {
	s.accrue(now)
	defer s.settle()
	l := tk.Link
	action := faults.ActionUnknown
	switch s.cfg.Repair {
	case RepairFixedAccuracy:
		if s.rng.Bool(s.cfg.FixedAccuracy) {
			s.state.RepairLink(l)
		}
	case RepairRecommendation:
		action = s.tech.ChooseAction(tk, s.primaryCause(l))
		s.applyAction(l, action)
	}
	s.syncRate(l)
	success := s.net.CorruptionRate(l) < s.cfg.DetectionThreshold
	if err := s.queue.Resolve(tk, now, action, success); err != nil {
		panic(err) // tickets are owned solely by the sim; double resolution is a bug
	}
	delete(s.ticketed, l)
	if success {
		delete(s.reseated, l)
	}
	s.releaseCollateral(l)

	if !success {
		if s.cfg.DrainMode {
			// §8 extension: the link was only drained, so test traffic
			// exposes the failed repair without ever putting application
			// traffic back on it — no corruption exposure, straight to
			// the next attempt.
			s.openTicket(l, now)
			return
		}
		// Figure 12's loop: the link corrupts as soon as it is enabled,
		// monitoring re-detects it (after the usual polling latency, with
		// application traffic exposed meanwhile), and a fresh ticket adds
		// two more days.
		s.net.Enable(l)
		s.monitor(l, now)
		return
	}
	if s.cfg.Dampening != nil {
		if until, ok := s.dampUntil[l]; ok && until > now {
			// Flap dampening: the link repaired healthy but crossed the flap
			// threshold recently, so hold it down until the holddown expires
			// instead of re-enabling into the next flap.
			s.result.DampenedHolds++
			s.clock.After(until-now, func(at time.Duration) { s.releaseDampened(l, at) })
			return
		}
	}
	// A real activation: the policy may now disable other corrupting
	// links that previously had to stay up.
	s.activate(l, now)
}

// noOptics reports whether link l's switches expose no optical power data;
// the assignment is deterministic per link so one switch type covers whole
// regions consistently.
func (s *Sim) noOptics(l topology.LinkID) bool {
	if s.cfg.NoOpticsFraction <= 0 {
		return false
	}
	// Deterministic hash of (seed, link) into [0,1).
	x := uint64(l)*0x9e3779b97f4a7c15 + s.cfg.Seed
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return float64(x%1000)/1000 < s.cfg.NoOpticsFraction
}

// primaryCause returns the root cause of the worst active fault on l, the
// condition a technician physically encounters.
func (s *Sim) primaryCause(l topology.LinkID) faults.RootCause {
	var cause faults.RootCause
	bestRate := -1.0
	for _, f := range s.state.ActiveFaults(l) {
		r := f.PeakRate()
		if r > bestRate {
			bestRate = r
			cause = f.Cause
		}
	}
	return cause
}

// applyAction updates ground truth for a concrete repair action: it fixes
// exactly the faults the action addresses. Replacing a shared component
// repairs the whole fault across links; everything else is link-scoped.
func (s *Sim) applyAction(l topology.LinkID, action faults.RepairAction) {
	if action == faults.ActionReseatTransceiver {
		s.reseated[l] = true
	}
	active := append([]*faults.Fault(nil), s.state.ActiveFaults(l)...)
	for _, f := range active {
		if !tickets.ActionFixesFault(action, f) {
			continue
		}
		if f.Cause == faults.SharedComponent && action == faults.ActionReplaceSharedComponent {
			links := f.Links()
			s.state.Clear(f.ID)
			for _, fl := range links {
				s.syncRate(fl)
			}
		} else {
			s.state.SuppressLinkEffect(f.ID, l)
		}
	}
}

// sample records one output point.
//
//lint:hotpath runs once per sampling interval over the whole trace
func (s *Sim) sample(now time.Duration) {
	s.accrue(now)
	p := s.net.PenaltySum()
	s.lastPenalty = p
	worst, mean := s.net.ToRFractions()
	//lint:allow hotalloc Samples is the output series; one append per sample interval
	s.result.Samples = append(s.result.Samples, Sample{
		At:               now,
		Penalty:          p,
		WorstToRFraction: worst,
		MeanToRFraction:  mean,
		ActiveCorrupting: s.net.NumActiveCorrupting(s.cfg.DetectionThreshold),
		Disabled:         s.net.NumDisabled(),
	})
}
