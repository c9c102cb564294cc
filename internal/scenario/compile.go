package scenario

import (
	"fmt"
	"math"
	"slices"
	"time"

	"corropt/internal/core"
	"corropt/internal/faults"
	"corropt/internal/rngutil"
	"corropt/internal/sim"
	"corropt/internal/topology"
)

// eventIDBase keeps scheduled-event fault IDs disjoint from the injector's
// sequential chaos-trace IDs: a merged trace can never collide.
const eventIDBase faults.ID = 1 << 40

// Compiled is a scenario lowered onto the simulator's inputs: the built
// topology, the merged (chaos + scheduled-event) fault trace sorted by
// start time, the external clears, and one sim.Config per run. A Compiled
// value is immutable once built and safe to Execute concurrently — runs
// share the trace exactly like the experiment drivers share theirs.
type Compiled struct {
	Scenario *Scenario
	Topo     *topology.Topology
	Trace    []*faults.Fault
	Clears   []sim.Clear
	// ChaosFaults and EventFaults split the trace by origin (ChaosFaults
	// from the random injector, EventFaults expanded from the schedule).
	ChaosFaults, EventFaults int
	Runs                     []CompiledRun
}

// CompiledRun pairs a run's name with its ready-to-go sim configuration.
type CompiledRun struct {
	Name   string
	Config sim.Config
}

// Compile validates a scenario's cross-field constraints (link ranges,
// breakout groups) against the built topology and lowers it onto the sim
// stack. The CLI's `validate` subcommand is Parse + Compile.
func Compile(s *Scenario) (*Compiled, error) {
	topo, err := buildTopology(&s.Topology)
	if err != nil {
		return nil, err
	}
	c := &Compiled{Scenario: s, Topo: topo}

	if s.Chaos != nil {
		inj, err := faults.NewInjector(topo, DefaultTech(), faults.InjectorConfig{
			FaultsPerLinkPerDay: s.Chaos.FaultsPerLinkPerDay,
			MaxRate:             s.Chaos.MaxRate,
			SharedMinLinks:      s.Chaos.SharedMinLinks,
			SharedMaxLinks:      s.Chaos.SharedMaxLinks,
		}, rngutil.New(s.Seed).Split(s.Chaos.Stream))
		if err != nil {
			return nil, fmt.Errorf("scenario %q: chaos profile: %w", s.Name, err)
		}
		c.Trace = inj.Generate(s.Horizon)
		c.ChaosFaults = len(c.Trace)
	}

	eventFaults, clears, err := expandEvents(s, topo)
	if err != nil {
		return nil, err
	}
	c.EventFaults = len(eventFaults)
	c.Trace = append(c.Trace, eventFaults...)
	// Total order on (start, ID): the injector's trace is time-sorted with
	// sequential IDs and event faults sit above eventIDBase, so the merge
	// is deterministic and chaos faults win same-instant ties.
	slices.SortFunc(c.Trace, func(a, b *faults.Fault) int {
		if a.Start != b.Start {
			if a.Start < b.Start {
				return -1
			}
			return 1
		}
		if a.ID != b.ID {
			if a.ID < b.ID {
				return -1
			}
			return 1
		}
		return 0
	})
	c.Clears = clears
	slices.SortFunc(c.Clears, func(a, b sim.Clear) int {
		if a.At != b.At {
			if a.At < b.At {
				return -1
			}
			return 1
		}
		return int(a.Fault - b.Fault)
	})

	for i := range s.Runs {
		r := &s.Runs[i]
		cfg, err := runConfig(s, r)
		if err != nil {
			return nil, err
		}
		c.Runs = append(c.Runs, CompiledRun{Name: r.Name, Config: cfg})
	}
	return c, nil
}

func buildTopology(t *Topology) (*topology.Topology, error) {
	switch t.Kind {
	case "clos":
		return topology.NewClos(topology.ClosConfig{
			Pods:               t.Pods,
			ToRsPerPod:         t.ToRsPerPod,
			AggsPerPod:         t.AggsPerPod,
			Spines:             t.Spines,
			SpineUplinksPerAgg: t.SpineUplinksPerAgg,
			BreakoutSize:       t.BreakoutSize,
		})
	case "fattree":
		return topology.NewFatTree(t.K)
	default:
		return nil, fmt.Errorf("scenario: unknown topology kind %q", t.Kind)
	}
}

func runConfig(s *Scenario, r *Run) (sim.Config, error) {
	cfg := sim.Config{
		Capacity:           r.Capacity,
		DetectionThreshold: r.DetectionThreshold,
		DetectionDelay:     r.DetectionDelay,
		FixedAccuracy:      r.Accuracy,
		IgnoreProb:         r.IgnoreProb,
		UseDeployedEngine:  r.DeployedEngine,
		NoOpticsFraction:   r.NoOpticsFraction,
		DrainMode:          r.DrainMode,
		RepairCollateral:   r.RepairCollateral,
		ServiceTime:        r.ServiceTime,
		Technicians:        r.Technicians,
		SampleInterval:     s.SampleInterval,
		Seed:               r.Seed,
	}
	policy, ok := core.PolicyByName(r.Policy)
	if !ok {
		return cfg, fmt.Errorf("scenario %q: run %q: unknown policy %q", s.Name, r.Name, r.Policy)
	}
	cfg.Policy = policy
	switch r.RepairMode {
	case "fixed":
		cfg.Repair = sim.RepairFixedAccuracy
	case "recommendation":
		cfg.Repair = sim.RepairRecommendation
	default:
		return cfg, fmt.Errorf("scenario %q: run %q: unknown repair mode %q", s.Name, r.Name, r.RepairMode)
	}
	if r.Dampening != nil {
		cfg.Dampening = &sim.DampeningConfig{
			Window:   r.Dampening.Window,
			Flaps:    r.Dampening.Flaps,
			Holddown: r.Dampening.Holddown,
		}
	}
	return cfg, nil
}

// expandEvents lowers the schedule onto faults and clears. Every fault an
// event produces gets the next ID above eventIDBase, assigned in schedule
// order, so expansion is deterministic.
func expandEvents(s *Scenario, topo *topology.Topology) ([]*faults.Fault, []sim.Clear, error) {
	var trace []*faults.Fault
	var clears []sim.Clear
	nextID := eventIDBase
	labelID := make(map[string]faults.ID)

	checkLink := func(i, link int) (topology.LinkID, error) {
		if link >= topo.NumLinks() {
			return 0, fmt.Errorf("scenario %q: events[%d]: link %d out of range (topology has %d links)",
				s.Name, i, link, topo.NumLinks())
		}
		return topology.LinkID(link), nil
	}
	directRate := func(dir string, rate float64) [2]float64 {
		switch dir {
		case "down":
			return [2]float64{0, rate}
		case "both":
			return [2]float64{rate, rate}
		default:
			return [2]float64{rate, 0}
		}
	}
	addFault := func(f *faults.Fault, label string) {
		f.ID = nextID
		nextID++
		trace = append(trace, f)
		if label != "" {
			labelID[label] = f.ID
		}
	}

	for i := range s.Events {
		ev := &s.Events[i]
		switch ev.Kind {
		case EventCorrupt:
			l, err := checkLink(i, ev.Link)
			if err != nil {
				return nil, nil, err
			}
			cause, ok := faults.CauseByName(ev.Cause)
			if !ok {
				return nil, nil, fmt.Errorf("scenario %q: events[%d]: unknown cause %q", s.Name, i, ev.Cause)
			}
			addFault(&faults.Fault{
				Cause:   cause,
				Start:   ev.At,
				Effects: []faults.LinkEffect{{Link: l, DirectRate: directRate(ev.Direction, ev.Rate)}},
			}, ev.Label)
		case EventRepair:
			id, ok := labelID[ev.Target]
			if !ok {
				// The decoder verified the label exists somewhere in the
				// schedule; it must therefore appear later. Resolve it in a
				// second pass below.
				clears = append(clears, sim.Clear{At: ev.At, Fault: -faults.ID(i) - 1})
				continue
			}
			clears = append(clears, sim.Clear{At: ev.At, Fault: id})
		case EventFlap:
			l, err := checkLink(i, ev.Link)
			if err != nil {
				return nil, nil, err
			}
			period := ev.Up + ev.Down
			for n := 0; n < ev.Count; n++ {
				start := ev.Start + time.Duration(n)*period
				f := &faults.Fault{
					Cause:      faults.BadTransceiver,
					Start:      start,
					Reseatable: true, // a flapping link is the loose-transceiver case
					Effects:    []faults.LinkEffect{{Link: l, DirectRate: directRate(ev.Direction, ev.Rate)}},
				}
				addFault(f, "")
				clears = append(clears, sim.Clear{At: start + ev.Up, Fault: f.ID})
			}
		case EventRamp:
			l, err := checkLink(i, ev.Link)
			if err != nil {
				return nil, nil, err
			}
			step := ev.Duration / time.Duration(ev.Steps)
			if step <= 0 {
				return nil, nil, fmt.Errorf("scenario %q: events[%d]: ramp duration %v too short for %d steps",
					s.Name, i, ev.Duration, ev.Steps)
			}
			for n := 0; n < ev.Steps; n++ {
				// Rates interpolate log-uniformly from → to, matching how
				// optical degradation compounds multiplicatively; the final
				// step holds `to` and persists until repaired.
				frac := float64(n) / float64(ev.Steps-1)
				rate := ev.From * math.Pow(ev.To/ev.From, frac)
				start := ev.Start + time.Duration(n)*step
				f := &faults.Fault{
					Cause:   faults.DecayingTransmitter,
					Start:   start,
					Effects: []faults.LinkEffect{{Link: l, DirectRate: directRate(ev.Direction, rate)}},
				}
				addFault(f, "")
				if n < ev.Steps-1 {
					// Each step is replaced by the next: the clear lands at
					// the same instant and RunEvents resolves clear-first.
					clears = append(clears, sim.Clear{At: start + step, Fault: f.ID})
				}
			}
		case EventBreakout:
			l, err := checkLink(i, ev.Link)
			if err != nil {
				return nil, nil, err
			}
			group := topo.SameBreakout(l)
			if len(group) < 2 {
				return nil, nil, fmt.Errorf("scenario %q: events[%d]: link %d has no breakout siblings (group size %d)",
					s.Name, i, ev.Link, len(group))
			}
			effects := make([]faults.LinkEffect, len(group))
			for j, gl := range group {
				effects[j] = faults.LinkEffect{Link: gl, DirectRate: directRate(ev.Direction, ev.Rate)}
			}
			addFault(&faults.Fault{Cause: faults.SharedComponent, Start: ev.At, Effects: effects}, ev.Label)
		default:
			return nil, nil, fmt.Errorf("scenario %q: events[%d]: unknown kind %q", s.Name, i, ev.Kind)
		}
	}
	// Second pass: resolve repairs that targeted forward declarations.
	for j := range clears {
		if clears[j].Fault < 0 {
			i := int(-clears[j].Fault - 1)
			id, ok := labelID[s.Events[i].Target]
			if !ok {
				return nil, nil, fmt.Errorf("scenario %q: events[%d]: repair targets unknown event id %q",
					s.Name, i, s.Events[i].Target)
			}
			clears[j].Fault = id
		}
	}
	return trace, clears, nil
}
