package sim

import (
	"fmt"
	"time"

	"corropt/internal/core"
	"corropt/internal/faults"
	"corropt/internal/topology"
)

// Clear is an externally scheduled fault removal: at virtual time At, the
// ground-truth fault with the given ID stops on its own, without a repair
// ticket being worked. This is the event-path primitive behind scenario
// families the plain trace replay cannot express — link-flap storms (a
// loose connector corrupts intermittently), optical-degradation
// trajectories (each ramp step replaces the previous one), and transient
// environmental faults. A Clear whose fault is not currently active (never
// applied, already repaired, or already cleared) is a no-op.
type Clear struct {
	At    time.Duration
	Fault faults.ID
}

// RunEvents replays the fault trace plus externally scheduled fault clears
// until horizon and returns the result. Both lists must be sorted by time
// and start at or after t=0; the first event out of order is an error, and
// nothing runs. A clear and a fault at the same instant resolve clear-first
// — the replace semantics degradation ramps rely on — and both fire before
// anything the run itself scheduled for that instant (repair completions,
// delayed detections, the sampler). Like Run, RunEvents is one-shot;
// Run(trace, horizon) is RunEvents(trace, nil, horizon).
//
// The two lists are not copied into the event queue: they are streamed, as
// two cursors merged with the clock's own events (simclock.RunBefore).
func (s *Sim) RunEvents(trace []*faults.Fault, clears []Clear, horizon time.Duration) (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("sim: Run called twice on the same Sim; Sim is one-shot — build a new Sim to replay")
	}
	if err := checkSorted(trace, clears); err != nil {
		return nil, err
	}
	s.ran = true
	// Size the output series up front: one sample per interval plus the t=0
	// and horizon points, one penalty bucket per simulated day. Saves the
	// append-growth reallocations on every scenario.
	s.result.Samples = make([]Sample, 0, horizon/s.cfg.SampleInterval+2)
	s.result.PenaltyPerDay = make([]float64, 0, horizon/(24*time.Hour)+1)
	s.clock.Every(s.cfg.SampleInterval, s.sample)
	s.sample(0)
	for {
		haveClear := len(clears) > 0 && clears[0].At < horizon
		haveFault := len(trace) > 0 && trace[0].Start < horizon
		if haveClear && (!haveFault || clears[0].At <= trace[0].Start) {
			s.clock.RunBefore(clears[0].At)
			s.onClear(clears[0].Fault, clears[0].At)
			clears = clears[1:]
		} else if haveFault {
			s.clock.RunBefore(trace[0].Start)
			s.onFault(trace[0], trace[0].Start)
			trace = trace[1:]
		} else {
			break
		}
	}
	s.clock.RunUntil(horizon)
	s.finish(horizon)
	return &s.result, nil
}

// finish closes the penalty integral at the horizon and reads the repair
// statistics.
func (s *Sim) finish(horizon time.Duration) {
	s.accrue(horizon)
	ts := s.loop.TicketStats()
	s.result.FirstAttemptSuccessRate = ts.FirstAttemptSuccessRate
	s.result.MeanAttempts = ts.MeanAttempts
}

// checkSorted requires the trace sorted by Start and the clears by At, with
// no time before t=0, and names the first event that breaks either rule.
func checkSorted(trace []*faults.Fault, clears []Clear) error {
	for i, f := range trace {
		if f.Start < 0 {
			return fmt.Errorf("sim: trace fault %d starts at %v, before t=0", i, f.Start)
		}
		if i > 0 && f.Start < trace[i-1].Start {
			return fmt.Errorf("sim: trace not sorted: fault %d starts at %v, before fault %d at %v", i, f.Start, i-1, trace[i-1].Start)
		}
	}
	for i, c := range clears {
		if c.At < 0 {
			return fmt.Errorf("sim: clear %d at %v, before t=0", i, c.At)
		}
		if i > 0 && c.At < clears[i-1].At {
			return fmt.Errorf("sim: clears not sorted: clear %d at %v, before clear %d at %v", i, c.At, i-1, clears[i-1].At)
		}
	}
	return nil
}

// onClear removes a still-active fault from ground truth without touching
// the ticket workflow. Links the fault held over the detection threshold
// fall back to whatever their remaining faults produce; a repair in flight
// for such a link simply finds it healthy on completion (the flap ended
// before the technician arrived).
func (s *Sim) onClear(id faults.ID, now time.Duration) {
	f, ok := s.state.Fault(id)
	if !ok {
		return
	}
	s.accrue(now)
	defer s.settle()
	s.state.Clear(id)
	for _, e := range f.Effects {
		s.syncRate(e.Link)
	}
}

// releaseDampened ends link l's holddown: a healthy link re-enters service
// (letting the policy react to the activation), while a link corrupting
// again stays down and books a fresh repair without ever re-exposing
// application traffic.
func (s *Sim) releaseDampened(l topology.LinkID, now time.Duration) {
	s.accrue(now)
	defer s.settle()
	s.syncRate(l)
	_, step, _ := s.loop.Step(core.Input{At: now, Link: l, Kind: core.InputRelease, Rate: s.net.CorruptionRate(l)}) // a release cannot fail
	if step.Resolution == core.Reticketed {
		s.result.CorruptionReports++
	} else {
		s.result.LinksDisabled += len(step.Opened)
	}
	s.schedule(step.Opened, now)
}
