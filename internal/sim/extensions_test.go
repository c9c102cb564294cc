package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"corropt/internal/core"
	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/topology"
)

// TestDrainModeAvoidsReExposure: with DrainMode, a failed repair never puts
// application traffic back on a corrupting link, so the penalty stays zero
// throughout the repair saga (vs the Figure 12 cycle without it).
func TestDrainModeAvoidsReExposure(t *testing.T) {
	topo := simTopo(t)
	mk := func(drain bool) *Result {
		trace := []*faults.Fault{{
			ID: 1, Start: 0, Cause: faults.DamagedFiber,
			Effects: []faults.LinkEffect{{Link: 5, ExtraLossFrom: [2]optics.DB{11, 11}}},
		}}
		s, err := New(topo, simTech(), Config{
			Policy:        PolicyCorrOpt,
			FixedAccuracy: 1e-12, // repairs never succeed
			RepairConfig:  core.RepairConfig{DrainMode: drain},
			Seed:          3,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace, 12*24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	drained := mk(true)
	cycled := mk(false)
	if drained.IntegratedPenalty != 0 {
		t.Fatalf("drain mode exposed traffic to corruption: %v", drained.IntegratedPenalty)
	}
	// Without drain mode the enable→corrupt→detect cycle is penalty-free
	// only because detection is instant here; with a detection delay the
	// difference becomes material.
	_ = cycled

	s, err := New(topo, simTech(), Config{
		Policy:         PolicyCorrOpt,
		FixedAccuracy:  1e-12,
		DetectionDelay: 15 * time.Minute,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := []*faults.Fault{{
		ID: 1, Start: 0, Cause: faults.DamagedFiber,
		Effects: []faults.LinkEffect{{Link: 5, ExtraLossFrom: [2]optics.DB{11, 11}}},
	}}
	res, err := s.Run(trace, 12*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntegratedPenalty <= 0 {
		t.Fatal("re-enable cycle with detection delay should expose traffic")
	}
}

// TestDrainModeKeepsRepairLoop: failed repairs still escalate attempts.
func TestDrainModeKeepsRepairLoop(t *testing.T) {
	topo := simTopo(t)
	trace := []*faults.Fault{{
		ID: 1, Start: 0, Cause: faults.BadTransceiver,
		Effects: []faults.LinkEffect{{Link: 2, DirectRate: [2]float64{0.01, 0}}},
	}}
	s, err := New(topo, simTech(), Config{
		Policy:        PolicyCorrOpt,
		FixedAccuracy: 1e-12,
		RepairConfig:  core.RepairConfig{DrainMode: true},
		Seed:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace, 10*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.TicketsOpened < 4 {
		t.Fatalf("tickets = %d, want repeated attempts under drain mode", res.TicketsOpened)
	}
	// The link is drained once, not repeatedly "disabled".
	if res.LinksDisabled != 1 {
		t.Fatalf("links disabled = %d, want 1", res.LinksDisabled)
	}
}

// TestRepairCollateral: repairing one link of a breakout cable takes its
// healthy siblings down for the service window and restores them after.
func TestRepairCollateral(t *testing.T) {
	topo := simTopo(t) // built with BreakoutSize 4
	var link topology.LinkID = -1
	topo.Links(func(l *topology.Link) {
		if link < 0 && l.BreakoutGroup >= 0 {
			link = l.ID
		}
	})
	if link < 0 {
		t.Fatal("no breakout links in test topology")
	}
	siblings := topo.SameBreakout(link)
	if len(siblings) < 2 {
		t.Fatal("test needs a breakout group")
	}

	trace := []*faults.Fault{{
		ID: 1, Start: 0, Cause: faults.BadTransceiver,
		Effects: []faults.LinkEffect{{Link: link, DirectRate: [2]float64{0.01, 0}}},
	}}
	s, err := New(topo, simTech(), Config{
		Policy:         PolicyCorrOpt,
		Capacity:       0.25, // loose so collateral disabling is allowed
		FixedAccuracy:  1,
		RepairConfig:   core.RepairConfig{RepairCollateral: true},
		SampleInterval: time.Hour,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace, 5*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// During the 48h repair, the whole breakout group is down.
	sawGroupDown := false
	for _, smp := range res.Samples {
		if smp.At > time.Hour && smp.At < 47*time.Hour && smp.Disabled >= len(siblings) {
			sawGroupDown = true
		}
	}
	if !sawGroupDown {
		t.Fatal("healthy siblings were not taken down during the repair")
	}
	// After the repair everything is back up.
	last := res.Samples[len(res.Samples)-1]
	if last.Disabled != 0 {
		t.Fatalf("links still down after repair: %d", last.Disabled)
	}
	if s.State().NumActiveFaults() != 0 {
		t.Fatal("fault not repaired")
	}
}

// TestCollateralOverlappingRepairs: two tickets in the same breakout group
// must not re-enable siblings while either repair is still running.
func TestCollateralOverlappingRepairs(t *testing.T) {
	topo := simTopo(t)
	var group []topology.LinkID
	topo.Links(func(l *topology.Link) {
		if group == nil && l.BreakoutGroup >= 0 {
			g := topo.SameBreakout(l.ID)
			if len(g) >= 3 {
				group = g
			}
		}
	})
	if group == nil {
		t.Skip("no breakout group of size >= 3")
	}
	trace := []*faults.Fault{
		{ID: 1, Start: 0, Cause: faults.BadTransceiver,
			Effects: []faults.LinkEffect{{Link: group[0], DirectRate: [2]float64{0.01, 0}}}},
		{ID: 2, Start: 24 * time.Hour, Cause: faults.BadTransceiver,
			Effects: []faults.LinkEffect{{Link: group[1], DirectRate: [2]float64{0.01, 0}}}},
	}
	s, err := New(topo, simTech(), Config{
		Policy:        PolicyCorrOpt,
		Capacity:      0.25,
		FixedAccuracy: 1,
		RepairConfig:  core.RepairConfig{RepairCollateral: true},
		Seed:          6,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace, 8*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// First repair finishes at 48h while the second (started 24h) still
	// runs: the shared sibling must stay down at, say, hour 60.
	for _, smp := range res.Samples {
		if smp.At == 60*time.Hour && smp.Disabled < 2 {
			t.Fatalf("overlapping repairs released collateral early: %d down at 60h", smp.Disabled)
		}
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Disabled != 0 {
		t.Fatalf("links still down at the end: %d", last.Disabled)
	}
}

// TestRepairCollateralFromViolatedStates: at c = 0.9 every collateral disable
// leaves a four-uplink ToR below its constraint, unchecked, so activations
// re-optimize from states where some ToR is already violated — the
// optimizer's first probe then scans every ToR instead of the ones it
// changed. The run must visit such states, match between pooled and fresh
// construction, and never add a violation of its own: with the siblings still
// held at the horizon released, every ToR meets its constraint again.
func TestRepairCollateralFromViolatedStates(t *testing.T) {
	topo := simTopo(t)
	horizon := 21 * 24 * time.Hour
	trace := genTrace(t, topo, 0.004, horizon, 11)
	cfg := Config{Policy: PolicyCorrOpt, Seed: 6, Capacity: 0.9, RepairConfig: core.RepairConfig{RepairCollateral: true}}
	run := func(sc *Scratch) (*Sim, *Result) {
		s, err := NewWithScratch(topo, simTech(), cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return s, res
	}
	s, want := run(nil)
	if _, got := run(NewScratch()); !reflect.DeepEqual(got, want) {
		t.Fatal("scratch result differs from fresh reference")
	}
	violated := 0
	for _, smp := range want.Samples {
		if smp.WorstToRFraction < cfg.Capacity {
			violated++
		}
	}
	if violated == 0 || want.LinksDisabled == 0 {
		t.Fatalf("%d samples below the constraint, %d links disabled: the run never re-optimized from a violated state",
			violated, want.LinksDisabled)
	}
	for l := range topology.LinkID(topo.NumLinks()) {
		if s.loop.Collateral(l) {
			s.Network().Enable(l)
		}
	}
	if !s.Network().Feasible(nil) {
		t.Fatalf("with every held sibling released, ToRs %v are still violated", s.Network().ViolatedToRs(nil))
	}
}

// TestPenaltyIntegralExact: the event-driven integral accounts for
// exposure windows shorter than the sampling interval exactly — one fault
// at a known rate, detected after a known delay, disabled instantly.
func TestPenaltyIntegralExact(t *testing.T) {
	topo := simTopo(t)
	const rate = 0.01
	delay := 15 * time.Minute
	trace := []*faults.Fault{{
		ID: 1, Start: 3 * time.Hour, Cause: faults.BadTransceiver,
		Effects: []faults.LinkEffect{{Link: 5, DirectRate: [2]float64{rate, 0}}},
	}}
	s, err := New(topo, simTech(), Config{
		Policy:         PolicyCorrOpt,
		FixedAccuracy:  1,
		DetectionDelay: delay,
		SampleInterval: 6 * time.Hour, // far coarser than the exposure
		Seed:           9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	want := rate * delay.Seconds()
	if res.IntegratedPenalty < want*0.999 || res.IntegratedPenalty > want*1.001 {
		t.Fatalf("integral = %v, want exactly %v (rate x delay)", res.IntegratedPenalty, want)
	}
	// The day-bucketed view carries the same total.
	sum := 0.0
	for _, v := range res.PenaltyPerDay {
		sum += v
	}
	if sum < want*0.999 || sum > want*1.001 {
		t.Fatalf("per-day sum = %v, want %v", sum, want)
	}
}

// TestPenaltyIntegralSplitsDays: an exposure straddling midnight lands in
// both day buckets proportionally.
func TestPenaltyIntegralSplitsDays(t *testing.T) {
	topo := simTopo(t)
	const rate = 0.01
	trace := []*faults.Fault{{
		// Starts 10 minutes before midnight; detected 15 minutes later.
		ID: 1, Start: 24*time.Hour - 10*time.Minute, Cause: faults.BadTransceiver,
		Effects: []faults.LinkEffect{{Link: 5, DirectRate: [2]float64{rate, 0}}},
	}}
	s, err := New(topo, simTech(), Config{
		Policy:         PolicyCorrOpt,
		FixedAccuracy:  1,
		DetectionDelay: 15 * time.Minute,
		Seed:           9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace, 48*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PenaltyPerDay) < 2 {
		t.Fatalf("day buckets: %v", res.PenaltyPerDay)
	}
	d0 := rate * (10 * time.Minute).Seconds()
	d1 := rate * (5 * time.Minute).Seconds()
	if math.Abs(res.PenaltyPerDay[0]-d0) > d0*0.001 {
		t.Fatalf("day 0 = %v, want %v", res.PenaltyPerDay[0], d0)
	}
	if math.Abs(res.PenaltyPerDay[1]-d1) > d1*0.001 {
		t.Fatalf("day 1 = %v, want %v", res.PenaltyPerDay[1], d1)
	}
}
