package sim

import (
	"reflect"
	"testing"
	"time"

	"corropt/internal/core"
	"corropt/internal/faults"
	"corropt/internal/tickets"
	"corropt/internal/topology"
)

func directFault(id faults.ID, l topology.LinkID, start time.Duration, rate float64) *faults.Fault {
	return &faults.Fault{
		ID:    id,
		Cause: faults.BadTransceiver,
		Start: start,
		Effects: []faults.LinkEffect{
			{Link: l, DirectRate: [2]float64{rate, 0}},
		},
	}
}

// flapTrace builds count fault+clear pairs on link l: corrupt at
// start + i*period, self-clearing up later.
func flapTrace(l topology.LinkID, start, period, up time.Duration, count int, rate float64) ([]*faults.Fault, []Clear) {
	var trace []*faults.Fault
	var clears []Clear
	for i := 0; i < count; i++ {
		at := start + time.Duration(i)*period
		f := directFault(faults.ID(1000+i), l, at, rate)
		trace = append(trace, f)
		clears = append(clears, Clear{At: at + up, Fault: f.ID})
	}
	return trace, clears
}

func TestRunEventsClearRemovesFault(t *testing.T) {
	topo := simTopo(t)
	l := topo.Link(0).ID
	f := directFault(1, l, time.Hour, 1e-4)
	s, err := New(topo, simTech(), Config{Policy: PolicyNone, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunEvents([]*faults.Fault{f}, []Clear{{At: 3 * time.Hour, Fault: 1}}, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Under PolicyNone nothing is disabled, so the fault corrupts for
	// exactly the 2h between application and clear (plus the healthy-link
	// optics-floor BER, hence the tolerance).
	want := 1e-4 * (2 * time.Hour).Seconds()
	if diff := res.IntegratedPenalty - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("integrated penalty %v, want %v", res.IntegratedPenalty, want)
	}
	for _, smp := range res.Samples {
		wantActive := 0
		if smp.At >= time.Hour && smp.At < 3*time.Hour {
			wantActive = 1
		}
		if smp.ActiveCorrupting != wantActive {
			t.Fatalf("at %v: ActiveCorrupting=%d, want %d", smp.At, smp.ActiveCorrupting, wantActive)
		}
	}
}

func TestRunEventsClearBeforeFaultAtSameInstant(t *testing.T) {
	topo := simTopo(t)
	l := topo.Link(0).ID
	// Ramp-style replacement: fault B lands at the exact instant fault A
	// clears. The clear must fire first, so the link ends at B's rate
	// rather than the worst of both.
	a := directFault(1, l, time.Hour, 1e-3)
	b := directFault(2, l, 2*time.Hour, 1e-5)
	s, err := New(topo, simTech(), Config{Policy: PolicyNone, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunEvents([]*faults.Fault{a, b}, []Clear{{At: 2 * time.Hour, Fault: 1}}, 4*time.Hour); err != nil {
		t.Fatal(err)
	}
	// The clear fired first, so only B's rate remains (the sub-1e-11
	// optics-floor BER rides on top; 1e-3 would mean A survived).
	if got := s.Network().CorruptionRate(l); got < 1e-5 || got > 2e-5 {
		t.Fatalf("rate after replacement %v, want ~1e-5", got)
	}
}

// heapRunEvents is the event loop RunEvents replaced, kept as the ordering
// reference: every clear, then every fault, is scheduled into the clock's
// heap as its own item before the sampler, so events at one instant fire in
// scheduling order — clears, faults in slice order, then whatever the run
// itself scheduled.
func heapRunEvents(s *Sim, trace []*faults.Fault, clears []Clear, horizon time.Duration) *Result {
	s.ran = true
	s.result.Samples = make([]Sample, 0, horizon/s.cfg.SampleInterval+2)
	s.result.PenaltyPerDay = make([]float64, 0, horizon/(24*time.Hour)+1)
	for _, c := range clears {
		if c.At < horizon {
			id := c.Fault
			s.clock.At(c.At, func(now time.Duration) { s.onClear(id, now) })
		}
	}
	for _, f := range trace {
		if f.Start < horizon {
			s.clock.At(f.Start, func(now time.Duration) { s.onFault(f, now) })
		}
	}
	s.clock.Every(s.cfg.SampleInterval, s.sample)
	s.sample(0)
	s.clock.RunUntil(horizon)
	s.finish(horizon)
	return &s.result
}

// TestRunEventsSharedInstant: a clear, a fault, a repair completion and a
// sample at one instant fire in that order, as they did when every trace
// event sat in the clock's heap. Fault A (0 h) disables link 0 until its
// repair at 2 h; fault B (1 h) holds link 1 at 6e-7, under the 1e-6
// detection threshold. At 2 h B clears, then fault C puts link 1 at 6e-7
// again and links 2 and 3 at 1e-3, then A's repair re-enables link 0, then
// the sample reads links 2 and 3 down. Had C come before the clear, link 1
// would have read B's and C's rates together, over the threshold, and been
// reported and disabled; had the sample come earlier, it would have seen
// link 0 down. The same order holds on an hour-aligned random trace with
// clears and a detection delay, where the whole result must equal the heap
// loop's.
func TestRunEventsSharedInstant(t *testing.T) {
	topo := simTopo(t)
	uplink := func(i int) topology.LinkID { return topo.Uplinks(topo.ToRs()[i])[0] }
	cfg := Config{Policy: PolicyCorrOpt, FixedAccuracy: 1.0, RepairConfig: core.RepairConfig{Staffing: tickets.Staffing{ServiceTime: 2 * time.Hour}}, Seed: 1}
	a := directFault(1, uplink(0), 0, 1e-3)
	b := directFault(2, uplink(1), time.Hour, 6e-7)
	c := directFault(3, uplink(1), 2*time.Hour, 6e-7)
	for _, i := range []int{2, 3} {
		c.Effects = append(c.Effects, faults.LinkEffect{Link: uplink(i), DirectRate: [2]float64{1e-3, 0}})
	}
	trace, clears := []*faults.Fault{a, b, c}, []Clear{{At: 2 * time.Hour, Fault: 2}}
	horizon := 3 * time.Hour

	s, err := New(topo, simTech(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunEvents(trace, clears, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptionReports != 3 {
		t.Fatalf("%d reports, want 3: link 0 at 0h, links 2 and 3 at 2h", res.CorruptionReports)
	}
	if got := res.Samples[2]; got.At != 2*time.Hour || got.Disabled != 2 || s.Network().Disabled(uplink(0)) {
		t.Fatalf("sample at %v shows %d links disabled, want links 2 and 3 at 2h", got.At, got.Disabled)
	}
	ref, err := New(topo, simTech(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := heapRunEvents(ref, trace, clears, horizon); !reflect.DeepEqual(res, want) {
		t.Fatalf("streamed run %+v, heap loop %+v", res, want)
	}

	// Hour-aligned faults land on sample instants and on each other's 48 h
	// repair completions; every third fault clears four hours in.
	horizon = 14 * 24 * time.Hour
	trace = nil
	clears = nil
	for i, f := range genTrace(t, topo, 0.01, horizon, 8) {
		g := *f
		g.Start = g.Start.Truncate(time.Hour)
		trace = append(trace, &g)
		if i%3 == 0 {
			clears = append(clears, Clear{At: g.Start + 4*time.Hour, Fault: g.ID})
		}
	}
	for _, cfg := range []Config{
		{Policy: PolicyCorrOpt, Seed: 3},
		{Policy: PolicyFastOnly, DetectionDelay: time.Hour, RepairConfig: core.RepairConfig{RepairCollateral: true}, Seed: 4},
	} {
		s, err := New(topo, simTech(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunEvents(trace, clears, horizon)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(topo, simTech(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := heapRunEvents(ref, trace, clears, horizon); !reflect.DeepEqual(res, want) {
			t.Fatalf("%v: streamed run differs from the heap loop", cfg.Policy)
		}
		if res.CorruptionReports == 0 {
			t.Fatalf("%v: no reports", cfg.Policy)
		}
	}
}

func TestRunEventsUnknownClearIsNoOp(t *testing.T) {
	topo := simTopo(t)
	horizon := 14 * 24 * time.Hour
	trace := genTrace(t, topo, 0.005, horizon, 3)
	run := func(clears []Clear) *Result {
		s, err := New(topo, simTech(), Config{Policy: PolicyCorrOpt, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunEvents(trace, clears, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	// Clears for IDs that never appear in the trace, plus one past the
	// horizon, must leave the run untouched.
	noop := run([]Clear{{At: time.Hour, Fault: 999999}, {At: horizon + time.Hour, Fault: 1}})
	if !reflect.DeepEqual(plain, noop) {
		t.Fatal("no-op clears changed the run result")
	}
}

func TestDampeningHoldsFlappingLink(t *testing.T) {
	topo := simTopo(t)
	l := topo.Link(0).ID
	horizon := 5 * 24 * time.Hour
	trace, clears := flapTrace(l, 0, 3*time.Hour, time.Hour, 10, 1e-4)
	run := func(d *core.DampeningConfig) *Result {
		s, err := New(topo, simTech(), Config{
			Policy:        PolicyCorrOpt,
			FixedAccuracy: 1.0, // repairs always "succeed" (the flap cleared anyway)
			RepairConfig:  core.RepairConfig{Staffing: tickets.Staffing{ServiceTime: 2 * time.Hour}, Dampening: d},
			Seed:          1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunEvents(trace, clears, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	damped := run(&core.DampeningConfig{Window: 12 * time.Hour, Flaps: 3, Holddown: 48 * time.Hour})
	if plain.DampenedHolds != 0 {
		t.Fatalf("undamped run recorded %d holds", plain.DampenedHolds)
	}
	if plain.TicketsOpened < 5 {
		t.Fatalf("flap storm opened only %d tickets without dampening", plain.TicketsOpened)
	}
	if damped.DampenedHolds == 0 {
		t.Fatal("dampening never held the flapping link")
	}
	if damped.TicketsOpened >= plain.TicketsOpened {
		t.Fatalf("dampening did not cut tickets: %d (damped) vs %d (plain)",
			damped.TicketsOpened, plain.TicketsOpened)
	}
}

func TestDampeningReleaseReenablesHealthyLink(t *testing.T) {
	topo := simTopo(t)
	l := topo.Link(0).ID
	// Three quick flaps trip the dampener; the holddown expires well before
	// the horizon with no fault active, so the link must end enabled.
	trace, clears := flapTrace(l, 0, 3*time.Hour, time.Hour, 3, 1e-4)
	s, err := New(topo, simTech(), Config{
		Policy:        PolicyCorrOpt,
		FixedAccuracy: 1.0,
		RepairConfig: core.RepairConfig{
			Staffing:  tickets.Staffing{ServiceTime: 2 * time.Hour},
			Dampening: &core.DampeningConfig{Window: 12 * time.Hour, Flaps: 3, Holddown: 24 * time.Hour},
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunEvents(trace, clears, 10*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.DampenedHolds == 0 {
		t.Fatal("dampener never tripped")
	}
	if s.Network().Disabled(l) {
		t.Fatal("healthy link still disabled after holddown expiry")
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Disabled != 0 {
		t.Fatalf("final sample still shows %d disabled links", last.Disabled)
	}
}

func TestDampeningConfigValidation(t *testing.T) {
	topo := simTopo(t)
	bad := []*core.DampeningConfig{
		{Window: 0, Flaps: 3, Holddown: time.Hour},
		{Window: time.Hour, Flaps: 0, Holddown: time.Hour},
		{Window: time.Hour, Flaps: 3, Holddown: 0},
		{Window: -time.Hour, Flaps: 3, Holddown: time.Hour},
	}
	for _, d := range bad {
		if _, err := New(topo, simTech(), Config{RepairConfig: core.RepairConfig{Dampening: d}}); err == nil {
			t.Fatalf("config %+v accepted", *d)
		}
	}
}

func TestRunDelegatesToRunEvents(t *testing.T) {
	topo := simTopo(t)
	horizon := 7 * 24 * time.Hour
	trace := genTrace(t, topo, 0.005, horizon, 5)
	s1, err := New(topo, simTech(), Config{Policy: PolicyCorrOpt, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Run(trace, horizon)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(topo, simTech(), Config{Policy: PolicyCorrOpt, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.RunEvents(trace, nil, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("Run and RunEvents(trace, nil) diverge")
	}
}
