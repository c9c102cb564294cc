package sim

import (
	"math"
	"testing"
	"time"

	"corropt/internal/core"
	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// simTopo builds the ScaleSmall evaluation fabric (256 links).
func simTopo(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 4, ToRsPerPod: 8, AggsPerPod: 4, Spines: 16, SpineUplinksPerAgg: 8, BreakoutSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func simTech() optics.Technology {
	return optics.Technology{Name: "t", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
}

func genTrace(t *testing.T, topo *topology.Topology, perLinkPerDay float64, horizon time.Duration, seed uint64) []*faults.Fault {
	t.Helper()
	inj, err := faults.NewInjector(topo, simTech(), faults.InjectorConfig{FaultsPerLinkPerDay: perLinkPerDay}, rngutil.New(seed).Split("trace"))
	if err != nil {
		t.Fatal(err)
	}
	return inj.Generate(horizon)
}

func TestSimBasicRun(t *testing.T) {
	topo := simTopo(t)
	horizon := 30 * 24 * time.Hour
	trace := genTrace(t, topo, 0.005, horizon, 1)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	s, err := New(topo, simTech(), Config{Policy: PolicyCorrOpt, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptionReports == 0 {
		t.Fatal("no corruption detected over a month")
	}
	if res.TicketsOpened == 0 {
		t.Fatal("no tickets opened")
	}
	if len(res.Samples) < 24*30 {
		t.Fatalf("only %d samples", len(res.Samples))
	}
	if res.IntegratedPenalty < 0 {
		t.Fatal("negative integrated penalty")
	}
	// The capacity constraint must hold at every sample.
	for _, smp := range res.Samples {
		if smp.WorstToRFraction < 0.75 {
			t.Fatalf("constraint violated at %v: %v", smp.At, smp.WorstToRFraction)
		}
	}
}

func TestPolicyNoneNeverDisables(t *testing.T) {
	topo := simTopo(t)
	horizon := 14 * 24 * time.Hour
	trace := genTrace(t, topo, 0.005, horizon, 3)
	s, err := New(topo, simTech(), Config{Policy: PolicyNone, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinksDisabled != 0 || res.TicketsOpened != 0 {
		t.Fatalf("do-nothing policy acted: %+v", res)
	}
	if res.UndisabledEvents != res.CorruptionReports {
		t.Fatalf("undisabled %d != reports %d", res.UndisabledEvents, res.CorruptionReports)
	}
}

func TestCorrOptBeatsSwitchLocal(t *testing.T) {
	// The headline result (Figure 14/17): at a 75% capacity constraint
	// CorrOpt's integrated penalty is far below switch-local's.
	topo := simTopo(t)
	horizon := 60 * 24 * time.Hour
	trace := genTrace(t, topo, 0.01, horizon, 5)

	run := func(p PolicyKind) *Result {
		s, err := New(topo, simTech(), Config{Policy: p, Capacity: 0.75, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	co := run(PolicyCorrOpt)
	sl := run(PolicySwitchLocal)
	none := run(PolicyNone)

	if co.IntegratedPenalty >= sl.IntegratedPenalty {
		t.Fatalf("CorrOpt penalty %v ≥ switch-local %v", co.IntegratedPenalty, sl.IntegratedPenalty)
	}
	if sl.IntegratedPenalty >= none.IntegratedPenalty {
		t.Fatalf("switch-local penalty %v ≥ do-nothing %v", sl.IntegratedPenalty, none.IntegratedPenalty)
	}
	// The gap should be large — the paper reports orders of magnitude.
	if co.IntegratedPenalty*5 > sl.IntegratedPenalty {
		t.Fatalf("CorrOpt %v vs switch-local %v: gap too small", co.IntegratedPenalty, sl.IntegratedPenalty)
	}
}

func TestLaxConstraintEqualizesPolicies(t *testing.T) {
	// Figure 17: at c=25% both methods disable almost everything and the
	// penalty ratio approaches 1.
	topo := simTopo(t)
	horizon := 30 * 24 * time.Hour
	trace := genTrace(t, topo, 0.005, horizon, 7)

	run := func(p PolicyKind) float64 {
		s, err := New(topo, simTech(), Config{Policy: p, Capacity: 0.25, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return res.IntegratedPenalty
	}
	co := run(PolicyCorrOpt)
	sl := run(PolicySwitchLocal)
	if sl == 0 && co == 0 {
		return // both perfect
	}
	ratio := co / sl
	if ratio > 1.2 {
		t.Fatalf("at a lax constraint CorrOpt/switch-local penalty ratio = %v, want ≈1 or better", ratio)
	}
}

func TestRepairAccuracyAffectsPenalty(t *testing.T) {
	// Figure 19: better repair accuracy (80% vs 50%) lowers losses.
	topo := simTopo(t)
	horizon := 60 * 24 * time.Hour
	trace := genTrace(t, topo, 0.01, horizon, 9)

	run := func(acc float64) *Result {
		s, err := New(topo, simTech(), Config{Policy: PolicyCorrOpt, Capacity: 0.75, FixedAccuracy: acc, Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	good := run(0.8)
	bad := run(0.5)
	if got := good.FirstAttemptSuccessRate; got < 0.65 || got > 0.95 {
		t.Fatalf("first-attempt success at 0.8 accuracy = %v", got)
	}
	if got := bad.FirstAttemptSuccessRate; got < 0.35 || got > 0.65 {
		t.Fatalf("first-attempt success at 0.5 accuracy = %v", got)
	}
	if bad.MeanAttempts <= good.MeanAttempts {
		t.Fatalf("mean attempts: bad %v ≤ good %v", bad.MeanAttempts, good.MeanAttempts)
	}
}

func TestRecommendationRepairMode(t *testing.T) {
	// §7.2's loop end to end: the engine's recommendations, when always
	// followed, should repair ≈80% of links on the first attempt.
	topo := simTopo(t)
	horizon := 90 * 24 * time.Hour
	trace := genTrace(t, topo, 0.01, horizon, 11)

	s, err := New(topo, simTech(), Config{
		Policy:     PolicyCorrOpt,
		Capacity:   0.5,
		Repair:     RepairRecommendation,
		IgnoreProb: 0,
		Seed:       12,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.TicketsOpened < 30 {
		t.Fatalf("too few tickets to judge: %d", res.TicketsOpened)
	}
	if got := res.FirstAttemptSuccessRate; got < 0.65 {
		t.Fatalf("recommendation-driven first-attempt success = %v, want ≳0.8", got)
	}
}

func TestRecommendationIgnoredLowersAccuracy(t *testing.T) {
	topo := simTopo(t)
	horizon := 90 * 24 * time.Hour
	trace := genTrace(t, topo, 0.01, horizon, 13)

	run := func(follow float64) float64 {
		s, err := New(topo, simTech(), Config{
			Policy:     PolicyCorrOpt,
			Capacity:   0.5,
			Repair:     RepairRecommendation,
			IgnoreProb: 1 - follow,
			Seed:       14,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return res.FirstAttemptSuccessRate
	}
	followed := run(1.0)
	ignored := run(0.0)
	if ignored >= followed {
		t.Fatalf("ignoring recommendations should hurt: followed %v, ignored %v", followed, ignored)
	}
}

func TestFastOnlyBetween(t *testing.T) {
	// Figure 18: the optimizer only helps on top of the fast checker
	// occasionally, so fast-only should sit between switch-local and full
	// CorrOpt (or tie CorrOpt).
	topo := simTopo(t)
	horizon := 45 * 24 * time.Hour
	trace := genTrace(t, topo, 0.01, horizon, 15)

	run := func(p PolicyKind) float64 {
		s, err := New(topo, simTech(), Config{Policy: p, Capacity: 0.75, Seed: 16})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return res.IntegratedPenalty
	}
	fast := run(PolicyFastOnly)
	co := run(PolicyCorrOpt)
	sl := run(PolicySwitchLocal)
	if fast > sl {
		t.Fatalf("fast-only penalty %v worse than switch-local %v", fast, sl)
	}
	if co > fast*1.001 {
		t.Fatalf("full CorrOpt penalty %v worse than fast-only %v", co, fast)
	}
}

// TestTraceMustBeSorted: the trace and the clears are streamed in slice
// order, so an event out of order, or before t=0, is an error naming it and
// nothing runs. An unsorted trace once ran silently short instead: the fault
// at 1 h behind one past the horizon was never applied, and the run returned
// no error, no report and no penalty.
func TestTraceMustBeSorted(t *testing.T) {
	topo := simTopo(t)
	late := directFault(1, 0, 100*time.Hour, 0.01)
	early := directFault(2, 1, time.Hour, 0.01)
	horizon := 50 * time.Hour
	for _, c := range []struct {
		trace  []*faults.Fault
		clears []Clear
		want   string
	}{
		{[]*faults.Fault{late, early}, nil, "sim: trace not sorted: fault 1 starts at 1h0m0s, before fault 0 at 100h0m0s"},
		{[]*faults.Fault{directFault(3, 0, -time.Hour, 0.01)}, nil, "sim: trace fault 0 starts at -1h0m0s, before t=0"},
		{nil, []Clear{{At: 2 * time.Hour, Fault: 2}, {At: time.Hour, Fault: 1}}, "sim: clears not sorted: clear 1 at 1h0m0s, before clear 0 at 2h0m0s"},
		{nil, []Clear{{At: -time.Second, Fault: 2}}, "sim: clear 0 at -1s, before t=0"},
	} {
		s, err := New(topo, simTech(), Config{Policy: PolicyCorrOpt, DetectionDelay: 30 * time.Minute, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunEvents(c.trace, c.clears, horizon); err == nil || err.Error() != c.want {
			t.Errorf("RunEvents error %v, want %q", err, c.want)
		}
		// Through RunAll the same error names the replay that failed.
		good := Replay{Topo: topo, Tech: simTech(), Config: Config{Policy: PolicyCorrOpt, Seed: 1},
			Trace: []*faults.Fault{early, late}, Horizon: horizon}
		bad := good
		bad.Trace, bad.Clears = c.trace, c.clears
		if _, err := RunAll(2, []Replay{good, bad}); err == nil || err.Error() != "sim: replay 1: "+c.want {
			t.Errorf("RunAll error %v, want %q", err, "sim: replay 1: "+c.want)
		}
		// Nothing ran, so the Sim is still unused.
		res, err := s.Run([]*faults.Fault{early, late}, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if res.CorruptionReports != 1 || res.IntegratedPenalty <= 0 {
			t.Fatalf("sorted trace: %d reports, penalty %v; want 1 report and a penalty", res.CorruptionReports, res.IntegratedPenalty)
		}
	}
}

// TestNewRejectsInvalidThreshold: the engine's threshold check reaches the
// caller through both construction paths.
func TestNewRejectsInvalidThreshold(t *testing.T) {
	topo := simTopo(t)
	for _, th := range []float64{-1, math.NaN(), 1.5} {
		for _, sc := range []*Scratch{nil, NewScratch()} {
			if _, err := NewWithScratch(topo, simTech(), Config{Policy: PolicyCorrOpt, DetectionThreshold: th}, sc); err == nil {
				t.Errorf("detection threshold %v accepted (scratch: %v), want error", th, sc != nil)
			}
		}
	}
}

func TestPenaltyDropsAfterRepair(t *testing.T) {
	topo := simTopo(t)
	// One severe fault at t=0; CorrOpt disables it immediately, repair
	// completes at 48h with perfect accuracy.
	trace := []*faults.Fault{{
		ID: 1, Start: 0, Cause: faults.BadTransceiver,
		Effects: []faults.LinkEffect{{Link: 5, DirectRate: [2]float64{0.01, 0}}},
	}}
	s, err := New(topo, simTech(), Config{Policy: PolicyCorrOpt, FixedAccuracy: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace, 96*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Penalty must be zero throughout: the link was disabled instantly.
	for _, smp := range res.Samples {
		if smp.Penalty != 0 {
			t.Fatalf("penalty %v at %v despite instant disable", smp.Penalty, smp.At)
		}
	}
	if res.TicketsOpened != 1 || res.LinksDisabled != 1 {
		t.Fatalf("bookkeeping: %+v", res)
	}
	// After 48h the link is repaired and enabled.
	if s.Network().Disabled(5) {
		t.Fatal("link still disabled after repair")
	}
	if s.State().NumActiveFaults() != 0 {
		t.Fatal("fault survived a perfect repair")
	}
}

func TestFailedRepairAddsAttempts(t *testing.T) {
	topo := simTopo(t)
	trace := []*faults.Fault{{
		ID: 1, Start: 0, Cause: faults.BadTransceiver,
		Effects: []faults.LinkEffect{{Link: 5, DirectRate: [2]float64{0.01, 0}}},
	}}
	// Accuracy 0: repairs never succeed; every 48h a new attempt.
	s, err := New(topo, simTech(), Config{Policy: PolicyCorrOpt, FixedAccuracy: 1e-12, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace, 10*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.TicketsOpened < 4 {
		t.Fatalf("tickets = %d, want ≥ 4 over 10 days of failing repairs", res.TicketsOpened)
	}
	if res.FirstAttemptSuccessRate != 0 {
		t.Fatalf("first-attempt success = %v with hopeless repairs", res.FirstAttemptSuccessRate)
	}
}

func TestPolicyKindString(t *testing.T) {
	kinds := []PolicyKind{PolicyNone, PolicySwitchLocal, PolicyFastOnly, PolicyCorrOpt}
	for _, p := range kinds {
		if p.String() == "" {
			t.Fatalf("policy %d has no name", int(p))
		}
		if back, ok := core.PolicyByName(p.String()); !ok || back != p {
			t.Fatalf("PolicyByName(%q) = %v, %v; want %v", p.String(), back, ok, p)
		}
	}
	if n := len(core.PolicyNames()); n != len(kinds) {
		t.Fatalf("PolicyNames lists %d policies, want %d", n, len(kinds))
	}
	if _, ok := core.PolicyByName("PolicyKind(4)"); ok {
		t.Fatal("PolicyByName accepted a name no policy has")
	}
}

func TestOptimizerDisablesMoreOverTime(t *testing.T) {
	// Construct a scenario where the optimizer's activation hook matters:
	// a ToR with constraint leaving room for one disabled uplink; two
	// corrupting uplinks arrive; the second can only be disabled after
	// the first is repaired.
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 1, ToRsPerPod: 1, AggsPerPod: 2, Spines: 2, SpineUplinksPerAgg: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tor := topo.ToRs()[0]
	l1 := topo.Uplinks(tor)[0]
	l2 := topo.Uplinks(tor)[1]
	trace := []*faults.Fault{
		{ID: 1, Start: 0, Cause: faults.BadTransceiver,
			Effects: []faults.LinkEffect{{Link: l1, DirectRate: [2]float64{0.01, 0}}}},
		{ID: 2, Start: time.Hour, Cause: faults.BadTransceiver,
			Effects: []faults.LinkEffect{{Link: l2, DirectRate: [2]float64{0.001, 0}}}},
	}
	s, err := New(topo, simTech(), Config{Policy: PolicyCorrOpt, Capacity: 0.5, FixedAccuracy: 1, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace, 8*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// l1 disabled at t=0; l2 cannot be (would disconnect the ToR) → one
	// undisabled event. At 48h l1 repairs, optimizer disables l2.
	if res.UndisabledEvents == 0 {
		t.Fatal("expected a capacity-blocked corruption event")
	}
	if res.TicketsOpened != 2 {
		t.Fatalf("tickets = %d, want 2", res.TicketsOpened)
	}
	if s.State().NumActiveFaults() != 0 {
		t.Fatal("both faults should eventually be repaired")
	}
	_ = core.DefaultDetectionThreshold
}

func TestNoOpticsFractionDeterministic(t *testing.T) {
	topo := simTopo(t)
	trace := genTrace(t, topo, 0.02, 30*24*time.Hour, 21)
	run := func() *Result {
		s, err := New(topo, simTech(), Config{
			Policy:           PolicyCorrOpt,
			Capacity:         0.5,
			Repair:           RepairRecommendation,
			NoOpticsFraction: 0.5,
			Seed:             22,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace, 30*24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FirstAttemptSuccessRate != b.FirstAttemptSuccessRate || a.TicketsOpened != b.TicketsOpened {
		t.Fatal("NoOpticsFraction runs not reproducible")
	}
	// Half the links lacking optics should cost accuracy relative to full
	// visibility.
	s2, err := New(topo, simTech(), Config{
		Policy:   PolicyCorrOpt,
		Capacity: 0.5,
		Repair:   RepairRecommendation,
		Seed:     22,
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := s2.Run(trace, 30*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if a.FirstAttemptSuccessRate > full.FirstAttemptSuccessRate {
		t.Fatalf("missing optics should not improve accuracy: %v vs %v",
			a.FirstAttemptSuccessRate, full.FirstAttemptSuccessRate)
	}
}

func TestTechAssignFlowsThrough(t *testing.T) {
	topo := simTopo(t)
	odd := optics.Technology{Name: "odd", NominalTx: 1, TxThreshold: -3, RxThreshold: -12, PathLoss: 2}
	s, err := New(topo, simTech(), Config{
		TechAssign: func(l topology.LinkID) optics.Technology {
			if l%2 == 1 {
				return odd
			}
			return simTech()
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.State().TechOf(1).Name != "odd" || s.State().TechOf(2).Name != simTech().Name {
		t.Fatal("per-link technologies not applied")
	}
}
