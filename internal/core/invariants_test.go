package core

import (
	"math"
	"testing"
	"testing/quick"

	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// TestFastCheckerNeverViolates: across random topologies, random corruption
// and random report orders, the fast checker never leaves any ToR below its
// constraint.
func TestFastCheckerNeverViolates(t *testing.T) {
	rng := rngutil.New(41)
	for trial := 0; trial < 25; trial++ {
		topo, err := topology.NewClos(topology.ClosConfig{
			Pods:               1 + rng.Intn(3),
			ToRsPerPod:         1 + rng.Intn(4),
			AggsPerPod:         1 + rng.Intn(4),
			Spines:             8,
			SpineUplinksPerAgg: 1 + rng.Intn(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		c := rng.Range(0.2, 0.9)
		net, err := NewNetwork(topo, c)
		if err != nil {
			t.Fatal(err)
		}
		// Heterogeneous thresholds on a few ToRs.
		for _, tor := range topo.ToRs() {
			if rng.Bool(0.3) {
				if err := net.SetToRConstraint(tor, rng.Range(0.1, 0.95)); err != nil {
					t.Fatal(err)
				}
			}
		}
		fc := NewFastChecker(net)
		for i := 0; i < topo.NumLinks()/2; i++ {
			l := topology.LinkID(rng.Intn(topo.NumLinks()))
			net.SetCorruption(l, math.Pow(10, rng.Range(-6, -2)))
			fc.DisableIfSafe(l)
			if violated := net.ViolatedToRs(nil); len(violated) != 0 {
				t.Fatalf("trial %d: fast checker violated constraints of %v", trial, violated)
			}
		}
	}
}

// TestFastCheckerSweepMaximal: after a sweep, no active corrupting link can
// be disabled — the maximality property §5.1 claims for the fast checker.
func TestFastCheckerSweepMaximal(t *testing.T) {
	rng := rngutil.New(42)
	for trial := 0; trial < 20; trial++ {
		net := randomCorruptionScenario(t, uint64(trial)+500, 12)
		fc := NewFastChecker(net)
		fc.Sweep(1e-7)
		for _, l := range net.ActiveCorrupting(1e-7) {
			if fc.CanDisable(l) {
				t.Fatalf("trial %d: link %d still disableable after sweep", trial, l)
			}
		}
	}
	_ = rng
}

// TestOptimizerNeverViolates: whatever the optimizer chooses, every ToR —
// including those with custom thresholds — stays within its constraint.
func TestOptimizerNeverViolates(t *testing.T) {
	rng := rngutil.New(43)
	for trial := 0; trial < 20; trial++ {
		net := randomCorruptionScenario(t, uint64(trial)+900, 12)
		topo := net.Topology()
		for _, tor := range topo.ToRs() {
			if rng.Bool(0.4) {
				if err := net.SetToRConstraint(tor, rng.Range(0.1, 0.95)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !net.Feasible(nil) {
			continue // random thresholds may start violated; skip
		}
		opt := NewOptimizer(net, LinearPenalty)
		opt.Run(1e-7)
		if violated := net.ViolatedToRs(nil); len(violated) != 0 {
			t.Fatalf("trial %d: optimizer violated %v", trial, violated)
		}
	}
}

// TestOptimizerMatchesBruteForceHeterogeneous: exactness holds with
// per-ToR thresholds too.
func TestOptimizerMatchesBruteForceHeterogeneous(t *testing.T) {
	rng := rngutil.New(44)
	for trial := 0; trial < 15; trial++ {
		net := randomCorruptionScenario(t, uint64(trial)+1300, 9)
		topo := net.Topology()
		for _, tor := range topo.ToRs() {
			if rng.Bool(0.5) {
				if err := net.SetToRConstraint(tor, rng.Range(0.2, 0.9)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !net.Feasible(nil) {
			continue
		}
		want := bruteForceBest(net, 1e-7, LinearPenalty)
		opt := NewOptimizer(net, LinearPenalty)
		disabled, st := opt.Run(1e-7)
		got := disabledPenalty(net, disabled, LinearPenalty)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: penalty %v, brute force %v (stats %+v)", trial, got, want, st)
		}
	}
}

// TestOptimizerMaximal: no single additional corrupting link can be
// disabled after an optimizer run (optimality implies maximality for
// strictly positive penalties).
func TestOptimizerMaximal(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		net := randomCorruptionScenario(t, uint64(trial)+1700, 12)
		opt := NewOptimizer(net, LinearPenalty)
		opt.Run(1e-7)
		for _, l := range net.ActiveCorrupting(1e-7) {
			if net.Feasible(map[topology.LinkID]bool{l: true}) {
				t.Fatalf("trial %d: link %d (rate %v) could still be disabled",
					trial, l, net.CorruptionRate(l))
			}
		}
	}
}

// TestPathCountMonotone: disabling more links never increases any switch's
// path count — the monotonicity that makes the exact search's
// infeasible-subset pruning and topology pruning sound.
func TestPathCountMonotone(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 2, ToRsPerPod: 3, AggsPerPod: 3, Spines: 6, SpineUplinksPerAgg: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pc := topology.NewPathCounter(topo)
	f := func(seedA, seedB uint16) bool {
		rngA := rngutil.New(uint64(seedA))
		setA := make(map[topology.LinkID]bool)
		for i := 0; i < 5; i++ {
			setA[topology.LinkID(rngA.Intn(topo.NumLinks()))] = true
		}
		// setB ⊇ setA.
		setB := make(map[topology.LinkID]bool, len(setA))
		for l := range setA {
			setB[l] = true
		}
		rngB := rngutil.New(uint64(seedB))
		for i := 0; i < 5; i++ {
			setB[topology.LinkID(rngB.Intn(topo.NumLinks()))] = true
		}
		a := append([]int64(nil), pc.Count(func(l topology.LinkID) bool { return setA[l] })...)
		b := pc.Count(func(l topology.LinkID) bool { return setB[l] })
		for i := range a {
			if b[i] > a[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSwitchLocalImpliesGlobal: the sc = c^(1/r) mapping is exactly strong
// enough — per-switch keep-fractions multiply along any ToR→spine path.
func TestSwitchLocalImpliesGlobal(t *testing.T) {
	f := func(cRaw uint8, pattern uint16) bool {
		c := 0.3 + 0.6*float64(cRaw)/255
		topo, err := topology.NewClos(topology.ClosConfig{
			Pods: 2, ToRsPerPod: 2, AggsPerPod: 4, Spines: 8, SpineUplinksPerAgg: 4,
		})
		if err != nil {
			return false
		}
		net, err := NewNetwork(topo, c)
		if err != nil {
			return false
		}
		sl, err := NewSwitchLocal(net, c)
		if err != nil {
			return false
		}
		// Corrupt a pseudo-random subset and sweep.
		for l := 0; l < topo.NumLinks(); l++ {
			if pattern&(1<<(uint(l)%16)) != 0 && l%3 == 0 {
				net.SetCorruption(topology.LinkID(l), 1e-3)
			}
		}
		sl.Sweep(1e-6)
		return net.WorstToRFraction()+1e-9 >= c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizerBudgetExhaustion: with a tiny feasibility budget the search
// still returns a feasible (if suboptimal) answer and reports the event.
func TestOptimizerBudgetExhaustion(t *testing.T) {
	net, _ := fig10(t)
	opt := NewOptimizer(net, LinearPenalty)
	opt.budget = 3
	disabled, st := opt.Run(1e-6)
	if st.BudgetExhausted == 0 {
		t.Fatalf("budget not exhausted: %+v", st)
	}
	if !net.Feasible(nil) {
		t.Fatal("budget-limited optimizer violated constraints")
	}
	_ = disabled
}

// TestSearchLimitsHold lowers the feasibility budget through its field: a
// segment's exact search stops at it.
func TestSearchLimitsHold(t *testing.T) {
	for budget := 1; budget <= 8; budget++ {
		net, _ := fig10(t)
		opt := NewOptimizer(net, LinearPenalty)
		opt.budget = budget
		_, st := opt.Run(1e-6)
		if st.Segments != 1 || st.FeasibilityChecks > budget || st.BudgetExhausted != 1 {
			t.Fatalf("budget %d: one segment searched with %d checks, exhausted %d times (stats %+v)",
				budget, st.FeasibilityChecks, st.BudgetExhausted, st)
		}
	}
}
