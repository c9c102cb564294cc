package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

func TestEngineReportAndRepair(t *testing.T) {
	topo := smallClos(t)
	net, _ := NewNetwork(topo, 0.5)
	e := NewEngine(net, EngineConfig{})

	tor := topo.ToRs()[0]
	l1, l2 := topo.Uplinks(tor)[0], topo.Uplinks(tor)[1]

	// Below-threshold reports are recorded but not acted upon.
	d := e.ReportCorruption(l1, 1e-8)
	if d.Disabled {
		t.Fatal("sub-threshold corruption disabled a link")
	}
	if net.CorruptionRate(l1) != 1e-8 {
		t.Fatal("rate not recorded")
	}

	// A real report disables the link via the fast checker.
	d = e.ReportCorruption(l1, 1e-3)
	if !d.Disabled {
		t.Fatalf("link not disabled: %s", d.Reason())
	}
	if !net.Disabled(l1) {
		t.Fatal("network state not updated")
	}

	// The ToR has 2 uplinks and c=0.5: its second uplink must stay.
	d = e.ReportCorruption(l2, 1e-2)
	if d.Disabled {
		t.Fatal("disabling both uplinks would violate the constraint")
	}
	if d.Reason() == "" {
		t.Fatal("negative decision carries no reason")
	}

	// Re-reporting a disabled link is a no-op positive.
	d = e.ReportCorruption(l1, 1e-3)
	if !d.Disabled || d.Reason() != "already disabled" {
		t.Fatalf("re-report: %+v", d)
	}

	// Repairing l1 re-enables it and lets the optimizer disable l2 (the
	// worse link now active).
	newly := e.LinkRepaired(l1)
	if net.Disabled(l1) {
		t.Fatal("repaired link still disabled")
	}
	if net.CorruptionRate(l1) != 0 {
		t.Fatal("repaired link keeps its corruption record")
	}
	if len(newly) != 1 || newly[0] != l2 {
		t.Fatalf("optimizer disabled %v, want [%d]", newly, l2)
	}
	if !net.Disabled(l2) {
		t.Fatal("l2 not disabled after repair of l1")
	}
}

func TestEngineDefaultThreshold(t *testing.T) {
	topo := smallClos(t)
	net, _ := NewNetwork(topo, 0.5)
	e := NewEngine(net, EngineConfig{})
	if e.Threshold() != DefaultDetectionThreshold {
		t.Fatalf("threshold = %v", e.Threshold())
	}
	if e.Network() != net {
		t.Fatal("Network accessor broken")
	}
}

// TestEngineRejectsInvalidThreshold is the regression test for thresholds no
// rate compares below: with -1 or NaN, ReportCorruption(l, 0) — the report an
// agent sends when a link reads clean — fell through to the check and
// disabled a healthy link. Every policy's constructor refuses them, NewEngine
// panics rather than hand back a nil engine, and under every accepted
// threshold a zero-rate report changes nothing.
func TestEngineRejectsInvalidThreshold(t *testing.T) {
	topo := smallClos(t)
	for _, tc := range []struct {
		threshold, want float64 // want 0: rejected
	}{
		{-1, 0}, {math.NaN(), 0}, {math.Inf(1), 0}, {1.5, 0},
		{0, DefaultDetectionThreshold}, {1e-6, 1e-6}, {1, 1},
	} {
		cfg := EngineConfig{DetectionThreshold: tc.threshold}
		for _, policy := range []PolicyKind{PolicyNone, PolicySwitchLocal, PolicyFastOnly, PolicyCorrOpt} {
			net, _ := NewNetwork(topo, 0.5)
			e, err := NewPolicyEngine(net, policy, cfg)
			if tc.want == 0 {
				if err == nil {
					t.Errorf("threshold %v, %v: accepted", tc.threshold, policy)
				}
				if e != nil {
					t.Errorf("threshold %v, %v: an engine came back with the error", tc.threshold, policy)
				}
			} else if err != nil || e.Threshold() != tc.want {
				t.Fatalf("threshold %v, %v: engine threshold %v, err %v; want %v", tc.threshold, policy, e.Threshold(), err, tc.want)
			}
			if e == nil {
				continue
			}
			l := topo.Uplinks(topo.ToRs()[0])[0]
			if d := e.ReportCorruption(l, 0); d.Outcome != OutcomeBelowThreshold || d.Disabled || net.NumDisabled() != 0 {
				t.Errorf("threshold %v, %v: zero-rate report came back %+v with %d links disabled",
					tc.threshold, policy, d, net.NumDisabled())
			}
		}
		func() {
			defer func() {
				if r := recover(); (r != nil) != (tc.want == 0) {
					t.Errorf("threshold %v: NewEngine recovered %v", tc.threshold, r)
				}
			}()
			net, _ := NewNetwork(topo, 0.5)
			if NewEngine(net, cfg) == nil {
				t.Errorf("threshold %v: NewEngine returned nil", tc.threshold)
			}
		}()
	}
}

// TestCheckRate is the one table for what a report may carry as a rate: the
// control plane and the fleet ingress both validate with CheckRate.
func TestCheckRate(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		ok   bool
	}{
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
		{math.Copysign(0, -1), true}, {-1e-300, false}, {0, true}, {1, true},
		{math.Nextafter(1, 2), false},
	} {
		err := CheckRate(tc.rate)
		if (err == nil) != tc.ok {
			t.Errorf("CheckRate(%v) = %v, want ok=%v", tc.rate, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprint(tc.rate)) {
			t.Errorf("CheckRate(%v) = %q, does not name the rate", tc.rate, err)
		}
	}
}

// TestEngineReoptimize holds the whole-topology re-check every activation
// runs to links recorded out of band, which no report checked.
func TestEngineReoptimize(t *testing.T) {
	topo := smallClos(t)
	net, _ := NewNetwork(topo, 0.25)
	e := NewEngine(net, EngineConfig{})
	// Two corrupting links that the fast checker path never saw (e.g.
	// recorded out of band).
	net.SetCorruption(1, 1e-3)
	net.SetCorruption(2, 1e-3)
	disabled, st := e.recheck()
	if len(disabled) != 2 {
		t.Fatalf("re-check disabled %d, want 2 (stats %+v)", len(disabled), st)
	}
}

// TestRecheckAfterOpsDisablesNothing holds what lets the control plane's
// stale-agent sweep skip a re-check: after any report (the fast checker
// disables every link it can) and any repair (the enable re-checks the whole
// topology), a further whole-topology re-check finds nothing to disable.
// Seeded random ops on the control-plane test fabric, under two capacities
// and two penalties.
func TestRecheckAfterOpsDisablesNothing(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 4, ToRsPerPod: 6, AggsPerPod: 3, Spines: 9, SpineUplinksPerAgg: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []float64{0.5, 0.75} {
		for _, penalty := range []PenaltyFunc{LinearPenalty, TCPThroughputPenalty} {
			for seed := uint64(1); seed <= 3; seed++ {
				net, err := NewNetwork(topo, capacity)
				if err != nil {
					t.Fatal(err)
				}
				e := NewEngine(net, EngineConfig{Penalty: penalty})
				rng := rngutil.New(seed).Split("recheck-after-ops")
				for op := 0; op < 2000; op++ {
					l := topology.LinkID(rng.Intn(topo.NumLinks()))
					if rng.Float64() < 0.6 {
						e.ReportCorruption(l, math.Pow(10, rng.Range(-7, -2)))
					} else {
						e.LinkRepaired(l)
					}
					if got, _ := e.recheck(); len(got) != 0 {
						t.Fatalf("c=%v seed %d op %d on link %d: re-check disabled %v", capacity, seed, op, l, got)
					}
				}
				if net.NumDisabled() == 0 || net.NumActiveCorrupting(e.Threshold()) == 0 {
					t.Fatalf("c=%v seed %d: ends with %d disabled and %d blocked links", capacity, seed,
						net.NumDisabled(), net.NumActiveCorrupting(e.Threshold()))
				}
			}
		}
	}
}

func TestSwitchLocalMultiTier(t *testing.T) {
	// With r=3 tiers, sc must be c^(1/3).
	topo, err := topology.NewMultiTier([]int{8, 8, 8, 4}, []int{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	net, _ := NewNetwork(topo, 0.5)
	sl, err := NewSwitchLocal(net, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.7937 // 0.5^(1/3)
	if sc := sl.SC(); sc < want-0.001 || sc > want+0.001 {
		t.Fatalf("sc = %v, want ≈%v", sc, want)
	}
}

func TestSwitchLocalGuaranteesConstraint(t *testing.T) {
	// Property: whatever corrupting set arrives, switch-local with
	// sc = c^(1/r) never violates the ToR capacity constraint.
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 2, ToRsPerPod: 3, AggsPerPod: 4, Spines: 8, SpineUplinksPerAgg: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 10; seed++ {
		net, _ := NewNetwork(topo, 0.6)
		// Corrupt every third link, shifted by seed.
		for l := seed; l < topo.NumLinks(); l += 3 {
			net.SetCorruption(topology.LinkID(l), 1e-3)
		}
		sl, err := NewSwitchLocal(net, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		sl.Sweep(1e-6)
		if frac := net.WorstToRFraction(); frac < 0.6 {
			t.Fatalf("seed %d: switch-local violated constraint: %v", seed, frac)
		}
	}
}

func TestSwitchLocalRawValidation(t *testing.T) {
	topo := smallClos(t)
	net, _ := NewNetwork(topo, 0.5)
	if _, err := NewSwitchLocalRaw(net, -0.5); err == nil {
		t.Fatal("negative sc accepted")
	}
	if _, err := NewSwitchLocal(net, 2); err == nil {
		t.Fatal("c > 1 accepted")
	}
}

// TestEnginePolicies drives one seeded report/repair script through the
// engine under each policy, twice: once over a whole Clos, and once as a
// fleet shards it, over one engine per segment's sub-topology, each seeing
// its own segment's reports and repairs. Every decision and every
// activation result must agree, the capacity constraint must hold
// throughout, and each policy must reach the outcomes it can produce.
func TestEnginePolicies(t *testing.T) {
	topo := shardTestTopo(t)
	graphs := segmentGraphs(t, topo)

	type op struct {
		repair bool
		link   topology.LinkID
		rate   float64
	}
	var script []op
	var reported []topology.LinkID
	rates := []float64{5e-7, 1e-5, 1e-4, 1e-3}
	rng := rngutil.New(12).Split("engine-policies")
	for len(script) < 1500 {
		if len(reported) > 0 && rng.Bool(0.4) {
			script = append(script, op{repair: true, link: reported[rng.Intn(len(reported))]})
			continue
		}
		l := topology.LinkID(rng.Intn(topo.NumLinks()))
		script = append(script, op{link: l, rate: rates[rng.Intn(len(rates))]})
		reported = append(reported, l)
	}

	all := []Outcome{OutcomeBelowThreshold, OutcomeAlreadyDisabled, OutcomeDisabled, OutcomeBlocked}
	for _, tc := range []struct {
		policy PolicyKind
		want   []Outcome
	}{
		{PolicyNone, []Outcome{OutcomeBelowThreshold, OutcomeBlocked}},
		{PolicySwitchLocal, all},
		{PolicyFastOnly, all},
		{PolicyCorrOpt, all},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			build := func(topo *topology.Topology) *Engine {
				// c = 0.25: the switch-local rule then lets one of a switch's
				// three uplinks go (sc = 0.5), so every policy has room to act.
				net, err := NewNetwork(topo, 0.25)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewPolicyEngine(net, tc.policy, EngineConfig{})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			whole := build(topo)
			shards := make([]*Engine, len(graphs))
			for i, sg := range graphs {
				shards[i] = build(sg.Topo)
			}
			seen := map[Outcome]bool{}
			activated := 0
			for i, o := range script {
				sg := graphs[topo.LinkSegment(o.link)]
				shard, local := shards[topo.LinkSegment(o.link)], toLocal(t, sg, o.link)
				if o.repair {
					got := whole.LinkRepaired(o.link)
					if sc := toSource(sg, shard.LinkRepaired(local)); !slices.Equal(sc, got) {
						t.Fatalf("op %d: repair of %d: shard activation disabled %v, whole-topology %v", i, o.link, sc, got)
					}
					activated += len(got)
				} else {
					got, sc := whole.ReportCorruption(o.link, o.rate), shard.ReportCorruption(local, o.rate)
					if got.Outcome != sc.Outcome || got.Disabled != sc.Disabled || got.Reason() != sc.Reason() {
						t.Fatalf("op %d: report %d at %g: shard engine decided %+v, whole-topology %+v", i, o.link, o.rate, sc, got)
					}
					down := got.Outcome == OutcomeDisabled || got.Outcome == OutcomeAlreadyDisabled
					if got.Disabled != down || (down && !whole.Network().Disabled(o.link)) || (got.Reason() == "") != (got.Outcome == OutcomeDisabled) {
						t.Fatalf("op %d: inconsistent decision %+v (reason %q)", i, got, got.Reason())
					}
					seen[got.Outcome] = true
				}
				if !whole.Network().Feasible(nil) {
					t.Fatalf("op %d: capacity constraint violated", i)
				}
			}
			for _, o := range all {
				if seen[o] != slices.Contains(tc.want, o) {
					t.Errorf("outcome %d seen=%v, want %v", o, seen[o], !seen[o])
				}
			}
			if (activated > 0) != (tc.policy != PolicyNone) {
				t.Errorf("activations disabled %d links in total", activated)
			}
			down := 0
			for _, sh := range shards {
				down += sh.Network().NumDisabled()
			}
			if whole.Network().NumDisabled() != down {
				t.Errorf("final state differs: %d vs %d links down", whole.Network().NumDisabled(), down)
			}
		})
	}

	net, _ := NewNetwork(topo, 0.25)
	if _, err := NewPolicyEngine(net, PolicyKind(9), EngineConfig{}); err == nil {
		t.Error("unknown policy accepted")
	}
}
