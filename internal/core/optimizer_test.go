package core

import (
	"fmt"
	"math"
	"testing"

	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// fig11 builds the topology-pruning example of Figure 11: four ToRs G–J
// sharing two aggregation switches, a 50% capacity constraint, and four
// corrupting links of which only ToR J's are at risk — the other three can
// be pruned away and disabled unconditionally.
func fig11(t *testing.T) (*Network, map[string]topology.LinkID) {
	t.Helper()
	b := topology.NewBuilder()
	s1 := b.AddSwitch("S1", 2, -1)
	s2 := b.AddSwitch("S2", 2, -1)
	aggA := b.AddSwitch("A", 1, 0)
	aggB := b.AddSwitch("B", 1, 0)
	links := make(map[string]topology.LinkID)
	for _, name := range []string{"G", "H", "I", "J"} {
		tor := b.AddSwitch(name, 0, 0)
		links[name+"-A"] = b.AddLink(tor, aggA, -1)
		links[name+"-B"] = b.AddLink(tor, aggB, -1)
	}
	links["A-S1"] = b.AddLink(aggA, s1, -1)
	links["B-S2"] = b.AddLink(aggB, s2, -1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(topo, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupting: G-A, H-A, I-B (safe), and both of J's uplinks (contested).
	net.SetCorruption(links["G-A"], 1e-3)
	net.SetCorruption(links["H-A"], 1e-3)
	net.SetCorruption(links["I-B"], 1e-3)
	net.SetCorruption(links["J-A"], 1e-2) // the worse of J's two
	net.SetCorruption(links["J-B"], 1e-4)
	return net, links
}

func TestFig11Pruning(t *testing.T) {
	net, links := fig11(t)
	opt := NewOptimizer(net, LinearPenalty, OptimizerConfig{})
	disabled, st := opt.Run(1e-6)

	// Pruning identifies J as the only endangered ToR and disables the
	// three links not upstream of it unconditionally.
	if st.SafelyDisabled != 3 {
		t.Fatalf("safely disabled = %d, want 3 (stats %+v)", st.SafelyDisabled, st)
	}
	if st.Segments != 1 {
		t.Fatalf("segments = %d, want 1", st.Segments)
	}
	// Of J's two corrupting uplinks exactly one (the worse) goes down.
	if !net.Disabled(links["J-A"]) {
		t.Fatal("the higher-rate J uplink should be disabled")
	}
	if net.Disabled(links["J-B"]) {
		t.Fatal("disabling both of J's uplinks would disconnect it")
	}
	if len(disabled) != 4 {
		t.Fatalf("disabled %d links, want 4", len(disabled))
	}
	if net.WorstToRFraction() < 0.5 {
		t.Fatal("constraint violated")
	}
}

func TestOptimizerDisablesEverythingWhenFeasible(t *testing.T) {
	topo := smallClos(t)
	net, _ := NewNetwork(topo, 0.25)
	// Corrupt one agg uplink per pod; with c=25% all can go.
	for _, tor := range topo.ToRs() {
		net.SetCorruption(topo.Switch(tor).Uplinks[0], 1e-4)
	}
	opt := NewOptimizer(net, LinearPenalty, OptimizerConfig{})
	disabled, st := opt.Run(1e-6)
	if len(disabled) != len(topo.ToRs()) {
		t.Fatalf("disabled %d, want %d", len(disabled), len(topo.ToRs()))
	}
	if st.FeasibilityChecks != 0 && st.Segments != 0 {
		// All-feasible path short-circuits before segmentation.
		t.Logf("stats: %+v", st)
	}
	if got := net.TotalPenalty(LinearPenalty); got != 0 {
		t.Fatalf("penalty after full disable = %v", got)
	}
}

func TestOptimizerNoCorruption(t *testing.T) {
	topo := smallClos(t)
	net, _ := NewNetwork(topo, 0.5)
	opt := NewOptimizer(net, LinearPenalty, OptimizerConfig{})
	disabled, st := opt.Run(1e-6)
	if disabled != nil || st.Active != 0 {
		t.Fatalf("optimizer invented work: %v %+v", disabled, st)
	}
}

// bruteForceBest enumerates every subset of the active corrupting links and
// returns the maximum total penalty that can be disabled while keeping all
// ToRs feasible. Exponential; only for small tests.
func bruteForceBest(net *Network, threshold float64, pen PenaltyFunc) float64 {
	active := net.ActiveCorrupting(threshold)
	if len(active) > 20 {
		panic("bruteForceBest: too many active links")
	}
	best := 0.0
	extra := make(map[topology.LinkID]bool)
	for mask := 0; mask < 1<<uint(len(active)); mask++ {
		for k := range extra {
			delete(extra, k)
		}
		sum := 0.0
		for i, l := range active {
			if mask&(1<<uint(i)) != 0 {
				extra[l] = true
				sum += pen(net.CorruptionRate(l))
			}
		}
		if sum > best && net.Feasible(extra) {
			best = sum
		}
	}
	return best
}

func disabledPenalty(net *Network, disabled []topology.LinkID, pen PenaltyFunc) float64 {
	sum := 0.0
	for _, l := range disabled {
		sum += pen(net.CorruptionRate(l))
	}
	return sum
}

func randomCorruptionScenario(t *testing.T, seed uint64, nCorrupt int) *Network {
	t.Helper()
	rng := rngutil.New(seed)
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 2, ToRsPerPod: 3, AggsPerPod: 3, Spines: 6, SpineUplinksPerAgg: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(topo, 0.5+0.25*rng.Float64())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[topology.LinkID]bool)
	for len(seen) < nCorrupt {
		l := topology.LinkID(rng.Intn(topo.NumLinks()))
		if !seen[l] {
			seen[l] = true
			net.SetCorruption(l, math.Pow(10, rng.Range(-6, -2)))
		}
	}
	return net
}

func TestOptimizerMatchesBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		net := randomCorruptionScenario(t, seed, 10)
		want := bruteForceBest(net, 1e-7, LinearPenalty)
		opt := NewOptimizer(net, LinearPenalty, OptimizerConfig{})
		disabled, st := opt.Run(1e-7)
		got := disabledPenalty(net, disabled, LinearPenalty)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("seed %d: optimizer penalty %v, brute force %v (stats %+v)", seed, got, want, st)
		}
		if !net.Feasible(nil) {
			t.Fatalf("seed %d: optimizer left the network infeasible", seed)
		}
	}
}

func TestOptimizerExactUnderAllAblations(t *testing.T) {
	// Pruning, segmentation and the reject cache are accelerations: they
	// must never change the answer.
	configs := []OptimizerConfig{
		{DisablePruning: true},
		{DisableSegmentation: true},
		{DisableRejectCache: true},
		{DisablePruning: true, DisableSegmentation: true, DisableRejectCache: true},
	}
	for seed := uint64(100); seed < 110; seed++ {
		net := randomCorruptionScenario(t, seed, 8)
		want := bruteForceBest(net, 1e-7, LinearPenalty)
		for ci, cfg := range configs {
			n2 := randomCorruptionScenario(t, seed, 8)
			opt := NewOptimizer(n2, LinearPenalty, cfg)
			disabled, _ := opt.Run(1e-7)
			got := disabledPenalty(n2, disabled, LinearPenalty)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("seed %d config %d: penalty %v, want %v", seed, ci, got, want)
			}
		}
		_ = net
	}
}

func TestRejectCacheReducesChecks(t *testing.T) {
	// On a constrained instance, the reject cache should save path counts.
	net, _ := fig10(t)
	optNoCache := NewOptimizer(net, LinearPenalty, OptimizerConfig{DisableRejectCache: true})
	_, stNo := optNoCache.Run(1e-6)

	net2, _ := fig10(t)
	optCache := NewOptimizer(net2, LinearPenalty, OptimizerConfig{})
	_, stYes := optCache.Run(1e-6)

	if stYes.RejectCacheHits == 0 {
		t.Logf("no cache hits on this instance (checks with=%d without=%d)", stYes.FeasibilityChecks, stNo.FeasibilityChecks)
	}
	if stYes.FeasibilityChecks > stNo.FeasibilityChecks {
		t.Fatalf("cache increased feasibility checks: %d > %d", stYes.FeasibilityChecks, stNo.FeasibilityChecks)
	}
}

func TestGreedyFallbackOnHugeSegment(t *testing.T) {
	net, _ := fig10(t)
	opt := NewOptimizer(net, LinearPenalty, OptimizerConfig{MaxExactLinks: 4})
	disabled, st := opt.Run(1e-6)
	if st.GreedyFallbacks == 0 {
		t.Fatalf("expected greedy fallback with MaxExactLinks=4 (stats %+v)", st)
	}
	if !net.Feasible(nil) {
		t.Fatal("greedy fallback violated constraints")
	}
	if len(disabled) == 0 {
		t.Fatal("greedy fallback disabled nothing")
	}
}

func TestSegmentationSplitsIndependentGroups(t *testing.T) {
	// Two pods, each with its own endangered ToR: the contested links of
	// different pods must land in different segments.
	b := topology.NewBuilder()
	var spines []topology.SwitchID
	for i := 0; i < 4; i++ {
		spines = append(spines, b.AddSwitch(fmt.Sprintf("s%d", i), 2, -1))
	}
	var corrupt []topology.LinkID
	for p := 0; p < 2; p++ {
		aggA := b.AddSwitch(fmt.Sprintf("a%d-0", p), 1, p)
		aggB := b.AddSwitch(fmt.Sprintf("a%d-1", p), 1, p)
		tor := b.AddSwitch(fmt.Sprintf("t%d", p), 0, p)
		l1 := b.AddLink(tor, aggA, -1)
		l2 := b.AddLink(tor, aggB, -1)
		b.AddLink(aggA, spines[p*2], -1)
		b.AddLink(aggB, spines[p*2+1], -1)
		corrupt = append(corrupt, l1, l2)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	net, _ := NewNetwork(topo, 0.5)
	for _, l := range corrupt {
		net.SetCorruption(l, 1e-3)
	}
	opt := NewOptimizer(net, LinearPenalty, OptimizerConfig{})
	disabled, st := opt.Run(1e-6)
	if st.Segments != 2 {
		t.Fatalf("segments = %d, want 2 (stats %+v)", st.Segments, st)
	}
	// Each ToR keeps one of its two uplinks: 2 disabled in total.
	if len(disabled) != 2 {
		t.Fatalf("disabled %d, want 2", len(disabled))
	}
	if !net.Feasible(nil) {
		t.Fatal("constraints violated")
	}
}

// activationState builds the engine state an activation re-check meets in a
// running simulation, on the paper's medium DCN at c = 0.75: six ToRs in six
// pods have every uplink corrupting, and the fast checker has taken down the
// worst uplink of each — all their capacity allows — so every re-check finds
// six violated ToRs in six segments. It returns the engine and those ToRs.
func activationState(tb testing.TB) (*Engine, []topology.SwitchID) {
	tb.Helper()
	net := mediumNetwork(tb)
	topo := net.Topology()
	e := NewEngine(net, EngineConfig{})
	var hot []topology.SwitchID
	for pod := 0; pod < 6; pod++ {
		tor := topo.ToRs()[pod*40]
		hot = append(hot, tor)
		ups := topo.Switch(tor).Uplinks
		for k := len(ups) - 1; k >= 0; k-- {
			e.ReportCorruption(ups[k], 1e-4*float64(1+k))
		}
	}
	return e, hot
}

// disabledUplink returns one of tor's disabled uplinks.
func disabledUplink(tb testing.TB, net *Network, tor topology.SwitchID) topology.LinkID {
	for _, l := range net.Topology().Switch(tor).Uplinks {
		if net.Disabled(l) {
			return l
		}
	}
	tb.Fatalf("ToR %d has no disabled uplink", tor)
	return topology.NoLink
}

// TestActivationRecheckAllocs holds the activation re-check's allocations
// exact on a warmed state: a re-check that disables nothing allocates
// nothing, and one that disables links allocates only the list it returns.
func TestActivationRecheckAllocs(t *testing.T) {
	e, hot := activationState(t)
	net := e.Network()
	topo := net.Topology()
	if _, st := e.Reoptimize(); len(e.opt.violatedBuf) < 5 || st.Segments < 3 {
		t.Fatalf("re-check finds %d violated ToRs in %d segments, want ≥ 5 in ≥ 3", len(e.opt.violatedBuf), st.Segments)
	}
	// An enabled clean agg uplink in a pod with no corruption.
	clean := topo.Switch(topo.Link(topo.Switch(topo.ToRs()[len(topo.ToRs())-1]).Uplinks[0]).Upper).Uplinks[0]
	nothing := func() {
		for range hot {
			if got := e.Activate(clean, Scope{}); got != nil {
				t.Fatalf("activating a clean link disabled %v", got)
			}
		}
	}
	if n := testing.AllocsPerRun(1, nothing); n != 0 {
		t.Errorf("a re-check that disables nothing: %v allocs, want 0", n)
	}
	// Re-enabling a ToR's disabled corrupting uplink makes room for exactly
	// one of its corrupting uplinks again.
	some := func() {
		for _, tor := range hot {
			if got := e.Activate(disabledUplink(t, net, tor), Scope{}); len(got) != 1 {
				t.Fatalf("re-check at ToR %d disabled %v, want one link", tor, got)
			}
		}
	}
	if n := testing.AllocsPerRun(1, some); n != float64(len(hot)) {
		t.Errorf("%d re-checks that disable a link: %v allocs, want %d (the returned lists)", len(hot), n, len(hot))
	}
}

// BenchmarkOptimizerActivation times one Engine.Activate of a repaired
// corrupting uplink — the enable plus the optimizer's pruning, segmentation
// and exact search over six violated ToRs — on the medium DCN.
func BenchmarkOptimizerActivation(b *testing.B) {
	e, hot := activationState(b)
	net := e.Network()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tor := hot[i%len(hot)]
		if len(e.Activate(disabledUplink(b, net, tor), Scope{})) != 1 {
			b.Fatal("re-check did not disable one link")
		}
	}
}
