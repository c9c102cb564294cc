package sim

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"corropt/internal/core"
	"corropt/internal/optics"
	"corropt/internal/tickets"
	"corropt/internal/topology"
)

// scratchConfigs covers every simulator feature that touches pooled state:
// policies, bounded technicians, detection delay, recommendation repairs,
// drain mode, breakout collateral, and the multi-technology deployed-engine
// regime of the fleet and sec72 studies (TechAssign drives State.Reset's
// per-link re-dressing path).
func scratchConfigs() []Config {
	techs := optics.DefaultTechnologies()
	mixAssign := func(l topology.LinkID) optics.Technology {
		return techs[int(l)%len(techs)]
	}
	return []Config{
		{Policy: PolicyCorrOpt, Seed: 2},
		{Policy: PolicySwitchLocal, Seed: 3, Capacity: 0.5},
		{Policy: PolicyFastOnly, Seed: 4, DetectionDelay: 15 * time.Minute},
		{Policy: PolicyCorrOpt, Seed: 5, RepairConfig: core.RepairConfig{Staffing: tickets.Staffing{Technicians: 2}}, Repair: RepairRecommendation, IgnoreProb: 0.3},
		{Policy: PolicyCorrOpt, Seed: 6, RepairConfig: core.RepairConfig{DrainMode: true, RepairCollateral: true}, FixedAccuracy: 0.5},
		{Policy: PolicyNone, Seed: 7},
		{Policy: PolicyCorrOpt, Seed: 8, Capacity: 0.5, Repair: RepairRecommendation,
			IgnoreProb: 0.3, NoOpticsFraction: 0.25, RepairConfig: core.RepairConfig{UseDeployedEngine: true}, TechAssign: mixAssign},
	}
}

// TestScratchMatchesFresh is the sim-level differential test: replaying a
// sequence of scenarios through one pooled Scratch must produce Results
// deep-equal to fresh-allocation reference Sims, including when consecutive
// scenarios alternate configs and reuse dirties every pooled structure. The
// same holds through RunAll at workers 1 and 4, over a list that alternates
// two fabrics and includes a replay with scheduled clears.
func TestScratchMatchesFresh(t *testing.T) {
	topo := simTopo(t)
	horizon := 21 * 24 * time.Hour
	trace := genTrace(t, topo, 0.004, horizon, 11)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	sc := NewScratch()
	// Two passes over the configs: the second pass hits a fully warmed
	// (and previously dirtied) scratch.
	for pass := 0; pass < 2; pass++ {
		for i, cfg := range scratchConfigs() {
			fresh, err := New(topo, simTech(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run(trace, horizon)
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := NewWithScratch(topo, simTech(), cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			if n := pooled.Network().NumActiveCorrupting(0); n != 0 {
				t.Fatalf("pass %d config %d: reused Network starts with %d active corrupting links", pass, i, n)
			}
			got, err := pooled.Run(trace, horizon)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d config %d (%v): scratch result differs from fresh reference",
					pass, i, cfg.Policy)
			}
			checkActiveCorrupting(t, pooled.Network(), 0)
		}
	}

	other, err := topology.NewClos(topology.ClosConfig{
		Pods: 3, ToRsPerPod: 4, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	otherTrace := genTrace(t, other, 0.01, horizon, 12)
	var replays []Replay
	for _, cfg := range scratchConfigs() {
		replays = append(replays,
			Replay{Topo: topo, Tech: simTech(), Config: cfg, Trace: trace, Horizon: horizon},
			Replay{Topo: other, Tech: simTech(), Config: cfg, Trace: otherTrace, Horizon: horizon})
	}
	flaps, clears := flapTrace(0, time.Hour, 6*time.Hour, 2*time.Hour, 20, 1e-3)
	replays = append(replays, Replay{Topo: topo, Tech: simTech(), Config: Config{Policy: PolicyCorrOpt, Seed: 10},
		Trace: flaps, Clears: clears, Horizon: horizon})
	want := make([]*Result, len(replays))
	for i, r := range replays {
		fresh, err := New(r.Topo, r.Tech, r.Config)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = fresh.RunEvents(r.Trace, r.Clears, r.Horizon); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		got, err := RunAll(workers, replays)
		if err != nil {
			t.Fatal(err)
		}
		for i := range replays {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers %d replay %d: RunAll result differs from fresh reference", workers, i)
			}
		}
	}
}

// TestScratchRekeysThreshold runs one pooled Scratch at detection threshold
// 1e-6, then 1e-4, then 1e-6 again: each run's engine re-keys the pooled
// Network's reportable index, and each run must match fresh construction.
func TestScratchRekeysThreshold(t *testing.T) {
	topo := simTopo(t)
	horizon := 21 * 24 * time.Hour
	trace := genTrace(t, topo, 0.004, horizon, 11)
	sc := NewScratch()
	var prev *Result
	for _, threshold := range []float64{1e-6, 1e-4, 1e-6} {
		cfg := Config{Policy: PolicyCorrOpt, Seed: 10, DetectionThreshold: threshold}
		fresh, err := New(topo, simTech(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(trace, horizon)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := NewWithScratch(topo, simTech(), cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pooled.Run(trace, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("threshold %v: scratch result differs from fresh reference", threshold)
		}
		if prev != nil && reflect.DeepEqual(prev, want) {
			t.Fatalf("threshold %v: same result as the previous threshold; the trace cannot tell them apart", threshold)
		}
		prev = want
		for _, th := range []float64{threshold, 1e-6, 1e-4, 1e-7} {
			checkActiveCorrupting(t, pooled.Network(), th)
		}
	}
}

// checkActiveCorrupting holds the pooled Network's corrupting and reportable
// indexes — reset, then rewritten by a whole run — to a scan over every link
// at the given threshold, first as the run left it and again with every link
// enabled, so that the disabled corrupting links are read through the
// indexes too.
func checkActiveCorrupting(t *testing.T, net *core.Network, threshold float64) {
	t.Helper()
	for _, enableAll := range []bool{false, true} {
		var want []topology.LinkID
		for l := topology.LinkID(0); int(l) < net.Topology().NumLinks(); l++ {
			if enableAll {
				net.Enable(l)
			}
			if r := net.CorruptionRate(l); r > 0 && r >= threshold && !net.Disabled(l) {
				want = append(want, l)
			}
		}
		if got := net.ActiveCorrupting(threshold); !slices.Equal(got, want) {
			t.Fatalf("ActiveCorrupting(%v) = %v, a scan of every link finds %v (all enabled: %v)", threshold, got, want, enableAll)
		}
		if got := net.NumActiveCorrupting(threshold); got != len(want) {
			t.Fatalf("NumActiveCorrupting(%v) = %d, a scan of every link finds %d", threshold, got, len(want))
		}
	}
}

// TestScratchAcrossTopologies pins the per-topology slot: a walk over
// several fabrics that repeats some back to back (slot hits) and returns to
// others after the slot moved on (misses that rebuild) must still match
// fresh references on every scenario.
func TestScratchAcrossTopologies(t *testing.T) {
	horizon := 14 * 24 * time.Hour
	var topos []*topology.Topology
	for i := 0; i < 4; i++ {
		topo, err := topology.NewClos(topology.ClosConfig{
			Pods: 2 + i, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	sc := NewScratch()
	cfg := Config{Policy: PolicyCorrOpt, Seed: 9}
	run := func(topo *topology.Topology, sc *Scratch) *Result {
		trace := genTrace(t, topo, 0.01, horizon, 21)
		s, err := NewWithScratch(topo, simTech(), cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Walk the fabrics forward then back: repeated fabrics hit the slot, and
	// a return to an earlier fabric arrives after the slot was replaced.
	order := []int{0, 0, 1, 2, 2, 3, 2, 0, 0, 1}
	for _, i := range order {
		got := run(topos[i], sc)
		want := run(topos[i], nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fabric %d: scratch result differs from fresh reference", i)
		}
	}
}
