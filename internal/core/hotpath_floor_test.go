package core

import (
	"math"
	"slices"
	"testing"

	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// hotpathFloor is one row of the package's measured 0-allocation floors; the
// contract, and the negative control for AllocsPerRun(1, pass), are in
// internal/topology/hotpath_floor_test.go.
type hotpathFloor struct {
	name  string
	roots []string
	// setup builds the row's inputs once and returns one full pass over them.
	setup func(tb testing.TB) (pass func())
}

// largeCorruptingNetwork builds a Network at c = 0.75 over the paper's
// O(35K)-link large DCN (34,560 links) with 200 distinct corrupting links.
func largeCorruptingNetwork(tb testing.TB) (*Network, []topology.LinkID) {
	tb.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 72, ToRsPerPod: 56, AggsPerPod: 6,
		Spines: 144, SpineUplinksPerAgg: 24, BreakoutSize: 4,
	})
	if err != nil {
		tb.Fatal(err)
	}
	net, err := NewNetwork(topo, 0.75)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rngutil.New(99)
	var corrupting []topology.LinkID
	for len(corrupting) < 200 {
		l := topology.LinkID(rng.Intn(topo.NumLinks()))
		if net.CorruptionRate(l) == 0 {
			net.SetCorruption(l, math.Pow(10, rng.Range(-6, -2)))
			corrupting = append(corrupting, l)
		}
	}
	return net, corrupting
}

// activeCorruptingPass collects the active corrupting set at threshold into
// a retained buffer — grown by the warm-up pass: AppendActiveCorrupting's
// appends — and requires the count to agree.
func activeCorruptingPass(tb testing.TB, net *Network, threshold float64) func() {
	var buf []topology.LinkID
	return func() {
		buf = net.AppendActiveCorrupting(buf[:0], threshold)
		if len(buf) == 0 || len(buf) != net.NumActiveCorrupting(threshold) {
			tb.Fatalf("%d active corrupting links collected, %d counted", len(buf), net.NumActiveCorrupting(threshold))
		}
	}
}

var hotpathFloors = []hotpathFloor{{
	// One fast-check decision per corrupting link on the large DCN: the
	// per-event decision §5.1 budgets 100–300 ms for. The warm-up pass grows
	// PathCounter.propagate's scratch buffers; no ToR is in violation, so the
	// `lint:allow escapes` DownstreamToRs site is not on the path.
	name:  "fast_checker",
	roots: []string{"(*FastChecker).CanDisable"},
	setup: func(tb testing.TB) func() {
		net, corrupting := largeCorruptingNetwork(tb)
		fc := NewFastChecker(net)
		return func() {
			for _, l := range corrupting {
				fc.CanDisable(l)
			}
		}
	},
}, {
	// One report through the engine (record + check + disable). Each link —
	// the 200 scattered ones plus every uplink of one ToR, of which capacity
	// lets only some go — is reported below the threshold, then above it
	// twice, so a pass visits all four outcomes; re-enabling the links puts
	// the next pass on the same footing.
	name:  "engine_report",
	roots: []string{"(*Engine).ReportCorruption"},
	setup: func(tb testing.TB) func() {
		net, corrupting := largeCorruptingNetwork(tb)
		topo := net.Topology()
		corrupting = append(corrupting, topo.Uplinks(topo.ToRs()[0])...)
		engine := NewEngine(net, EngineConfig{})
		return func() {
			var seen [4]int
			for _, l := range corrupting {
				for _, rate := range [...]float64{5e-7, 1e-4, 1e-4} {
					seen[engine.ReportCorruption(l, rate).Outcome]++
				}
			}
			if slices.Contains(seen[:], 0) {
				tb.Fatalf("an outcome was never reached: %v", seen)
			}
			for _, l := range corrupting {
				net.Enable(l)
			}
		}
	},
}, {
	// One pass of the repair loop over engine_report's links: each is
	// reported below the threshold and above it twice, which reaches all
	// four outcomes and tickets every disable from the arena the warm-up
	// grew; then every link is reported clean, so the activation re-checks
	// find nothing to disable, and every ticket is resolved as a fix, which
	// leaves the next pass where this one started.
	name:  "loop_step",
	roots: []string{"(*RepairLoop).Step"},
	setup: func(tb testing.TB) func() {
		net, corrupting := largeCorruptingNetwork(tb)
		topo := net.Topology()
		corrupting = append(corrupting, topo.Uplinks(topo.ToRs()[0])...)
		loop, err := NewRepairLoop(NewEngine(net, EngineConfig{}), RepairConfig{}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		var down []topology.LinkID
		step := func(in Input) (Decision, RepairStep) {
			d, s, err := loop.Step(in)
			if err != nil {
				tb.Fatal(err)
			}
			return d, s
		}
		return func() {
			var seen [4]int
			down = down[:0]
			for _, l := range corrupting {
				for _, rate := range [...]float64{5e-7, 1e-4, 1e-4} {
					d, s := step(Input{Link: l, Kind: InputReport, Rate: rate})
					seen[d.Outcome]++
					for _, o := range s.Opened {
						down = append(down, o.Ticket.Link)
					}
				}
			}
			if slices.Contains(seen[:], 0) {
				tb.Fatalf("an outcome was never reached: %v", seen)
			}
			for _, l := range corrupting {
				step(Input{Link: l, Kind: InputReport})
			}
			for _, l := range down {
				if _, s := step(Input{Link: l, Kind: InputRepaired}); s.Resolution != Enabled || len(s.Opened) != 0 {
					tb.Fatalf("repairing link %d: %+v", l, s)
				}
			}
			if net.NumDisabled() != 0 {
				tb.Fatalf("%d links still down after the pass", net.NumDisabled())
			}
		}
	},
}, {
	// Incremental penalty accounting on the paper's medium DCN: every link's
	// rate is moved (alternating between two values, so each pass folds a
	// real delta through netstate's Penalty.Update) and the amortised sum is
	// read after each move, rebuild epochs included.
	name:  "penalty_sum",
	roots: []string{"(*Network).PenaltySum"},
	setup: func(tb testing.TB) func() {
		net := mediumNetwork(tb)
		net.RegisterPenalty(LinearPenalty)
		rate := 1e-4
		return func() {
			rate = 3e-4 - rate
			sum := 0.0
			for l := 0; l < net.Topology().NumLinks(); l++ {
				net.SetCorruption(topology.LinkID(l), rate)
				sum += net.PenaltySum()
			}
			if sum <= 0 {
				tb.Fatalf("penalty sums add up to %v", sum)
			}
		}
	},
}, {
	// The two readers of the active corrupting set on their filtered walk:
	// a threshold the network is not keyed to, ~100 corrupting and ~30
	// disabled links.
	name:  "active_corrupting/general",
	roots: []string{"(*Network).AppendActiveCorrupting", "(*Network).NumActiveCorrupting"},
	setup: func(tb testing.TB) func() {
		net := mediumNetwork(tb)
		rng := rngutil.New(5).Split("bench")
		for i := 0; i < 100; i++ {
			l := topology.LinkID(rng.Intn(net.Topology().NumLinks()))
			net.SetCorruption(l, math.Pow(10, rng.Range(-8, -2)))
			if i%3 == 0 {
				net.Disable(l)
			}
		}
		return activeCorruptingPass(tb, net, 1e-7)
	},
}, {
	// The same two readers on the live list, at the detection threshold the
	// network is keyed to, with the shape of a running simulation: ~1,400
	// recorded rates below 1e-6 and 15 links above it.
	name:  "active_corrupting/keyed",
	roots: []string{"(*Network).AppendActiveCorrupting", "(*Network).NumActiveCorrupting"},
	setup: func(tb testing.TB) func() {
		net := mediumNetwork(tb)
		rng := rngutil.New(5).Split("bench")
		for i := 0; i < 1415; i++ {
			l := topology.LinkID(rng.Intn(net.Topology().NumLinks()))
			if i < 1400 {
				net.SetCorruption(l, math.Pow(10, rng.Range(-8, -6.001)))
			} else {
				net.SetCorruption(l, math.Pow(10, rng.Range(-6, -2)))
			}
		}
		return activeCorruptingPass(tb, net, DefaultDetectionThreshold)
	},
}, {
	// The sampler's capacity read on the paper's medium DCN: each of 40
	// links spread over the fabric is disabled, the fractions read, and the
	// link enabled again, so every read resumes from a different ToR. The
	// warm-up pass builds the cache: ToRFractions' `lint:allow escapes` site.
	name:  "tor_fractions",
	roots: []string{"(*Network).ToRFractions"},
	setup: func(tb testing.TB) func() {
		net := mediumNetwork(tb)
		step := net.Topology().NumLinks() / 40
		return func() {
			for l := 0; l < net.Topology().NumLinks(); l += step {
				net.Disable(topology.LinkID(l))
				if worst, mean := net.ToRFractions(); worst >= 1 || mean >= 1 {
					tb.Fatalf("link %d down, fractions (%v, %v) still 1", l, worst, mean)
				}
				net.Enable(topology.LinkID(l))
			}
		}
	},
}}

func TestHotpathFloors(t *testing.T) {
	for _, f := range hotpathFloors {
		t.Run(f.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(1, f.setup(t)); n != 0 {
				t.Errorf("%v allocs in one steady-state pass, want 0", n)
			}
		})
	}
}
