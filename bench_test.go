package corropt

// One benchmark per table and figure of the paper, each regenerating its
// experiment end to end (at small scale so `go test -bench=.` stays
// minutes, not hours — run cmd/corropt-experiments -scale medium|large for
// the full-size reproductions), plus performance benchmarks for the §5.1
// runtime claims (fast checker: 100–300 ms on the largest DCN; optimizer:
// under a minute) and ablations of the optimizer's design choices.

import (
	"math"
	"testing"
	"time"

	"corropt/internal/core"
	"corropt/internal/experiments"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// BenchmarkExperiment regenerates every registered experiment end to end,
// one sub-benchmark per id that `corropt-experiments -list` prints.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.List() {
		id := e[0]
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := experiments.Run(id, experiments.Config{Scale: experiments.ScaleSmall, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Rows) == 0 {
					b.Fatalf("%s produced no rows", id)
				}
			}
		})
	}
}

// largeNetwork builds the O(35K)-link evaluation topology with a
// population of corrupting links for the performance benchmarks.
func largeNetwork(b *testing.B, capacity float64, nCorrupt int) (*Network, []LinkID) {
	b.Helper()
	topo, err := experiments.DCN(experiments.ScaleLarge)
	if err != nil {
		b.Fatal(err)
	}
	net, err := NewNetwork(topo, capacity)
	if err != nil {
		b.Fatal(err)
	}
	rng := rngutil.New(99)
	var corrupting []LinkID
	seen := make(map[LinkID]bool)
	for len(corrupting) < nCorrupt {
		l := LinkID(rng.Intn(topo.NumLinks()))
		if !seen[l] {
			seen[l] = true
			net.SetCorruption(l, math.Pow(10, rng.Range(-6, -2)))
			corrupting = append(corrupting, l)
		}
	}
	return net, corrupting
}

// BenchmarkFastChecker measures one fast-check decision on the largest
// DCN. The paper reports 100–300 ms for its Python prototype; the Go
// implementation should be far under that.
func BenchmarkFastChecker(b *testing.B) {
	net, corrupting := largeNetwork(b, 0.75, 200)
	fc := NewFastChecker(net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := corrupting[i%len(corrupting)]
		fc.CanDisable(l)
	}
	b.ReportMetric(float64(net.Topology().NumLinks()), "links")
}

// BenchmarkOptimizer measures one full optimizer run (pruning +
// segmentation + exact search) over 200 active corrupting links on the
// large DCN. The paper's prototype finishes in under a minute on a 1.3 GHz
// 2-core machine.
func BenchmarkOptimizer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, _ := largeNetwork(b, 0.75, 200)
		opt := NewOptimizer(net, LinearPenalty, OptimizerConfig{})
		b.StartTimer()
		disabled, _ := opt.Run(1e-6)
		if len(disabled) == 0 {
			b.Fatal("optimizer disabled nothing")
		}
	}
}

// BenchmarkPathCounting measures the O(|V|+|E|) valley-free path count
// sweep that underlies every capacity check in the legacy full-recount
// path. The incremental variant below is its replacement on the hot paths;
// comparing the two quantifies the engine's win.
func BenchmarkPathCounting(b *testing.B) {
	topo, err := experiments.DCN(experiments.ScaleLarge)
	if err != nil {
		b.Fatal(err)
	}
	pc := topology.NewPathCounter(topo)
	disabled := func(l topology.LinkID) bool { return l%97 == 0 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.Count(disabled)
	}
}

// BenchmarkPathCountingIncremental measures one Apply+Revert delta pair on
// the large DCN — the unit of work of the fast checker's probe and the
// optimizer DFS's branch step.
func BenchmarkPathCountingIncremental(b *testing.B) {
	b.ReportAllocs()
	topo, err := experiments.DCN(experiments.ScaleLarge)
	if err != nil {
		b.Fatal(err)
	}
	pc := topology.NewPathCounter(topo)
	links := topo.Switch(topo.ToRs()[0]).Uplinks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := links[i%len(links)]
		pc.Apply(l)
		pc.Revert(l)
	}
}

// Ablation benches: the optimizer's accelerations, measured on a
// constrained scenario where the exact search actually has work to do.

// ablationScenario: a medium DCN with heavy corruption clustered so that
// pruning, segmentation and the cache all engage.
func ablationScenario(b *testing.B) *Network {
	b.Helper()
	topo, err := experiments.DCN(experiments.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	net, err := NewNetwork(topo, 0.75)
	if err != nil {
		b.Fatal(err)
	}
	rng := rngutil.New(123)
	// Cluster corruption on a few ToRs' uplinks to create contested
	// segments, plus scattered background corruption.
	tors := topo.ToRs()
	for i := 0; i < 6; i++ {
		tor := tors[rng.Intn(len(tors))]
		for _, l := range topo.Switch(tor).Uplinks {
			net.SetCorruption(l, math.Pow(10, rng.Range(-5, -2)))
		}
	}
	for i := 0; i < 30; i++ {
		net.SetCorruption(LinkID(rng.Intn(topo.NumLinks())), math.Pow(10, rng.Range(-6, -3)))
	}
	return net
}

func benchOptimizerConfig(b *testing.B, cfg OptimizerConfig) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := ablationScenario(b)
		opt := NewOptimizer(net, LinearPenalty, cfg)
		b.StartTimer()
		_, st := opt.Run(1e-6)
		b.ReportMetric(float64(st.FeasibilityChecks), "feas-checks")
	}
}

func BenchmarkAblationBaseline(b *testing.B) {
	benchOptimizerConfig(b, OptimizerConfig{})
}

func BenchmarkAblationNoRejectCache(b *testing.B) {
	benchOptimizerConfig(b, OptimizerConfig{DisableRejectCache: true})
}

func BenchmarkAblationNoPruning(b *testing.B) {
	benchOptimizerConfig(b, OptimizerConfig{DisablePruning: true})
}

func BenchmarkAblationNoSegmentation(b *testing.B) {
	benchOptimizerConfig(b, OptimizerConfig{DisableSegmentation: true})
}

// BenchmarkAblationPolicies compares the three decision policies on one
// trace: the work per simulated month of each strategy.
func BenchmarkAblationPolicies(b *testing.B) {
	topo, err := experiments.DCN(experiments.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	tech := DefaultTechnologies()[1]
	inj, err := NewInjector(topo, tech, InjectorConfig{FaultsPerLinkPerDay: 0.005}, 7)
	if err != nil {
		b.Fatal(err)
	}
	horizon := 30 * 24 * time.Hour
	faultTrace := inj.Generate(horizon)
	for _, p := range []PolicyKind{PolicySwitchLocal, PolicyFastOnly, PolicyCorrOpt} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := NewSim(topo, tech, SimConfig{Policy: p, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run(faultTrace, horizon)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.IntegratedPenalty, "penalty-s")
			}
		})
	}
}

// BenchmarkAblationPenaltyFunction compares linear and TCP-throughput
// penalties: the optimizer's choices change, its cost should not blow up.
func BenchmarkAblationPenaltyFunction(b *testing.B) {
	for _, pf := range []struct {
		name string
		fn   PenaltyFunc
	}{
		{"linear", LinearPenalty},
		{"tcp-throughput", TCPThroughputPenalty},
		{"step", core.StepPenalty(1e-4)},
	} {
		b.Run(pf.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net := ablationScenario(b)
				opt := NewOptimizer(net, pf.fn, OptimizerConfig{})
				b.StartTimer()
				disabled, _ := opt.Run(1e-6)
				b.ReportMetric(float64(len(disabled)), "disabled")
			}
		})
	}
}
