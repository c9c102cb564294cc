package corropt

import (
	"testing"
	"time"
)

// TestFacadeQuickstart exercises the README's quickstart flow through the
// public API only.
func TestFacadeQuickstart(t *testing.T) {
	topo, err := NewClos(ClosConfig{
		Pods: 2, ToRsPerPod: 4, AggsPerPod: 4, Spines: 8, SpineUplinksPerAgg: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(topo, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(net, EngineConfig{})

	tor := topo.ToRs()[0]
	link := topo.Uplinks(tor)[0]
	d := engine.ReportCorruption(link, 1e-3)
	if !d.Disabled {
		t.Fatalf("link not disabled: %+v", d)
	}
	newly := engine.LinkRepaired(link)
	if len(newly) != 0 {
		t.Fatalf("optimizer disabled %v with nothing else corrupting", newly)
	}
}

func TestFacadeRecommendation(t *testing.T) {
	tech := DefaultTechnologies()[0]
	d := Diagnostics{
		HasOptics: true,
		Rx1:       tech.RxThreshold - 3, // one starved receiver
		Rx2:       tech.NominalTx,
		Tx2:       tech.NominalTx,
		Tech:      tech,
	}
	if got := Recommend(d); got != ActionCleanFiber {
		t.Fatalf("Recommend = %v, want clean-fiber", got)
	}
	if got := RecommendDeployed(d); got != ActionCleanFiber {
		t.Fatalf("RecommendDeployed = %v", got)
	}
}

func TestFacadeSimulation(t *testing.T) {
	topo, err := NewClos(ClosConfig{
		Pods: 2, ToRsPerPod: 4, AggsPerPod: 4, Spines: 8, SpineUplinksPerAgg: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	tech := DefaultTechnologies()[1]
	inj, err := NewInjector(topo, tech, InjectorConfig{FaultsPerLinkPerDay: 0.01}, 42)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 14 * 24 * time.Hour
	s, err := NewSim(topo, tech, SimConfig{Policy: PolicyCorrOpt, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(inj.Generate(horizon), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
}

func TestFacadeControlPlane(t *testing.T) {
	topo, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(topo, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController("127.0.0.1:0", NewEngine(net, EngineConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	cli, err := DialController(ctl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	st, err := cli.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Links != topo.NumLinks() {
		t.Fatalf("status links = %d, want %d", st.Links, topo.NumLinks())
	}
}

func TestFacadePenalties(t *testing.T) {
	if LinearPenalty(0.5) != 0.5 {
		t.Fatal("LinearPenalty broken")
	}
	if TCPThroughputPenalty(1e-2) <= TCPThroughputPenalty(1e-6) {
		t.Fatal("TCP penalty not increasing")
	}
}

func TestFacadeCoverage(t *testing.T) {
	// Exercise the remaining façade constructors end to end.
	b := NewBuilder()
	s0 := b.AddSwitch("t0", 0, 0)
	s1 := b.AddSwitch("a0", 1, 0)
	s2 := b.AddSwitch("sp0", 2, -1)
	b.AddLink(s0, s1, -1)
	b.AddLink(s1, s2, -1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(topo, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	fc := NewFastChecker(net)
	net.SetCorruption(0, 1e-3)
	if fc.DisableIfSafe(0) {
		t.Fatal("disabling the only uplink should be refused")
	}
	opt := NewOptimizer(net, LinearPenalty, OptimizerConfig{})
	if disabled, _ := opt.Run(1e-6); len(disabled) != 0 {
		t.Fatalf("optimizer disabled %v on a path-critical link", disabled)
	}
	sl, err := NewSwitchLocal(net, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sl.CanDisable(0) {
		t.Fatal("switch-local should refuse too")
	}
	st := NewFaultState(topo, DefaultTechnologies()[0])
	if st.NumActiveFaults() != 0 {
		t.Fatal("fresh state has faults")
	}
}
