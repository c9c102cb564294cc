package core

import (
	"testing"

	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/telemetry"
	"corropt/internal/topology"
)

func diagTech() optics.Technology {
	return optics.Technology{Name: "t", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
}

// base returns healthy-optics diagnostics to be perturbed per case.
func base() Diagnostics {
	return Diagnostics{
		HasOptics: true,
		Rx1:       -3, Rx2: -3, Tx2: 0,
		Tech: diagTech(),
	}
}

func TestRecommendSharedComponent(t *testing.T) {
	d := base()
	d.NeighborCorrupting = true
	if got := Recommend(d); got != faults.ActionReplaceSharedComponent {
		t.Fatalf("got %v", got)
	}
	// Neighbor corruption dominates every other symptom (Algorithm 1
	// checks it first).
	d.Rx1 = -15
	d.Tx2 = -8
	if got := Recommend(d); got != faults.ActionReplaceSharedComponent {
		t.Fatalf("got %v with other symptoms present", got)
	}
}

func TestRecommendBidirectionalCorruption(t *testing.T) {
	d := base()
	d.OppositeCorrupting = true
	if got := Recommend(d); got != faults.ActionReplaceFiber {
		t.Fatalf("got %v", got)
	}
}

func TestRecommendDecayingTransmitter(t *testing.T) {
	d := base()
	d.Tx2 = -5 // below the -4 threshold
	d.Rx1 = -12
	if got := Recommend(d); got != faults.ActionReplaceOppositeTransceiver {
		t.Fatalf("got %v", got)
	}
}

func TestRecommendDamagedFiber(t *testing.T) {
	d := base()
	d.Rx1 = -12
	d.Rx2 = -11
	if got := Recommend(d); got != faults.ActionReplaceFiber {
		t.Fatalf("got %v", got)
	}
}

func TestRecommendCleanFiber(t *testing.T) {
	d := base()
	d.Rx1 = -12 // one-sided low Rx
	if got := Recommend(d); got != faults.ActionCleanFiber {
		t.Fatalf("got %v", got)
	}
}

func TestRecommendTransceiverPath(t *testing.T) {
	d := base() // all power levels healthy
	if got := Recommend(d); got != faults.ActionReseatTransceiver {
		t.Fatalf("first attempt: got %v", got)
	}
	d.RecentlyReseated = true
	if got := Recommend(d); got != faults.ActionReplaceTransceiver {
		t.Fatalf("after reseat: got %v", got)
	}
}

func TestRecommendNoOptics(t *testing.T) {
	d := base()
	d.HasOptics = false
	if got := Recommend(d); got != faults.ActionUnknown {
		t.Fatalf("got %v", got)
	}
}

func TestRecommendDeployedSimplifications(t *testing.T) {
	// The deployed engine keeps the counter-derived neighbor input (it
	// needs no optics)...
	d := base()
	d.NeighborCorrupting = true
	if got := Recommend(d.Deployed()); got != faults.ActionReplaceSharedComponent {
		t.Fatalf("got %v", got)
	}
	// ...but without history it never escalates a reseat to replacement.
	d = base()
	d.RecentlyReseated = true
	if got := Recommend(d.Deployed()); got != faults.ActionReseatTransceiver {
		t.Fatalf("got %v", got)
	}
	// The optical rules are unchanged.
	d = base()
	d.Rx1 = -12
	if got := Recommend(d.Deployed()); got != faults.ActionCleanFiber {
		t.Fatalf("got %v", got)
	}
}

// referenceRecommendDeployed is the deployed engine as it was written
// before it became Recommend over Diagnostics.Deployed: its own copy of
// Algorithm 1 with the global thresholds and no history branch.
func referenceRecommendDeployed(d Diagnostics) faults.RepairAction {
	if d.NeighborCorrupting {
		return faults.ActionReplaceSharedComponent
	}
	if d.OppositeCorrupting {
		return faults.ActionReplaceFiber
	}
	if !d.HasOptics {
		return faults.ActionUnknown
	}
	if d.Tx2 <= DeployedThresholds.TxThreshold {
		return faults.ActionReplaceOppositeTransceiver
	}
	if d.Rx1 < DeployedThresholds.RxThreshold && d.Rx2 < DeployedThresholds.RxThreshold {
		return faults.ActionReplaceFiber
	}
	if d.Rx1 < DeployedThresholds.RxThreshold {
		return faults.ActionCleanFiber
	}
	return faults.ActionReseatTransceiver
}

// TestDeployedMatchesReference holds Recommend over Deployed to the old
// deployed engine on every branch: the three booleans it reads, the history
// input it ignores, and Tx2, Rx1 and Rx2 each just below, at and just above
// both the global thresholds and the per-technology ones, for a technology
// tighter and one looser than the global values.
func TestDeployedMatchesReference(t *testing.T) {
	g := DeployedThresholds
	techs := []optics.Technology{
		{Name: "tight", TxThreshold: g.TxThreshold - 2, RxThreshold: g.RxThreshold - 3},
		{Name: "loose", TxThreshold: g.TxThreshold + 2, RxThreshold: g.RxThreshold + 3},
	}
	around := func(ts ...optics.DBm) []optics.DBm {
		var out []optics.DBm
		for _, x := range ts {
			out = append(out, x-0.5, x, x+0.5)
		}
		return out
	}
	seen, starved := make(map[faults.RepairAction]int), 0
	for _, tech := range techs {
		txs := around(g.TxThreshold, tech.TxThreshold)
		rxs := around(g.RxThreshold, tech.RxThreshold)
		for bits := 0; bits < 16; bits++ {
			for _, tx2 := range txs {
				for _, rx1 := range rxs {
					for _, rx2 := range rxs {
						d := Diagnostics{
							NeighborCorrupting: bits&1 != 0,
							OppositeCorrupting: bits&2 != 0,
							HasOptics:          bits&4 != 0,
							RecentlyReseated:   bits&8 != 0,
							Tx2:                tx2, Rx1: rx1, Rx2: rx2,
							Tech: tech,
						}
						want := referenceRecommendDeployed(d)
						if got := Recommend(d.Deployed()); got != want {
							t.Fatalf("%+v: Recommend(Deployed) = %v, reference %v", d, got, want)
						}
						seen[want]++
						if want == faults.ActionReplaceFiber && !d.OppositeCorrupting {
							starved++
						}
					}
				}
			}
		}
	}
	// Every return of the reference is reached, ReplaceFiber by both of
	// its branches: the opposite direction and two starved receivers.
	if starved == 0 {
		t.Error("no case reaches ReplaceFiber through two starved receivers")
	}
	for _, a := range []faults.RepairAction{faults.ActionReplaceSharedComponent, faults.ActionReplaceFiber,
		faults.ActionUnknown, faults.ActionReplaceOppositeTransceiver, faults.ActionCleanFiber, faults.ActionReseatTransceiver} {
		if seen[a] == 0 {
			t.Errorf("no case reaches %v", a)
		}
	}
	if seen[faults.ActionReplaceTransceiver] != 0 {
		t.Errorf("the deployed engine escalated to replacement %d times", seen[faults.ActionReplaceTransceiver])
	}
}

// TestRecommendMatchesInjectedFaults drives the full loop: inject faults of
// known root cause, poll telemetry, diagnose, recommend — and check the
// recommendation repairs the true cause in the large majority of cases,
// reproducing §7.2's ≈80% first-attempt accuracy when recommendations are
// followed.
func TestRecommendMatchesInjectedFaults(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 4, ToRsPerPod: 4, AggsPerPod: 4, Spines: 8, SpineUplinksPerAgg: 4, BreakoutSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	tech := diagTech()
	st := faults.NewState(topo, tech)
	inj, err := faults.NewInjector(topo, tech, faults.InjectorConfig{}, rngutil.New(77).Split("inj"))
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector(st, nil, nil, telemetry.Config{})

	correct, total := 0, 0
	perCause := make(map[faults.RootCause][2]int)
	for i := 0; i < 400; i++ {
		f := inj.NewFault(0)
		st.Apply(f)
		col.Poll(0)
		for _, l := range f.Links() {
			d, ok := Diagnose(col, topo, tech, l, 1e-7, false)
			if !ok {
				continue
			}
			rec := Recommend(d)
			total++
			hit := false
			for _, a := range f.Cause.Repairs() {
				if rec == a {
					hit = true
					break
				}
			}
			// Reseat-then-replace: a reseat recommendation for a bad
			// transceiver counts; Algorithm 1 escalates on the next try.
			if hit {
				correct++
			}
			pc := perCause[f.Cause]
			pc[1]++
			if hit {
				pc[0]++
			}
			perCause[f.Cause] = pc
		}
		st.Clear(f.ID)
	}
	if total < 300 {
		t.Fatalf("too few diagnosable faults: %d", total)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.70 {
		for c, pc := range perCause {
			t.Logf("%v: %d/%d", c, pc[0], pc[1])
		}
		t.Fatalf("first-attempt accuracy = %v, want ≥ 0.70 (paper: 0.80)", acc)
	}
}

func TestDiagnoseSkipsHealthyAndDisabled(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2, SpineUplinksPerAgg: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tech := diagTech()
	st := faults.NewState(topo, tech)
	col := telemetry.NewCollector(st, nil, nil, telemetry.Config{})
	// Before any poll: no diagnostics.
	if _, ok := Diagnose(col, topo, tech, 0, 1e-7, false); ok {
		t.Fatal("diagnosed before first poll")
	}
	col.Poll(0)
	if _, ok := Diagnose(col, topo, tech, 0, 1e-7, false); ok {
		t.Fatal("diagnosed a healthy link")
	}
}

// TestMixedTechnologyFabric: per-link technologies flow through diagnosis,
// and the deployed engine's single global threshold misclassifies links
// whose technology has a different sensitivity — the §7.2 simplification
// made concrete.
func TestMixedTechnologyFabric(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2, SpineUplinksPerAgg: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Even links: a sensitive long-reach technology (threshold -14);
	// odd links: the default (-10). The deployed global threshold is -10.
	sensitive := optics.Technology{Name: "100G-LR", NominalTx: 0, TxThreshold: -4, RxThreshold: -14, PathLoss: 3}
	standard := diagTech()
	st := faults.NewMultiTechState(topo, func(l topology.LinkID) optics.Technology {
		if l%2 == 0 {
			return sensitive
		}
		return standard
	})
	if st.TechOf(0).Name != "100G-LR" || st.TechOf(1).Name != "t" {
		t.Fatalf("tech assignment broken: %v %v", st.TechOf(0), st.TechOf(1))
	}

	// Contamination on link 0 (sensitive): drops Rx to -16 — below the
	// true -14 threshold but ALSO below the global -10, so both engines
	// get this one right.
	st.Apply(&faults.Fault{ID: 1, Cause: faults.ConnectorContamination,
		Effects: []faults.LinkEffect{{Link: 0, ExtraLossFrom: [2]optics.DB{optics.LowerSide: 13}}}})
	d, ok := DiagnoseState(st, 0, 1e-7, false)
	if !ok {
		t.Fatal("no diagnostics for link 0")
	}
	if d.Tech.Name != "100G-LR" {
		t.Fatalf("diagnostics carry wrong tech: %v", d.Tech.Name)
	}
	if got := Recommend(d); got != faults.ActionCleanFiber {
		t.Fatalf("full engine: %v", got)
	}

	// Contamination on link 2 (sensitive) with a milder loss: Rx = -12 —
	// below the true -14?? no: -12 > -14 means still healthy for the
	// sensitive tech... construct the opposite: a tech with a HIGHER
	// (less sensitive) threshold, -9.9-style, where Rx between -10 and
	// the true threshold confuses the global engine.
	st.Clear(1)
	tolerant := optics.Technology{Name: "10G-SR", NominalTx: 0, TxThreshold: -4, RxThreshold: -7, PathLoss: 3}
	st2 := faults.NewMultiTechState(topo, func(topology.LinkID) optics.Technology { return tolerant })
	// Loss pushing Rx to -8.5: below the true -7 threshold (starved for
	// this tech, corrupting) but ABOVE the global -10.
	st2.Apply(&faults.Fault{ID: 2, Cause: faults.ConnectorContamination,
		Effects: []faults.LinkEffect{{Link: 4, ExtraLossFrom: [2]optics.DB{optics.LowerSide: 5.5}}}})
	d2, ok := DiagnoseState(st2, 4, 1e-9, false)
	if !ok {
		t.Fatalf("no diagnostics for the tolerant-tech link; rate up=%v", st2.CorruptionRate(4, topology.Up))
	}
	full := Recommend(d2)
	deployed := Recommend(d2.Deployed())
	if full != faults.ActionCleanFiber {
		t.Fatalf("full engine with per-tech threshold: %v, want clean-fiber", full)
	}
	if deployed == faults.ActionCleanFiber {
		t.Fatal("deployed engine should miss the starved receiver (global threshold too low)")
	}
	if deployed != faults.ActionReseatTransceiver {
		t.Fatalf("deployed engine: %v, want the all-power-looks-fine fallback", deployed)
	}
}
