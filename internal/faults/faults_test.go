package faults

import (
	"testing"
	"time"

	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 4, ToRsPerPod: 4, AggsPerPod: 4, Spines: 8, SpineUplinksPerAgg: 4, BreakoutSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func testTech() optics.Technology {
	return optics.Technology{Name: "test", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
}

func newInjector(t *testing.T, topo *topology.Topology, cfg InjectorConfig) *Injector {
	t.Helper()
	inj, err := NewInjector(topo, testTech(), cfg, rngutil.New(1).Split("inj"))
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestCauseMix(t *testing.T) {
	m := DefaultCauseMix()
	sum := 0.0
	for _, p := range m {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("default mix sums to %v", sum)
	}
	// Sampling the extremes.
	if m.Sample(0) != ConnectorContamination {
		t.Fatal("u=0 should sample the first cause")
	}
	if m.Sample(0.999999) != SharedComponent {
		t.Fatal("u→1 should sample the last cause")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("normalizing a zero mix should panic")
		}
	}()
	(CauseMix{}).Normalize()
}

func TestRepairsCoverAllCauses(t *testing.T) {
	for c := RootCause(0); c < RootCause(NumCauses); c++ {
		if len(c.Repairs()) == 0 {
			t.Fatalf("cause %v has no repair actions", c)
		}
		if c.String() == "" {
			t.Fatalf("cause %d has no name", c)
		}
		if back, ok := CauseByName(c.String()); !ok || back != c {
			t.Fatalf("CauseByName(%q) = %v, %v; want %v", c.String(), back, ok, c)
		}
	}
	if _, ok := CauseByName("RootCause(5)"); ok {
		t.Fatal("CauseByName accepted a name no cause has")
	}
}

func TestApplyAndClear(t *testing.T) {
	topo := testTopo(t)
	st := NewState(topo, testTech())
	inj := newInjector(t, topo, InjectorConfig{})

	f := inj.NewFault(0)
	st.Apply(f)
	if st.NumActiveFaults() != 1 {
		t.Fatalf("active faults = %d", st.NumActiveFaults())
	}
	corrupting := st.CorruptingLinks(1e-8)
	if len(corrupting) == 0 {
		t.Fatal("fault produced no corrupting link")
	}
	// Applying twice is a no-op.
	st.Apply(f)
	if st.NumActiveFaults() != 1 {
		t.Fatal("duplicate Apply changed state")
	}
	st.Clear(f.ID)
	if st.NumActiveFaults() != 0 {
		t.Fatal("Clear did not remove fault")
	}
	if got := st.CorruptingLinks(1e-8); len(got) != 0 {
		t.Fatalf("links still corrupting after repair: %v", got)
	}
	// The optics must be fully restored.
	for _, l := range corrupting {
		ol := st.Optics(l)
		if ol.RxLow(optics.LowerSide) || ol.RxLow(optics.UpperSide) {
			t.Fatal("optics not restored after Clear")
		}
	}
	// Clearing twice is a no-op.
	st.Clear(f.ID)
}

func TestOverlappingFaults(t *testing.T) {
	topo := testTopo(t)
	st := NewState(topo, testTech())

	link := topology.LinkID(0)
	f1 := &Fault{ID: 1, Cause: BadTransceiver, Effects: []LinkEffect{{Link: link, DirectRate: [2]float64{0.01, 0}}}}
	f2 := &Fault{ID: 2, Cause: BadTransceiver, Effects: []LinkEffect{{Link: link, DirectRate: [2]float64{0.02, 0}}}}
	st.Apply(f1)
	st.Apply(f2)
	// The healthy optics contribute a sub-1e-8 floor, hence the tolerance.
	want := 1 - (1-0.01)*(1-0.02)
	if got := st.CorruptionRate(link, topology.Up); got < want || got > want+1e-7 {
		t.Fatalf("combined rate = %v, want ≈%v", got, want)
	}
	st.Clear(1)
	if got := st.CorruptionRate(link, topology.Up); got < 0.02 || got > 0.02+1e-7 {
		t.Fatalf("rate after clearing f1 = %v, want ≈0.02", got)
	}
	st.Clear(2)
	if got := st.CorruptionRate(link, topology.Up); got >= 1e-8 {
		t.Fatalf("rate after clearing all = %v", got)
	}
}

func TestContaminationSymptoms(t *testing.T) {
	topo := testTopo(t)
	st := NewState(topo, testTech())
	inj := newInjector(t, topo, InjectorConfig{})

	// Force a severe contamination fault.
	link := topology.LinkID(3)
	e := inj.singleLinkEffect(ConnectorContamination, link)
	// Make it strong enough to be over any detection threshold.
	for s := range e.ExtraLossFrom {
		if e.ExtraLossFrom[s] > 0 {
			e.ExtraLossFrom[s] = inj.lossFor(link, 0.01)
		}
	}
	f := &Fault{ID: 99, Cause: ConnectorContamination, Effects: []LinkEffect{e}}
	st.Apply(f)

	ol := st.Optics(link)
	// Contamination: Tx high on both sides, Rx low on at least one side.
	if ol.TxLow(optics.LowerSide) || ol.TxLow(optics.UpperSide) {
		t.Fatal("contamination must not lower TxPower")
	}
	if !ol.RxLow(optics.LowerSide) && !ol.RxLow(optics.UpperSide) {
		t.Fatal("contamination should starve one receiver")
	}
	if !st.Corrupting(link, 1e-6) {
		t.Fatalf("link not corrupting, worst rate %v", st.WorstRate(link))
	}
}

func TestDecayingTransmitterSymptoms(t *testing.T) {
	topo := testTopo(t)
	st := NewState(topo, testTech())
	inj := newInjector(t, topo, InjectorConfig{})

	link := topology.LinkID(5)
	var e LinkEffect
	e.Link = link
	e.TxDecay[optics.LowerSide] = inj.lossFor(link, 0.001)
	f := &Fault{ID: 100, Cause: DecayingTransmitter, Effects: []LinkEffect{e}}
	st.Apply(f)

	ol := st.Optics(link)
	if !ol.TxLow(optics.LowerSide) {
		t.Fatalf("decayed transmitter Tx = %v, threshold %v", ol.TxPower(optics.LowerSide), testTech().TxThreshold)
	}
	if !ol.RxLow(optics.UpperSide) {
		t.Fatal("receiver fed by decayed transmitter should be low")
	}
	if ol.RxLow(optics.LowerSide) {
		t.Fatal("reverse direction should be healthy")
	}
	if up, down := st.CorruptionRate(link, topology.Up), st.CorruptionRate(link, topology.Down); up < 1e-6 || down > 1e-8 {
		t.Fatalf("corruption should be one-way: up=%v down=%v", up, down)
	}
}

func TestSharedComponentLocality(t *testing.T) {
	topo := testTopo(t)
	st := NewState(topo, testTech())
	inj := newInjector(t, topo, InjectorConfig{Mix: CauseMix{SharedComponent: 1}})

	f := inj.NewFault(0)
	if f.Cause != SharedComponent {
		t.Fatalf("cause = %v", f.Cause)
	}
	if len(f.Effects) < 2 || len(f.Effects) > 4 {
		t.Fatalf("shared fault touches %d links, want 2..4", len(f.Effects))
	}
	st.Apply(f)
	// All affected links share a switch.
	counts := make(map[topology.SwitchID]int)
	for _, l := range f.Links() {
		lk := topo.Link(l)
		counts[lk.Lower]++
		counts[lk.Upper]++
	}
	shared := false
	for _, c := range counts {
		if c == len(f.Effects) {
			shared = true
		}
	}
	if !shared {
		t.Fatalf("shared-component links do not share a switch: %v", f.Links())
	}
	// Optical power stays good everywhere (the Table 2 signature).
	for _, l := range f.Links() {
		ol := st.Optics(l)
		if ol.RxLow(optics.LowerSide) || ol.RxLow(optics.UpperSide) || ol.TxLow(optics.LowerSide) || ol.TxLow(optics.UpperSide) {
			t.Fatal("shared-component fault should leave optics healthy")
		}
		if !st.Corrupting(l, 1e-8) {
			t.Fatal("shared-component link not corrupting")
		}
	}
}

func TestGeneratePoissonArrivals(t *testing.T) {
	topo := testTopo(t)
	inj := newInjector(t, topo, InjectorConfig{FaultsPerLinkPerDay: 0.01})
	horizon := 30 * 24 * time.Hour
	fs := inj.Generate(horizon)
	// Expected: 0.01 * numLinks * 30 days.
	want := 0.01 * float64(topo.NumLinks()) * 30
	if got := float64(len(fs)); got < want*0.6 || got > want*1.4 {
		t.Fatalf("generated %v faults, want ≈%v", got, want)
	}
	var prev time.Duration
	ids := make(map[ID]bool)
	for _, f := range fs {
		if f.Start < prev {
			t.Fatal("faults not ordered by start time")
		}
		if f.Start >= horizon {
			t.Fatal("fault beyond horizon")
		}
		if ids[f.ID] {
			t.Fatalf("duplicate fault id %d", f.ID)
		}
		ids[f.ID] = true
		prev = f.Start
	}
}

func TestGenerateDeterministic(t *testing.T) {
	topo := testTopo(t)
	a := newInjector(t, topo, InjectorConfig{FaultsPerLinkPerDay: 0.01})
	b := newInjector(t, topo, InjectorConfig{FaultsPerLinkPerDay: 0.01})
	fa := a.Generate(7 * 24 * time.Hour)
	fb := b.Generate(7 * 24 * time.Hour)
	if len(fa) != len(fb) {
		t.Fatalf("lengths differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Start != fb[i].Start || fa[i].Cause != fb[i].Cause || len(fa[i].Effects) != len(fb[i].Effects) {
			t.Fatalf("fault %d differs", i)
		}
	}
}

func TestCauseMixRespected(t *testing.T) {
	topo := testTopo(t)
	mix := CauseMix{ConnectorContamination: 0.5, BadTransceiver: 0.5}
	inj := newInjector(t, topo, InjectorConfig{Mix: mix, FaultsPerLinkPerDay: 0.05})
	fs := inj.Generate(30 * 24 * time.Hour)
	if len(fs) < 100 {
		t.Fatalf("too few faults to test mix: %d", len(fs))
	}
	counts := make(map[RootCause]int)
	for _, f := range fs {
		counts[f.Cause]++
	}
	if counts[DamagedFiber] > 0 || counts[SharedComponent] > 0 || counts[DecayingTransmitter] > 0 {
		t.Fatalf("zero-weight causes sampled: %v", counts)
	}
	frac := float64(counts[ConnectorContamination]) / float64(len(fs))
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("contamination fraction = %v, want ≈0.5", frac)
	}
}

func TestBidirectionalFraction(t *testing.T) {
	topo := testTopo(t)
	st := NewState(topo, testTech())
	inj := newInjector(t, topo, InjectorConfig{FaultsPerLinkPerDay: 0.02})
	fs := inj.Generate(6 * 30 * 24 * time.Hour)
	if len(fs) < 300 {
		t.Fatalf("too few faults: %d", len(fs))
	}
	// Apply each fault in isolation and measure directionality.
	bidi, total := 0, 0
	for _, f := range fs {
		st.Apply(f)
		for _, l := range f.Links() {
			if st.Corrupting(l, 1e-8) {
				total++
				if st.Bidirectional(l, 1e-8) {
					bidi++
				}
			}
		}
		st.Clear(f.ID)
	}
	frac := float64(bidi) / float64(total)
	// Paper: 8.2%; accept a generous band around it.
	if frac < 0.02 || frac > 0.20 {
		t.Fatalf("bidirectional fraction = %v, want ≈0.08", frac)
	}
}

func TestRateDistributionMatchesTable1(t *testing.T) {
	topo := testTopo(t)
	inj := newInjector(t, topo, InjectorConfig{})
	// Sample many rates and check bucket shares.
	n := 20000
	counts := [4]int{}
	for i := 0; i < n; i++ {
		r := inj.sampleRate()
		switch {
		case r < 1e-5:
			counts[0]++
		case r < 1e-4:
			counts[1]++
		case r < 1e-3:
			counts[2]++
		default:
			counts[3]++
		}
	}
	want := [4]float64{0.4723, 0.1843, 0.2166, 0.1267}
	for i := range counts {
		got := float64(counts[i]) / float64(n)
		if got < want[i]-0.03 || got > want[i]+0.03 {
			t.Fatalf("bucket %d share = %v, want ≈%v", i, got, want[i])
		}
	}
}

func TestInjectorConfigValidation(t *testing.T) {
	topo := testTopo(t)
	if _, err := NewInjector(topo, testTech(), InjectorConfig{SharedMinLinks: 1, SharedMaxLinks: 1}, rngutil.New(1)); err == nil {
		t.Fatal("SharedMinLinks < 2 accepted")
	}
	if _, err := NewInjector(topo, testTech(), InjectorConfig{FaultsPerLinkPerDay: -1}, rngutil.New(1)); err == nil {
		t.Fatal("negative fault rate accepted")
	}
	badTech := optics.Technology{Name: "bad", NominalTx: -20, RxThreshold: -10, PathLoss: 3}
	if _, err := NewInjector(topo, badTech, InjectorConfig{}, rngutil.New(1)); err == nil {
		t.Fatal("marginless technology accepted")
	}
}

func TestFaultAccessors(t *testing.T) {
	f := &Fault{
		ID:    7,
		Cause: BadTransceiver,
		Effects: []LinkEffect{
			{Link: 3, DirectRate: [2]float64{0.01, 0}},
			{Link: 9, DirectRate: [2]float64{0, 0.05}},
		},
	}
	links := f.Links()
	if len(links) != 2 || links[0] != 3 || links[1] != 9 {
		t.Fatalf("Links = %v", links)
	}
	if f.PeakRate() != 0.05 {
		t.Fatalf("PeakRate = %v", f.PeakRate())
	}
}

func TestSuppressLinkEffect(t *testing.T) {
	topo := testTopo(t)
	st := NewState(topo, testTech())
	f := &Fault{ID: 50, Cause: SharedComponent, Effects: []LinkEffect{
		{Link: 1, DirectRate: [2]float64{0.01, 0}},
		{Link: 2, DirectRate: [2]float64{0.01, 0}},
	}}
	st.Apply(f)
	st.SuppressLinkEffect(50, 1)
	if st.Corrupting(1, 1e-6) {
		t.Fatal("link 1 still corrupting after link-scoped repair")
	}
	if !st.Corrupting(2, 1e-6) {
		t.Fatal("link 2 should still corrupt")
	}
	if st.NumActiveFaults() != 1 {
		t.Fatal("fault should survive partial repair")
	}
	// Double suppression is a no-op.
	st.SuppressLinkEffect(50, 1)
	// Repairing the last link removes the fault entirely.
	st.SuppressLinkEffect(50, 2)
	if st.NumActiveFaults() != 0 {
		t.Fatal("fault should be gone after all links repaired")
	}
}

func TestRepairLink(t *testing.T) {
	topo := testTopo(t)
	st := NewState(topo, testTech())
	f1 := &Fault{ID: 60, Cause: BadTransceiver, Effects: []LinkEffect{{Link: 3, DirectRate: [2]float64{0.01, 0}}}}
	f2 := &Fault{ID: 61, Cause: ConnectorContamination, Effects: []LinkEffect{{Link: 3, ExtraLossFrom: [2]optics.DB{12, 0}}}}
	st.Apply(f1)
	st.Apply(f2)
	causes := st.RepairLink(3)
	if len(causes) != 2 {
		t.Fatalf("repaired causes = %v", causes)
	}
	if st.Corrupting(3, 1e-8) {
		t.Fatal("link still corrupting after RepairLink")
	}
	if st.NumActiveFaults() != 0 {
		t.Fatal("single-link faults should be fully cleared")
	}
}

// TestStateReset pins that Reset restores a pooled State to the healthy
// state a fresh construction would produce, including technology
// reassignment for a different fabric's optics mix.
func TestStateReset(t *testing.T) {
	topo := testTopo(t)
	st := NewState(topo, testTech())
	inj := newInjector(t, topo, InjectorConfig{})
	var cleared []ID
	for i := 0; i < 5; i++ {
		f := inj.NewFault(time.Duration(i) * time.Hour)
		st.Apply(f)
		if i%2 == 0 {
			cleared = append(cleared, f.ID)
		}
	}
	for _, id := range cleared[:1] {
		st.Clear(id)
	}

	tech2 := testTech()
	tech2.Name = "reassigned"
	tech2.NominalTx = 1
	st.Reset(func(topology.LinkID) optics.Technology { return tech2 })

	if st.NumActiveFaults() != 0 {
		t.Fatalf("%d faults survive Reset", st.NumActiveFaults())
	}
	if got := st.CorruptingLinks(1e-9); len(got) != 0 {
		t.Fatalf("links still corrupting after Reset: %v", got)
	}
	if st.Tech().Name != "reassigned" || st.TechOf(0).Name != "reassigned" {
		t.Fatal("Reset did not reassign technology")
	}
	// One more dB of margin: the reset links must report the new
	// technology's healthy rate, not the one cached for the old.
	before := NewState(topo, testTech()).CorruptionRate(0, topology.Up)
	want := NewState(topo, tech2).CorruptionRate(0, topology.Up)
	if want >= before {
		t.Fatalf("healthy rate %v with more margin, %v with less", want, before)
	}
	for l := 0; l < topo.NumLinks(); l++ {
		id := topology.LinkID(l)
		ol := st.Optics(id)
		if ol.TxPower(optics.LowerSide) != 1 || ol.TxPower(optics.UpperSide) != 1 {
			t.Fatalf("link %d optics not re-dressed for the new tech", l)
		}
		if up, down := st.CorruptionRate(id, topology.Up), st.CorruptionRate(id, topology.Down); up != want || down != want {
			t.Fatalf("link %d healthy rate %v/%v after Reset, want the new tech's %v", l, up, down, want)
		}
	}
	// The reset state must behave like a fresh one under new faults.
	f := inj.NewFault(0)
	st.Apply(f)
	fresh := NewState(topo, tech2)
	fresh.Apply(f)
	for l := 0; l < topo.NumLinks(); l++ {
		id := topology.LinkID(l)
		if st.WorstRate(id) != fresh.WorstRate(id) {
			t.Fatalf("link %d rate %v after Reset, fresh %v", l, st.WorstRate(id), fresh.WorstRate(id))
		}
	}
}
