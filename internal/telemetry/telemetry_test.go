package telemetry

import (
	"math"
	"testing"
	"time"

	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/stats"
	"corropt/internal/topology"
	"corropt/internal/traffic"
)

func setup(t *testing.T) (*topology.Topology, *faults.State, *traffic.Model) {
	t.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 2, ToRsPerPod: 4, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tech := optics.Technology{Name: "t", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
	st := faults.NewState(topo, tech)
	tm := traffic.New(topo, rngutil.New(5).Split("traffic"))
	return topo, st, tm
}

func TestPollAccumulatesCounters(t *testing.T) {
	_, st, tm := setup(t)
	c := NewCollector(st, tm, nil, Config{})
	c.Poll(0)
	c.Poll(15 * time.Minute)
	ctr := c.Counters(0)
	if ctr.Packets[topology.Up] == 0 {
		t.Fatal("no packets counted")
	}
	// Healthy link: error counters stay negligible relative to packets.
	if ctr.Errors[topology.Up] > ctr.Packets[topology.Up]/1000 {
		t.Fatalf("healthy link errors = %d of %d packets", ctr.Errors[topology.Up], ctr.Packets[topology.Up])
	}
}

func TestCorruptionShowsInErrors(t *testing.T) {
	_, st, tm := setup(t)
	f := &faults.Fault{
		ID:    1,
		Cause: faults.BadTransceiver,
		Effects: []faults.LinkEffect{
			{Link: 0, DirectRate: [2]float64{0.01, 0}},
		},
	}
	st.Apply(f)
	c := NewCollector(st, tm, nil, Config{})
	c.Poll(0)
	obs, ok := c.Latest(0)
	if !ok {
		t.Fatal("no observation after poll")
	}
	r := obs.CorruptionRate[topology.Up]
	if r < 0.005 || r > 0.02 {
		t.Fatalf("observed corruption rate = %v, want ≈0.01 with noise", r)
	}
	if obs.CorruptionRate[topology.Down] > 1e-6 {
		t.Fatalf("reverse direction corrupting: %v", obs.CorruptionRate[topology.Down])
	}
	ctr := c.Counters(0)
	if ctr.Errors[topology.Up] == 0 {
		t.Fatal("error counter did not move")
	}
}

func TestDisabledLinksNotObserved(t *testing.T) {
	_, st, tm := setup(t)
	down := map[topology.LinkID]bool{3: true}
	c := NewCollector(st, tm, func(l topology.LinkID) bool { return down[l] }, Config{})
	c.Poll(0)
	obs, _ := c.Latest(3)
	if !obs.Disabled {
		t.Fatal("disabled link observed as up")
	}
	if obs.Util[0] != 0 || obs.CorruptionRate[0] != 0 {
		t.Fatal("disabled link reports traffic")
	}
	if ctr := c.Counters(3); ctr.Packets[0] != 0 {
		t.Fatal("disabled link accumulated counters")
	}
	// Other links still observed.
	if obs, _ := c.Latest(0); obs.Disabled {
		t.Fatal("healthy link marked disabled")
	}
}

func TestWatchRecordsSeries(t *testing.T) {
	_, st, tm := setup(t)
	c := NewCollector(st, tm, nil, Config{})
	c.Watch(1, 2)
	for i := 0; i < 10; i++ {
		c.Poll(time.Duration(i) * 15 * time.Minute)
	}
	if got := len(c.Series(1)); got != 10 {
		t.Fatalf("watched series length = %d, want 10", got)
	}
	if got := c.Series(5); got != nil {
		t.Fatalf("unwatched link has series of length %d", len(got))
	}
	// Series is ordered by time.
	s := c.Series(2)
	for i := 1; i < len(s); i++ {
		if s[i].At <= s[i-1].At {
			t.Fatal("series not time-ordered")
		}
	}
}

func TestPowerReadings(t *testing.T) {
	_, st, tm := setup(t)
	// Inject a contamination-like loss and check the poll sees low Rx.
	f := &faults.Fault{
		ID:    2,
		Cause: faults.ConnectorContamination,
		Effects: []faults.LinkEffect{
			{Link: 4, ExtraLossFrom: [2]optics.DB{optics.LowerSide: 12}},
		},
	}
	st.Apply(f)
	c := NewCollector(st, tm, nil, Config{})
	c.Poll(0)
	obs, _ := c.Latest(4)
	tech := st.Tech()
	if obs.RxPower[optics.UpperSide] >= tech.RxThreshold {
		t.Fatalf("upper Rx = %v, want below %v", obs.RxPower[optics.UpperSide], tech.RxThreshold)
	}
	if obs.RxPower[optics.LowerSide] < tech.RxThreshold {
		t.Fatal("lower Rx should be healthy")
	}
	if obs.TxPower[optics.LowerSide] < tech.TxThreshold || obs.TxPower[optics.UpperSide] < tech.TxThreshold {
		t.Fatal("Tx power should stay high under contamination")
	}
}

func TestCorruptionCVSmall(t *testing.T) {
	// The measurement noise must leave corruption-rate series far more
	// stable than congestion (Figure 2's contrast).
	_, st, tm := setup(t)
	f := &faults.Fault{
		ID:    3,
		Cause: faults.BadTransceiver,
		Effects: []faults.LinkEffect{
			{Link: 7, DirectRate: [2]float64{1e-4, 0}},
		},
	}
	st.Apply(f)
	c := NewCollector(st, tm, nil, Config{})
	c.Watch(7)
	for i := 0; i < 7*96; i++ {
		c.Poll(time.Duration(i) * 15 * time.Minute)
	}
	var series []float64
	for _, o := range c.Series(7) {
		series = append(series, o.CorruptionRate[topology.Up])
	}
	cv := stats.CoefficientOfVariation(series)
	if cv > 0.5 {
		t.Fatalf("corruption CV = %v, want small (< 0.5)", cv)
	}
	if cv == 0 {
		t.Fatal("expected some measurement noise")
	}
}

func TestNoiseDeterministic(t *testing.T) {
	_, st, tm := setup(t)
	a := NewCollector(st, tm, nil, Config{Seed: 9})
	b := NewCollector(st, tm, nil, Config{Seed: 9})
	a.Poll(0)
	b.Poll(0)
	oa, _ := a.Latest(0)
	ob, _ := b.Latest(0)
	if oa != ob {
		t.Fatal("observations differ across identical collectors")
	}
}

// TestConcurrentReadsDuringPoll codifies the deployment contract: the
// snmplite responder reads counters while the poll loop runs. Run under
// -race this guards the Collector's locking.
func TestConcurrentReadsDuringPoll(t *testing.T) {
	_, st, tm := setup(t)
	c := NewCollector(st, tm, nil, Config{})
	c.Watch(0, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			c.Counters(0)
			c.Latest(1)
			c.Series(0)
		}
	}()
	for i := 0; i < 50; i++ {
		c.Poll(time.Duration(i) * 15 * time.Minute)
	}
	<-done
	if ctr := c.Counters(0); ctr.Packets[0] == 0 {
		t.Fatal("no packets counted under concurrency")
	}
}

// TestConcurrentReadsDuringFaults: the deployment's poll loop applies and
// repairs faults between polls while the snmplite responder reads every
// link, power levels included. Deriving a quiet link's reading must not
// read the fault state that loop writes; run under -race.
func TestConcurrentReadsDuringFaults(t *testing.T) {
	topo, st, _ := setup(t)
	c := NewCollector(st, nil, nil, Config{})
	c.Poll(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			c.Read(func(r Reader) {
				for l := 0; l < topo.NumLinks(); l++ {
					r.Counters(topology.LinkID(l))
					r.Latest(topology.LinkID(l))
				}
			})
		}
	}()
	for i := 1; i <= 50; i++ {
		f := &faults.Fault{
			ID:      faults.ID(i),
			Cause:   faults.BadTransceiver,
			Effects: []faults.LinkEffect{{Link: topology.LinkID(i % topo.NumLinks()), DirectRate: [2]float64{1e-3, 0}}},
		}
		st.Apply(f)
		c.Poll(time.Duration(2*i-1) * DefaultInterval)
		st.Clear(f.ID)
		c.Poll(time.Duration(2*i) * DefaultInterval)
	}
	<-done
}

// TestNoiseDiffersWithinASecond pins that polls are keyed by their full
// virtual time: two polls half a second apart are independent samples, not
// one sample read twice.
func TestNoiseDiffersWithinASecond(t *testing.T) {
	_, st, tm := setup(t)
	st.Apply(&faults.Fault{
		ID:      1,
		Cause:   faults.BadTransceiver,
		Effects: []faults.LinkEffect{{Link: 0, DirectRate: [2]float64{1e-3, 0}}},
	})
	c := NewCollector(st, tm, nil, Config{Interval: 500 * time.Millisecond})
	c.Watch(0)
	c.Poll(0)
	c.Poll(500 * time.Millisecond)
	s := c.Series(0)
	if a, b := s[0].CorruptionRate[topology.Up], s[1].CorruptionRate[topology.Up]; a == b {
		t.Fatalf("polls at 0 and 500ms both observed %v", a)
	}
}

// logNoise returns ln noise of a fresh Collector over links × directions ×
// ticks, indexed [tick][2*link+dir].
func logNoise(st *faults.State, cfg Config, links, ticks int) [][]float64 {
	c := NewCollector(st, nil, nil, cfg)
	out := make([][]float64, ticks)
	for tick := range out {
		stream := c.noiseStream(time.Duration(tick) * DefaultInterval)
		for l := 0; l < links; l++ {
			for _, d := range []topology.Direction{topology.Up, topology.Down} {
				out[tick] = append(out[tick], math.Log(c.noise(stream, topology.LinkID(l), d)))
			}
		}
	}
	return out
}

func pearson(t *testing.T, xs, ys []float64) float64 {
	t.Helper()
	r, err := stats.Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestNoiseContract pins what the noise promises its readers, whatever
// draws it: log-normal with median 1 and log-sd NoiseSigma — hence the CV
// Figure 2 plots — and no correlation between the neighbours a
// counter-based generator numbers consecutively.
func TestNoiseContract(t *testing.T) {
	_, st, _ := setup(t)
	const links, ticks = 500, 250 // × 2 directions = 250,000 draws
	for _, sigma := range []float64{0.1, 0.25, 0.5} {
		draws := logNoise(st, Config{NoiseSigma: sigma, Seed: 3}, links, ticks)
		var all, lin, alongTicks, nextTick, alongLinks, nextLink, up, down []float64
		for tick, row := range draws {
			all = append(all, row...)
			for i, x := range row {
				lin = append(lin, math.Exp(x))
				if tick+1 < ticks {
					alongTicks, nextTick = append(alongTicks, x), append(nextTick, draws[tick+1][i])
				}
				if i+2 < len(row) {
					alongLinks, nextLink = append(alongLinks, x), append(nextLink, row[i+2])
				}
				if i%2 == 0 {
					up, down = append(up, x), append(down, row[i+1])
				}
			}
		}
		if m := stats.Mean(all); math.Abs(m) > 0.01 {
			t.Errorf("σ=%v: mean ln noise = %v, want 0 ± 0.01", sigma, m)
		}
		if sd := stats.StdDev(all); math.Abs(sd/sigma-1) > 0.03 {
			t.Errorf("σ=%v: sd ln noise = %v, want within 3%%", sigma, sd)
		}
		wantCV := math.Sqrt(math.Exp(sigma*sigma) - 1)
		if cv := stats.CoefficientOfVariation(lin); math.Abs(cv/wantCV-1) > 0.05 {
			t.Errorf("σ=%v: CV = %v, want %v within 5%%", sigma, cv, wantCV)
		}
		for _, c := range []struct {
			name string
			r    float64
		}{
			{"consecutive ticks of a link", pearson(t, alongTicks, nextTick)},
			{"adjacent links of a tick", pearson(t, alongLinks, nextLink)},
			{"up and down of a link", pearson(t, up, down)},
		} {
			if math.Abs(c.r) >= 0.02 {
				t.Errorf("σ=%v: correlation between %s = %v, want |r| < 0.02", sigma, c.name, c.r)
			}
		}
	}

	a := logNoise(st, Config{Seed: 1}, 50, 4)
	same, other := logNoise(st, Config{Seed: 1}, 50, 4), logNoise(st, Config{Seed: 2}, 50, 4)
	differ := 0
	for tick := range a {
		for i := range a[tick] {
			if a[tick][i] != same[tick][i] {
				t.Fatalf("seed 1 drew %v then %v for tick %d sample %d", a[tick][i], same[tick][i], tick, i)
			}
			if a[tick][i] != other[tick][i] {
				differ++
			}
		}
	}
	if differ < 390 { // of 400; equal quantiles by chance are 1 in 1024
		t.Fatalf("seeds 1 and 2 differ in only %d of 400 draws", differ)
	}
}

func TestPollDoesNotAllocate(t *testing.T) {
	_, st, tm := setup(t)
	c := NewCollector(st, tm, nil, Config{})
	now := time.Duration(0)
	if n := testing.AllocsPerRun(20, func() {
		c.Poll(now)
		now += DefaultInterval
	}); n != 0 {
		t.Fatalf("Poll with nothing watched allocates %v times", n)
	}
}

// TestPollWithoutTrafficDoesNotAllocate is TestPollDoesNotAllocate on the
// path fig13_journey runs: no traffic model, a faulted link that is walked,
// a disabled link and quiet links everywhere else.
func TestPollWithoutTrafficDoesNotAllocate(t *testing.T) {
	topo, st, _ := setup(t)
	st.Apply(&faults.Fault{
		ID:      1,
		Cause:   faults.BadTransceiver,
		Effects: []faults.LinkEffect{{Link: 0, DirectRate: [2]float64{0.01, 0}}},
	})
	down := topology.NewLinkSet(topo.NumLinks())
	down.Add(3)
	c := NewCollector(st, nil, down.Func(), Config{})
	now := time.Duration(0)
	if n := testing.AllocsPerRun(20, func() {
		c.Poll(now)
		now += DefaultInterval
	}); n != 0 {
		t.Fatalf("Poll without a traffic model allocates %v times", n)
	}
}

// BenchmarkCollectorPoll is the layer's own number: one poll of the
// benchmark's DCN (bench/workload.go: 15,120 links) with no traffic model,
// as fig13_journey runs it. "healthy" has no fault and no disabled link;
// "steady" is fig13's steady state, 32 faulted and 128 disabled links.
func BenchmarkCollectorPoll(b *testing.B) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 45, ToRsPerPod: 40, AggsPerPod: 6, Spines: 96, SpineUplinksPerAgg: 16, BreakoutSize: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	tech := optics.Technology{Name: "t", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
	for _, bc := range []struct {
		name              string
		faulted, disabled int
	}{{"healthy", 0, 0}, {"steady", 32, 128}} {
		b.Run(bc.name, func(b *testing.B) {
			st := faults.NewState(topo, tech)
			n := topo.NumLinks()
			for i := 0; i < bc.faulted; i++ {
				e := faults.LinkEffect{Link: topology.LinkID(i * n / bc.faulted)}
				e.ExtraLossFrom[optics.LowerSide] = 10
				st.Apply(&faults.Fault{ID: faults.ID(i + 1), Cause: faults.ConnectorContamination, Effects: []faults.LinkEffect{e}})
			}
			down := topology.NewLinkSet(n)
			for i := 0; i < bc.disabled; i++ {
				down.Add(topology.LinkID(i*n/bc.disabled + 7))
			}
			c := NewCollector(st, nil, down.Func(), Config{Seed: 1})
			c.Poll(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Poll(time.Duration(i+1) * DefaultInterval)
			}
		})
	}
}
