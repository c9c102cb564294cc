package traffic

import (
	"math"
	"testing"
	"time"

	"corropt/internal/rngutil"
	"corropt/internal/stats"
	"corropt/internal/topology"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 8, ToRsPerPod: 8, AggsPerPod: 4, Spines: 16, SpineUplinksPerAgg: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func newModel(t *testing.T) (*Model, *topology.Topology) {
	t.Helper()
	topo := testTopo(t)
	return New(topo, rngutil.New(42).Split("traffic")), topo
}

func TestUtilizationBounds(t *testing.T) {
	m, topo := newModel(t)
	for l := 0; l < topo.NumLinks(); l += 7 {
		for _, d := range []topology.Direction{topology.Up, topology.Down} {
			for h := 0; h < 48; h++ {
				u := m.Utilization(topology.LinkID(l), d, time.Duration(h)*time.Hour)
				if u < 0 || u > 1 {
					t.Fatalf("utilization out of range: %v", u)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	topo := testTopo(t)
	a := New(topo, rngutil.New(42).Split("traffic"))
	b := New(topo, rngutil.New(42).Split("traffic"))
	for l := 0; l < 50; l++ {
		at := time.Duration(l) * 13 * time.Minute
		if a.LossRate(topology.LinkID(l), topology.Up, at) != b.LossRate(topology.LinkID(l), topology.Up, at) {
			t.Fatal("loss rates not deterministic")
		}
		if a.Utilization(topology.LinkID(l), topology.Down, at) != b.Utilization(topology.LinkID(l), topology.Down, at) {
			t.Fatal("utilizations not deterministic")
		}
	}
}

func TestCongestedFraction(t *testing.T) {
	m, topo := newModel(t)
	congested := m.CongestedLinks()
	frac := float64(len(congested)) / float64(topo.NumLinks())
	// 10% of directions prone; as links it lands in a looser band because
	// of bidirectional assignments.
	if frac < 0.04 || frac > 0.25 {
		t.Fatalf("congested link fraction = %v", frac)
	}
}

func TestNonProneLosesNothing(t *testing.T) {
	m, topo := newModel(t)
	for l := 0; l < topo.NumLinks(); l++ {
		for _, d := range []topology.Direction{topology.Up, topology.Down} {
			if m.Prone(topology.LinkID(l), d) {
				continue
			}
			for h := 0; h < 24; h++ {
				if r := m.LossRate(topology.LinkID(l), d, time.Duration(h)*time.Hour); r != 0 {
					t.Fatalf("non-prone link %d dir %v loses %v", l, d, r)
				}
			}
		}
	}
}

func TestBidirectionalCongestion(t *testing.T) {
	m, _ := newModel(t)
	both, total := 0, 0
	for _, l := range m.CongestedLinks() {
		total++
		if m.Prone(l, topology.Up) && m.Prone(l, topology.Down) {
			both++
		}
	}
	if total == 0 {
		t.Fatal("no congested links")
	}
	frac := float64(both) / float64(total)
	// Paper: 72.7% of links with congestion lose bidirectionally.
	if frac < 0.5 || frac > 0.9 {
		t.Fatalf("bidirectional congestion fraction = %v, want ≈0.73", frac)
	}
}

func TestLocality(t *testing.T) {
	m, topo := newModel(t)
	congested := m.CongestedLinks()
	if len(congested) < 10 {
		t.Fatalf("too few congested links: %d", len(congested))
	}
	affected := topo.SwitchesWithLinks(congested)
	// Random baseline: scatter the same number of links uniformly.
	rng := rngutil.New(7)
	randomLinks := make([]topology.LinkID, len(congested))
	for i := range randomLinks {
		randomLinks[i] = topology.LinkID(rng.Intn(topo.NumLinks()))
	}
	randomAffected := topo.SwitchesWithLinks(randomLinks)
	ratio := float64(len(affected)) / float64(len(randomAffected))
	// Figure 4: congestion's ratio ≈ 0.2; require clearly sub-random.
	if ratio > 0.6 {
		t.Fatalf("congestion locality ratio = %v, want strong locality (<0.6)", ratio)
	}
}

func TestLossCorrelatesWithUtilization(t *testing.T) {
	m, _ := newModel(t)
	congested := m.CongestedLinks()
	var correlations []float64
	for _, l := range congested {
		for _, d := range []topology.Direction{topology.Up, topology.Down} {
			if !m.Prone(l, d) {
				continue
			}
			var utils, logLoss []float64
			for i := 0; i < 7*96; i++ { // one week of 15-minute samples
				at := time.Duration(i) * 15 * time.Minute
				utils = append(utils, m.Utilization(l, d, at))
				logLoss = append(logLoss, log10floor(m.LossRate(l, d, at)))
			}
			r, err := stats.Pearson(utils, logLoss)
			if err != nil {
				t.Fatal(err)
			}
			correlations = append(correlations, r)
		}
		if len(correlations) >= 60 {
			break
		}
	}
	mean := stats.Mean(correlations)
	// Paper: mean Pearson between outgoing utilization and congestion loss
	// is 0.62; our synthetic model should be clearly positive.
	if mean < 0.4 {
		t.Fatalf("mean Pearson = %v, want strongly positive", mean)
	}
}

func TestCongestionCVIsHigh(t *testing.T) {
	m, _ := newModel(t)
	var cvs []float64
	for _, l := range m.CongestedLinks() {
		for _, d := range []topology.Direction{topology.Up, topology.Down} {
			if !m.Prone(l, d) {
				continue
			}
			var series []float64
			for i := 0; i < 7*96; i++ {
				series = append(series, m.LossRate(l, d, time.Duration(i)*15*time.Minute))
			}
			cvs = append(cvs, stats.CoefficientOfVariation(series))
		}
		if len(cvs) >= 40 {
			break
		}
	}
	med, err := stats.Quantile(cvs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Congestion loss switches on and off with the diurnal cycle; its CV
	// must be large (corruption's, by §3, stays small).
	if med < 1 {
		t.Fatalf("median congestion CV = %v, want > 1", med)
	}
}

func TestTable1CongestionBuckets(t *testing.T) {
	m, _ := newModel(t)
	var meanRates []float64
	for _, l := range m.CongestedLinks() {
		for _, d := range []topology.Direction{topology.Up, topology.Down} {
			if !m.Prone(l, d) {
				continue
			}
			sum := 0.0
			n := 7 * 96
			for i := 0; i < n; i++ {
				sum += m.LossRate(l, d, time.Duration(i)*15*time.Minute)
			}
			meanRates = append(meanRates, sum/float64(n))
		}
	}
	shares := stats.BucketShares(meanRates, stats.Table1Buckets())
	// Congestion column of Table 1: the lightest bucket dominates and the
	// heaviest is rare.
	if shares[0] < 0.75 {
		t.Fatalf("lightest congestion bucket share = %v, want > 0.75 (paper: 0.92)", shares[0])
	}
	if shares[3] > 0.05 {
		t.Fatalf("heaviest congestion bucket share = %v, want < 0.05 (paper: 0.0022)", shares[3])
	}
}

func log10floor(x float64) float64 {
	if x < 1e-9 {
		x = 1e-9
	}
	return math.Log10(x)
}
