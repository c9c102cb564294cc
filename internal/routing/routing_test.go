package routing

import (
	"math"
	"testing"

	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

func clos(t *testing.T, pods, tors, aggs, spines, uplinks int) *topology.Topology {
	t.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: pods, ToRsPerPod: tors, AggsPerPod: aggs,
		Spines: spines, SpineUplinksPerAgg: uplinks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSingleDemandHealthy(t *testing.T) {
	topo := clos(t, 2, 2, 2, 4, 2)
	r := New(topo)
	src, dst := topo.ToRs()[0], topo.ToRs()[2] // different pods
	if topo.Switch(src).Pod == topo.Switch(dst).Pod {
		t.Fatal("test expects cross-pod ToRs")
	}
	loads, err := r.Route([]Demand{{Src: src, Dst: dst, Rate: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loads.Unroutable != 0 || !almost(loads.Routed, 1) {
		t.Fatalf("routed=%v unroutable=%v", loads.Routed, loads.Unroutable)
	}
	// Conservation: src's uplinks carry the full unit up; dst's downlinks
	// carry it down.
	sumUp := 0.0
	for _, l := range topo.Uplinks(src) {
		sumUp += loads.Load(l, topology.Up)
	}
	if !almost(sumUp, 1) {
		t.Fatalf("src uplink load = %v, want 1", sumUp)
	}
	sumDown := 0.0
	for _, l := range topo.Uplinks(dst) { // dst's uplinks, Down direction
		sumDown += loads.Load(l, topology.Down)
	}
	if !almost(sumDown, 1) {
		t.Fatalf("dst downlink load = %v, want 1", sumDown)
	}
	// ECMP at the source splits equally over its 2 uplinks.
	for _, l := range topo.Uplinks(src) {
		if !almost(loads.Load(l, topology.Up), 0.5) {
			t.Fatalf("src uplink share = %v, want 0.5", loads.Load(l, topology.Up))
		}
	}
}

func TestIntraPodUsesTurnAtAgg(t *testing.T) {
	topo := clos(t, 1, 2, 2, 2, 1)
	r := New(topo)
	src, dst := topo.ToRs()[0], topo.ToRs()[1] // same pod
	loads, err := r.Route([]Demand{{Src: src, Dst: dst, Rate: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(loads.Routed, 1) {
		t.Fatalf("routed = %v", loads.Routed)
	}
	// The shortest path turns at the shared aggs: no spine link touched.
	topo.Links(func(l *topology.Link) {
		if topo.Switch(l.Upper).Stage == 2 {
			if loads.Load(l.ID, topology.Up) != 0 || loads.Load(l.ID, topology.Down) != 0 {
				t.Fatalf("intra-pod traffic climbed to the spine via link %d", l.ID)
			}
		}
	})
}

func TestSelfDemandTouchesNothing(t *testing.T) {
	topo := clos(t, 1, 2, 2, 2, 1)
	r := New(topo)
	tor := topo.ToRs()[0]
	loads, err := r.Route([]Demand{{Src: tor, Dst: tor, Rate: 5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m, _, _ := loads.MaxLoad(); m != 0 {
		t.Fatalf("self demand loaded a link: %v", m)
	}
}

func TestRejectsNonToRDemand(t *testing.T) {
	topo := clos(t, 1, 2, 2, 2, 1)
	r := New(topo)
	if _, err := r.Route([]Demand{{Src: topo.Spines()[0], Dst: topo.ToRs()[0], Rate: 1}}, nil); err == nil {
		t.Fatal("spine demand accepted")
	}
	if _, err := r.Route([]Demand{{Src: topo.ToRs()[0], Dst: topo.ToRs()[1], Rate: -1}}, nil); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestDisabledLinksAvoided(t *testing.T) {
	topo := clos(t, 2, 2, 2, 4, 2)
	r := New(topo)
	src, dst := topo.ToRs()[0], topo.ToRs()[2]
	dead := topo.Uplinks(src)[0]
	loads, err := r.Route([]Demand{{Src: src, Dst: dst, Rate: 1}},
		func(l topology.LinkID) bool { return l == dead })
	if err != nil {
		t.Fatal(err)
	}
	if loads.Load(dead, topology.Up) != 0 || loads.Load(dead, topology.Down) != 0 {
		t.Fatal("traffic crossed a disabled link")
	}
	// The surviving uplink carries everything.
	other := topo.Uplinks(src)[1]
	if !almost(loads.Load(other, topology.Up), 1) {
		t.Fatalf("surviving uplink load = %v, want 1", loads.Load(other, topology.Up))
	}
}

func TestPartitionDetected(t *testing.T) {
	topo := clos(t, 2, 2, 2, 4, 2)
	r := New(topo)
	src, dst := topo.ToRs()[0], topo.ToRs()[2]
	// Kill all of src's uplinks.
	dead := make(map[topology.LinkID]bool)
	for _, l := range topo.Uplinks(src) {
		dead[l] = true
	}
	loads, err := r.Route([]Demand{
		{Src: src, Dst: dst, Rate: 1},
		{Src: dst, Dst: topo.ToRs()[3], Rate: 2},
	}, func(l topology.LinkID) bool { return dead[l] })
	if err != nil {
		t.Fatal(err)
	}
	if !almost(loads.Unroutable, 1) {
		t.Fatalf("unroutable = %v, want 1", loads.Unroutable)
	}
	if !almost(loads.Routed, 2) {
		t.Fatalf("routed = %v, want 2", loads.Routed)
	}
}

// TestConservationProperty: for random demand sets and random disabled
// sets, every ToR's uplink load in the Up direction equals its routable
// egress demand, and total Routed+Unroutable equals offered load.
func TestConservationProperty(t *testing.T) {
	topo := clos(t, 3, 3, 3, 9, 3)
	r := New(topo)
	rng := rngutil.New(11)
	tors := topo.ToRs()
	for trial := 0; trial < 20; trial++ {
		var demands []Demand
		offered := 0.0
		for i := 0; i < 15; i++ {
			s := tors[rng.Intn(len(tors))]
			d := tors[rng.Intn(len(tors))]
			if s == d {
				continue
			}
			rate := rng.Range(0.1, 2)
			demands = append(demands, Demand{Src: s, Dst: d, Rate: rate})
			offered += rate
		}
		dead := make(map[topology.LinkID]bool)
		for i := 0; i < topo.NumLinks()/10; i++ {
			dead[topology.LinkID(rng.Intn(topo.NumLinks()))] = true
		}
		loads, err := r.Route(demands, func(l topology.LinkID) bool { return dead[l] })
		if err != nil {
			t.Fatal(err)
		}
		if !almost(loads.Routed+loads.Unroutable, offered) {
			t.Fatalf("trial %d: routed %v + unroutable %v != offered %v",
				trial, loads.Routed, loads.Unroutable, offered)
		}
		// No load on dead links, no negative loads.
		topo.Links(func(l *topology.Link) {
			for _, dir := range []topology.Direction{topology.Up, topology.Down} {
				v := loads.Load(l.ID, dir)
				if v < 0 {
					t.Fatalf("negative load %v", v)
				}
				if dead[l.ID] && v != 0 {
					t.Fatalf("dead link %d carries %v", l.ID, v)
				}
			}
		})
	}
}

// TestUniformLoadSymmetric: on a healthy symmetric Clos, uniform all-to-all
// demand loads every ToR uplink equally.
func TestUniformLoadSymmetric(t *testing.T) {
	topo := clos(t, 2, 2, 2, 4, 2)
	r := New(topo)
	loads, err := r.Route(UniformAllToAll(topo, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var want float64 = -1
	for _, tor := range topo.ToRs() {
		for _, l := range topo.Uplinks(tor) {
			v := loads.Load(l, topology.Up)
			if want < 0 {
				want = v
			} else if !almost(v, want) {
				t.Fatalf("asymmetric uplink loads: %v vs %v", v, want)
			}
		}
	}
	if want <= 0 {
		t.Fatal("no load computed")
	}
}

// TestDisablingConcentratesLoad: the §5.1 motivation — disabling most of a
// ToR's uplinks multiplies the load on the survivors.
func TestDisablingConcentratesLoad(t *testing.T) {
	topo := clos(t, 2, 4, 4, 8, 4)
	r := New(topo)
	demands := UniformAllToAll(topo, 1)
	base, err := r.Route(demands, nil)
	if err != nil {
		t.Fatal(err)
	}
	tor := topo.ToRs()[0]
	up := topo.Uplinks(tor)
	dead := map[topology.LinkID]bool{up[0]: true, up[1]: true, up[2]: true}
	degraded, err := r.Route(demands, func(l topology.LinkID) bool { return dead[l] })
	if err != nil {
		t.Fatal(err)
	}
	survivor := up[3]
	if degraded.Load(survivor, topology.Up) < 3.9*base.Load(survivor, topology.Up) {
		t.Fatalf("survivor load %v, want ≈4x the baseline %v",
			degraded.Load(survivor, topology.Up), base.Load(survivor, topology.Up))
	}
}
