package topology

import (
	"testing"
	"testing/quick"
)

func TestClosConfigValidate(t *testing.T) {
	good := ClosConfig{Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []ClosConfig{
		{},
		{Pods: 1, ToRsPerPod: 1, AggsPerPod: 1, Spines: 1},                                          // zero uplinks
		{Pods: 1, ToRsPerPod: 1, AggsPerPod: 1, Spines: 1, SpineUplinksPerAgg: 2},                   // more uplinks than spines
		{Pods: 1, ToRsPerPod: 1, AggsPerPod: 1, Spines: 1, SpineUplinksPerAgg: 1, BreakoutSize: -1}, // negative breakout
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestClosSizes(t *testing.T) {
	cfg := ClosConfig{Pods: 4, ToRsPerPod: 8, AggsPerPod: 4, Spines: 16, SpineUplinksPerAgg: 8}
	topo, err := NewClos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSwitches := 16 /* spines */ + 4*4 /* aggs */ + 4*8 /* tors */
	if topo.NumSwitches() != wantSwitches {
		t.Fatalf("switches = %d, want %d", topo.NumSwitches(), wantSwitches)
	}
	if topo.NumLinks() != cfg.NumLinks() {
		t.Fatalf("links = %d, want %d", topo.NumLinks(), cfg.NumLinks())
	}
	if len(topo.ToRs()) != 32 {
		t.Fatalf("tors = %d, want 32", len(topo.ToRs()))
	}
	// Every ToR has AggsPerPod uplinks and total paths AggsPerPod*SpineUplinksPerAgg.
	pc := NewPathCounter(topo)
	total := pc.Total()
	for _, tor := range topo.ToRs() {
		if got := len(topo.Uplinks(tor)); got != cfg.AggsPerPod {
			t.Fatalf("ToR uplinks = %d, want %d", got, cfg.AggsPerPod)
		}
		want := int64(cfg.AggsPerPod * cfg.SpineUplinksPerAgg)
		if total[tor] != want {
			t.Fatalf("ToR total paths = %d, want %d", total[tor], want)
		}
	}
}

func TestClosPathsProperty(t *testing.T) {
	// For any valid 3-stage Clos, every ToR's total path count equals
	// AggsPerPod * SpineUplinksPerAgg.
	f := func(pods, tors, aggs, uplinks uint8) bool {
		cfg := ClosConfig{
			Pods:               int(pods%3) + 1,
			ToRsPerPod:         int(tors%4) + 1,
			AggsPerPod:         int(aggs%4) + 1,
			SpineUplinksPerAgg: int(uplinks%4) + 1,
		}
		cfg.Spines = cfg.SpineUplinksPerAgg * 2
		topo, err := NewClos(cfg)
		if err != nil {
			return false
		}
		pc := NewPathCounter(topo)
		total := pc.Total()
		want := int64(cfg.AggsPerPod * cfg.SpineUplinksPerAgg)
		for _, tor := range topo.ToRs() {
			if total[tor] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFatTree(t *testing.T) {
	topo, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 4 cores, 8 aggs, 8 tors; links: 8 tors*2 + 8 aggs*2 = 32.
	if topo.NumSwitches() != 20 {
		t.Fatalf("switches = %d, want 20", topo.NumSwitches())
	}
	if topo.NumLinks() != 32 {
		t.Fatalf("links = %d, want 32", topo.NumLinks())
	}
	pc := NewPathCounter(topo)
	total := pc.Total()
	for _, tor := range topo.ToRs() {
		if total[tor] != 4 { // (k/2)^2
			t.Fatalf("fat-tree ToR paths = %d, want 4", total[tor])
		}
	}
	if _, err := NewFatTree(3); err == nil {
		t.Fatal("odd arity accepted")
	}
	if _, err := NewFatTree(0); err == nil {
		t.Fatal("zero arity accepted")
	}
}

func TestMultiTier(t *testing.T) {
	topo, err := NewMultiTier([]int{8, 4, 4, 2}, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Tiers() != 3 {
		t.Fatalf("tiers = %d, want 3", topo.Tiers())
	}
	pc := NewPathCounter(topo)
	total := pc.Total()
	for _, tor := range topo.ToRs() {
		if total[tor] != 8 { // 2*2*2
			t.Fatalf("multi-tier ToR paths = %d, want 8", total[tor])
		}
	}
	if _, err := NewMultiTier([]int{4}, nil); err == nil {
		t.Fatal("single stage accepted")
	}
	if _, err := NewMultiTier([]int{4, 4}, []int{8}); err == nil {
		t.Fatal("fanout exceeding next stage accepted")
	}
	if _, err := NewMultiTier([]int{4, 0}, []int{1}); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestBreakoutGroupsDistinctAcrossSwitches(t *testing.T) {
	topo, err := NewClos(ClosConfig{Pods: 2, ToRsPerPod: 2, AggsPerPod: 4, Spines: 8, SpineUplinksPerAgg: 4, BreakoutSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Group ids on different switches must not collide within SameBreakout:
	// each returned group must only contain links of one switch pair set.
	topo.Links(func(l *Link) {
		group := topo.SameBreakout(l.ID)
		for _, g := range group {
			gl := topo.Link(g)
			if gl.BreakoutGroup != l.BreakoutGroup {
				t.Fatalf("mixed breakout groups: link %d (g%d) with link %d (g%d)",
					l.ID, l.BreakoutGroup, g, gl.BreakoutGroup)
			}
		}
	})
}
