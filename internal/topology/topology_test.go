package topology

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// buildFig10 constructs the example of Figure 10: ToR T with five uplinks to
// aggregation switches A..E, each of which has five uplinks to distinct
// spine switches. It returns the topology, T's uplinks indexed by agg, and
// the agg uplink sets.
func buildFig10(t *testing.T) (*Topology, []LinkID, [][]LinkID) {
	t.Helper()
	b := NewBuilder()
	spines := make([]SwitchID, 25)
	for i := range spines {
		spines[i] = b.AddSwitch(spineName(i), 2, -1)
	}
	aggs := make([]SwitchID, 5)
	for i := range aggs {
		aggs[i] = b.AddSwitch(string(rune('A'+i)), 1, 0)
	}
	tor := b.AddSwitch("T", 0, 0)
	torUp := make([]LinkID, 5)
	aggUp := make([][]LinkID, 5)
	for i, agg := range aggs {
		torUp[i] = b.AddLink(tor, agg, -1)
		aggUp[i] = make([]LinkID, 5)
		for j := 0; j < 5; j++ {
			aggUp[i][j] = b.AddLink(agg, spines[i*5+j], -1)
		}
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo, torUp, aggUp
}

func spineName(i int) string {
	return "spine" + string(rune('a'+i/5)) + string(rune('0'+i%5))
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder()
	b.AddSwitch("x", 0, 0)
	b.AddSwitch("x", 0, 0) // duplicate
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate switch name accepted")
	}

	b = NewBuilder()
	a := b.AddSwitch("a", 0, 0)
	c := b.AddSwitch("c", 2, -1)
	b.AddLink(a, c, -1) // skips a stage
	if _, err := b.Build(); err == nil {
		t.Fatal("non-adjacent link accepted")
	}

	b = NewBuilder()
	b.AddSwitch("lonely", 0, 0)
	b.AddSwitch("top", 1, -1)
	if _, err := b.Build(); err == nil {
		t.Fatal("ToR without uplinks accepted")
	}

	if _, err := NewBuilder().Build(); err == nil {
		t.Fatal("empty topology accepted")
	}

	b = NewBuilder()
	lo, hi := b.AddSwitch("lo", 0, 0), b.AddSwitch("hi", 1, -1)
	b.AddLink(lo, hi, 1<<40)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "int32") {
		t.Fatalf("breakout group past int32 accepted: %v", err)
	}
}

// TestAdjacencyMatchesLinkScan holds Uplinks and Downlinks to a scan of the
// links in id order, on every kind of topology the package builds: the
// generators, random fabrics, segment graphs (alone and merged) and a JSON
// round trip. An append to any row must leave every other row intact.
func TestAdjacencyMatchesLinkScan(t *testing.T) {
	clos := testClos(t)
	fat, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	topos := map[string]*Topology{"clos": clos, "fattree": fat, "multitier": testMultiTierPartition(t)}
	for seed := int64(0); seed < 20; seed++ {
		topos[fmt.Sprintf("random%d", seed)] = randomTopology(t, seed)
	}
	for _, src := range []*Topology{clos, testMultiTierPartition(t)} {
		segs := src.Partition()
		units := [][]Segment{segs}
		for _, seg := range segs {
			units = append(units, []Segment{seg})
		}
		sgs, err := src.SegmentGraphs(units)
		if err != nil {
			t.Fatal(err)
		}
		for i, sg := range sgs {
			topos[fmt.Sprintf("segment%d/%d", len(topos), i)] = sg.Topo
		}
	}
	var buf bytes.Buffer
	if _, err := clos.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if topos["roundtrip"], err = Read(&buf); err != nil {
		t.Fatal(err)
	}
	for name, topo := range topos {
		up := make([][]LinkID, topo.NumSwitches())
		down := make([][]LinkID, topo.NumSwitches())
		topo.Links(func(l *Link) {
			up[l.Lower] = append(up[l.Lower], l.ID)
			down[l.Upper] = append(down[l.Upper], l.ID)
		})
		check := func(when string) {
			for s := range up {
				id := SwitchID(s)
				if got := topo.Uplinks(id); !slices.Equal(got, up[s]) {
					t.Fatalf("%s %s: Uplinks(%d) = %v, want %v", name, when, s, got, up[s])
				}
				if got := topo.Downlinks(id); !slices.Equal(got, down[s]) {
					t.Fatalf("%s %s: Downlinks(%d) = %v, want %v", name, when, s, got, down[s])
				}
				if got := topo.LinksOnSwitch(id); !slices.Equal(got, append(slices.Clip(up[s]), down[s]...)) {
					t.Fatalf("%s %s: LinksOnSwitch(%d) = %v", name, when, s, got)
				}
			}
		}
		check("after Build")
		for s := range up {
			_ = append(topo.Uplinks(SwitchID(s)), NoLink)
			_ = append(topo.Downlinks(SwitchID(s)), NoLink)
		}
		check("after appends to every row")
	}
}

func TestFig10Structure(t *testing.T) {
	topo, torUp, aggUp := buildFig10(t)
	if topo.NumSwitches() != 31 {
		t.Fatalf("switches = %d, want 31", topo.NumSwitches())
	}
	if topo.NumLinks() != 30 {
		t.Fatalf("links = %d, want 30", topo.NumLinks())
	}
	if topo.Stages() != 3 || topo.Tiers() != 2 {
		t.Fatalf("stages = %d tiers = %d", topo.Stages(), topo.Tiers())
	}
	if len(topo.ToRs()) != 1 || len(topo.Spines()) != 25 {
		t.Fatalf("tors = %d spines = %d", len(topo.ToRs()), len(topo.Spines()))
	}
	tor := topo.ToRs()[0]
	if got := len(topo.Uplinks(tor)); got != 5 {
		t.Fatalf("ToR uplinks = %d", got)
	}
	_ = torUp
	_ = aggUp
}

func TestPathCountingFig10(t *testing.T) {
	topo, torUp, aggUp := buildFig10(t)
	pc := NewPathCounter(topo)
	tor := topo.ToRs()[0]
	total := pc.Total()
	if total[tor] != 25 {
		t.Fatalf("total ToR paths = %d, want 25", total[tor])
	}

	// Figure 10(a): disable 2 uplinks on T... actually the paper's (a)
	// disables 2 of every switch's 5 uplinks: 8 links total (T keeps
	// 3 uplinks, three aggs lose 2 spine links... ). We reproduce the
	// arithmetic directly: T with 3 uplinks to aggs that each keep 3
	// spine uplinks gives 9 of 25 paths.
	disabled := map[LinkID]bool{
		torUp[0]: true, torUp[1]: true,
		aggUp[2][0]: true, aggUp[2][1]: true,
		aggUp[3][0]: true, aggUp[3][1]: true,
		aggUp[4][0]: true, aggUp[4][1]: true,
	}
	counts := pc.Count(func(l LinkID) bool { return disabled[l] })
	if counts[tor] != 9 {
		t.Fatalf("paths after switch-local disabling = %d, want 9", counts[tor])
	}
	frac := pc.ToRFractions(func(l LinkID) bool { return disabled[l] })
	if got := frac[tor]; got != 9.0/25.0 {
		t.Fatalf("fraction = %v, want 0.36", got)
	}
}

// TestTopologyOwnsSkeleton holds the path-count skeleton to the topology:
// every counter over it shares one Total() backing equal to a fresh full
// sweep, and a new counter allocates no per-switch array beyond its inc and
// delta counts.
func TestTopologyOwnsSkeleton(t *testing.T) {
	topo, err := NewClos(ClosConfig{
		Pods: 72, ToRsPerPod: 56, AggsPerPod: 6,
		Spines: 144, SpineUplinksPerAgg: 24, BreakoutSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewPathCounter(topo), NewPathCounter(topo)
	if &a.Total()[0] != &b.Total()[0] {
		t.Errorf("two counters over one topology hold separate Total() slices")
	}
	if !slices.Equal(a.Total(), b.Count(nil)) {
		t.Errorf("Total() differs from a fresh Count(nil)")
	}

	// inc and delta are 8 bytes per switch and the disabled set one bit per
	// link; one more per-switch array of even 4 bytes would exceed the bound.
	n, words := topo.NumSwitches(), (topo.NumLinks()+63)/64
	bound := uint64(20*n + 8*words)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pc := NewPathCounter(topo)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Errorf("NewPathCounter allocated %d bytes for %d switches, want < %d", got, n, bound)
	}
	runtime.KeepAlive(pc)
}

func TestWorstAndMeanToRFraction(t *testing.T) {
	topo, err := NewClos(ClosConfig{Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 2})
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPathCounter(topo)
	if w := pc.WorstToRFraction(nil); w != 1 {
		t.Fatalf("worst fraction with no disabling = %v", w)
	}
	if m := pc.MeanToRFraction(nil); m != 1 {
		t.Fatalf("mean fraction with no disabling = %v", m)
	}
	// Disable one ToR's single uplink to its first agg.
	tor := topo.ToRs()[0]
	l := topo.Uplinks(tor)[0]
	w := pc.WorstToRFraction(func(id LinkID) bool { return id == l })
	if w >= 1 || w <= 0 {
		t.Fatalf("worst fraction = %v, want in (0,1)", w)
	}
}

func TestDownstreamToRs(t *testing.T) {
	topo, torUp, aggUp := buildFig10(t)
	tor := topo.ToRs()[0]
	for _, l := range torUp {
		tors := topo.DownstreamToRs(l)
		if len(tors) != 1 || tors[0] != tor {
			t.Fatalf("DownstreamToRs(torUp) = %v", tors)
		}
	}
	tors := topo.DownstreamToRs(aggUp[0][0])
	if len(tors) != 1 || tors[0] != tor {
		t.Fatalf("DownstreamToRs(aggUp) = %v", tors)
	}
}

// upstreamCone lists, in ascending link order, the links an unbounded
// UpstreamWalker walk from tor puts upstream of it: those whose lower
// endpoint the walk reaches.
func upstreamCone(w *UpstreamWalker, topo *Topology, tor SwitchID) []LinkID {
	w.FromToR(topo, tor, Stage(topo.Stages()-1))
	var links []LinkID
	topo.Links(func(l *Link) {
		if w.Reaches(l.Lower) {
			links = append(links, l.ID)
		}
	})
	return links
}

// TestUpstreamWalkerMatchesPaths pins the switch-reach test against path
// counting: a link is upstream of a ToR exactly when disabling it alone
// lowers that ToR's valley-free path count, on every fabric shape and with
// the climb bounded at every stage that can hold a lower endpoint.
func TestUpstreamWalkerMatchesPaths(t *testing.T) {
	fat, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	for name, topo := range map[string]*Topology{
		"clos":      testClos(t),
		"fattree":   fat,
		"multitier": testMultiTierPartition(t),
	} {
		pc := NewPathCounter(topo)
		total := pc.Total()
		var w UpstreamWalker
		for l := range topo.NumLinks() {
			lower := topo.Link(LinkID(l)).Lower
			counts := pc.Count(func(x LinkID) bool { return x == LinkID(l) })
			for top := topo.Switch(lower).Stage; int(top) < topo.Stages(); top++ {
				for _, tor := range topo.ToRs() {
					w.FromToR(topo, tor, top)
					if want := counts[tor] < total[tor]; w.Reaches(lower) != want {
						t.Fatalf("%s: link %d, ToR %d, top %d: reaches %v, path count drops %v",
							name, l, tor, top, w.Reaches(lower), want)
					}
				}
			}
		}
	}
}

func TestUpstreamLinks(t *testing.T) {
	topo, _, _ := buildFig10(t)
	var w UpstreamWalker
	up := upstreamCone(&w, topo, topo.ToRs()[0])
	if len(up) != topo.NumLinks() {
		t.Fatalf("upstream of the only ToR covers %d links, want all %d", len(up), topo.NumLinks())
	}
}

func TestUpstreamLinksPartial(t *testing.T) {
	topo, err := NewClos(ClosConfig{Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 2})
	if err != nil {
		t.Fatal(err)
	}
	tor := topo.ToRs()[0]
	otherTor := topo.ToRs()[len(topo.ToRs())-1]
	if topo.Switch(otherTor).Pod == topo.Switch(tor).Pod {
		t.Fatal("test assumes ToRs in different pods")
	}
	var w UpstreamWalker
	up := upstreamCone(&w, topo, tor)
	// The other pod's ToR uplinks must not be upstream of this ToR.
	for _, l := range topo.Uplinks(otherTor) {
		if slices.Contains(up, l) {
			t.Fatalf("link %d of a different pod's ToR marked upstream", l)
		}
	}
	// A reused walker carries no visited state over: walking the other
	// pod's ToR in between leaves this ToR's cone unchanged.
	upstreamCone(&w, topo, otherTor)
	if again := upstreamCone(&w, topo, tor); !slices.Equal(again, up) {
		t.Fatalf("second walk from ToR %d = %v, first = %v", tor, again, up)
	}
}

func TestOpposite(t *testing.T) {
	topo, torUp, _ := buildFig10(t)
	lk := topo.Link(torUp[0])
	if topo.Opposite(torUp[0], lk.Lower) != lk.Upper {
		t.Fatal("Opposite(lower) != upper")
	}
	if topo.Opposite(torUp[0], lk.Upper) != lk.Lower {
		t.Fatal("Opposite(upper) != lower")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	topo, err := NewClos(ClosConfig{Pods: 2, ToRsPerPod: 3, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 2, BreakoutSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := topo.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSwitches() != topo.NumSwitches() || got.NumLinks() != topo.NumLinks() {
		t.Fatalf("round trip changed sizes: %d/%d vs %d/%d",
			got.NumSwitches(), got.NumLinks(), topo.NumSwitches(), topo.NumLinks())
	}
	// Path counts must be identical.
	a := NewPathCounter(topo).Total()
	b := NewPathCounter(got).Total()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("path counts diverge at switch %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := Read(bytes.NewBufferString(`{"switches":[{"name":"a","stage":0,"pod":0}],"links":[{"lower":"a","upper":"ghost","breakout_group":-1}]}`)); err == nil {
		t.Fatal("unknown switch reference accepted")
	}
}

func TestSameBreakout(t *testing.T) {
	topo, err := NewClos(ClosConfig{Pods: 1, ToRsPerPod: 1, AggsPerPod: 4, Spines: 8, SpineUplinksPerAgg: 4, BreakoutSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Breakout cables sit at the aggregation→spine boundary: each agg's
	// four spine uplinks share a cable.
	agg := topo.Link(topo.Uplinks(topo.ToRs()[0])[0]).Upper
	if name := topo.Switch(agg).Name; name != "agg-0-0" {
		t.Fatalf("the ToR's first uplink reaches %s, want agg-0-0", name)
	}
	l := topo.Uplinks(agg)[0]
	group := topo.SameBreakout(l)
	if len(group) != 4 {
		t.Fatalf("breakout group size = %d, want 4", len(group))
	}
	// ToR uplinks are never grouped.
	tor := topo.ToRs()[0]
	lt := topo.Uplinks(tor)[0]
	if got := topo.SameBreakout(lt); len(got) != 1 || got[0] != lt {
		t.Fatalf("ToR uplink SameBreakout = %v, want singleton", got)
	}
	// A link without any grouping is alone.
	topo2, err := NewClos(ClosConfig{Pods: 1, ToRsPerPod: 1, AggsPerPod: 4, Spines: 8, SpineUplinksPerAgg: 4})
	if err != nil {
		t.Fatal(err)
	}
	l2 := topo2.Uplinks(topo2.ToRs()[0])[0]
	if got := topo2.SameBreakout(l2); len(got) != 1 || got[0] != l2 {
		t.Fatalf("ungrouped SameBreakout = %v", got)
	}
}

func TestWriteDOT(t *testing.T) {
	topo, err := NewClos(ClosConfig{Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2, SpineUplinksPerAgg: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := topo.WriteDOT(&buf, func(l LinkID) bool { return l == 0 }); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "graph dcn {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Fatalf("not a DOT document:\n%s", out)
	}
	if strings.Count(out, "--") != topo.NumLinks() {
		t.Fatalf("edge count %d, want %d", strings.Count(out, "--"), topo.NumLinks())
	}
	if strings.Count(out, "style=dashed") != 1 {
		t.Fatal("disabled link not marked")
	}
	if strings.Count(out, "rank=same") != topo.Stages() {
		t.Fatal("stage ranks missing")
	}
}
