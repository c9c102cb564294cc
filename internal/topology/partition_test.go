package topology

import (
	"slices"
	"testing"
	"unsafe"

	"corropt/internal/rngutil"
)

func testClos(t *testing.T) *Topology {
	t.Helper()
	topo, err := NewClos(ClosConfig{
		Pods:               4,
		ToRsPerPod:         8,
		AggsPerPod:         4,
		Spines:             16,
		SpineUplinksPerAgg: 4,
		BreakoutSize:       4,
	})
	if err != nil {
		t.Fatalf("NewClos: %v", err)
	}
	return topo
}

// TestPartitionClosPods pins the headline structural fact: on a Clos fabric
// the segments are exactly the pods.
func TestPartitionClosPods(t *testing.T) {
	topo := testClos(t)
	segs := topo.Partition()
	if len(segs) != 4 {
		t.Fatalf("got %d segments, want 4 (one per pod)", len(segs))
	}
	linkTotal, torTotal := 0, 0
	seenLinks := make(map[LinkID]int)
	seenToRs := make(map[SwitchID]int)
	for si, seg := range segs {
		linkTotal += len(seg.Links)
		torTotal += len(seg.ToRs)
		if len(seg.ToRs) != 8 {
			t.Errorf("segment %d: %d ToRs, want 8", si, len(seg.ToRs))
		}
		if !slices.IsSorted(seg.Links) || !slices.IsSorted(seg.ToRs) {
			t.Errorf("segment %d: links/tors not ascending", si)
		}
		pod := -2
		for _, l := range seg.Links {
			if prev, dup := seenLinks[l]; dup {
				t.Fatalf("link %d in segments %d and %d", l, prev, si)
			}
			seenLinks[l] = si
			lower := topo.Switch(topo.Link(l).Lower)
			if pod == -2 {
				pod = lower.Pod
			} else if lower.Pod != pod {
				t.Errorf("segment %d spans pods %d and %d", si, pod, lower.Pod)
			}
		}
		for _, tor := range seg.ToRs {
			if prev, dup := seenToRs[tor]; dup {
				t.Fatalf("ToR %d in segments %d and %d", tor, prev, si)
			}
			seenToRs[tor] = si
			if topo.Switch(tor).Pod != pod {
				t.Errorf("segment %d: ToR %d outside pod %d", si, tor, pod)
			}
		}
	}
	if linkTotal != topo.NumLinks() {
		t.Errorf("segments cover %d links, topology has %d", linkTotal, topo.NumLinks())
	}
	if torTotal != len(topo.ToRs()) {
		t.Errorf("segments cover %d ToRs, topology has %d", torTotal, len(topo.ToRs()))
	}
}

// TestPartitionConeClosed verifies the boundary invariant directly: every
// ToR's upstream cone is contained in its segment's link set.
func TestPartitionConeClosed(t *testing.T) {
	fat, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	for name, topo := range map[string]*Topology{
		"clos":      testClos(t),
		"fattree":   fat,
		"multitier": testMultiTierPartition(t),
	} {
		segs := topo.Partition()
		var w UpstreamWalker
		for si, seg := range segs {
			inSeg := NewLinkSet(topo.NumLinks())
			for _, l := range seg.Links {
				inSeg.Add(l)
			}
			for _, tor := range seg.ToRs {
				for _, l := range upstreamCone(&w, topo, tor) {
					if !inSeg.Has(l) {
						t.Errorf("%s: segment %d: ToR %d cone link %d outside segment", name, si, tor, l)
					}
				}
			}
		}
	}
}

// TestLinkSegmentMatchesComponents holds Build's segment numbering to a
// flood fill: two links share a LinkSegment iff a walk through switches
// below the top stage joins them, and segments are numbered in order of
// their smallest link. Link stays 20 bytes: five 4-byte fields, the segment
// among them.
func TestLinkSegmentMatchesComponents(t *testing.T) {
	if size := unsafe.Sizeof(Link{}); size != 20 {
		t.Fatalf("Link is %d bytes, want 20", size)
	}
	topos := []*Topology{testClos(t), testMultiTierPartition(t)}
	for seed := int64(0); seed < 20; seed++ {
		topos = append(topos, randomTopology(t, seed))
	}
	for i, topo := range topos {
		top := Stage(topo.Stages() - 1)
		want := make([]int, topo.NumLinks())
		for l := range want {
			want[l] = -1
		}
		next := 0
		for start := range want {
			if want[start] >= 0 {
				continue
			}
			want[start] = next
			stack := []LinkID{LinkID(start)}
			for len(stack) > 0 {
				lk := topo.Link(stack[len(stack)-1])
				stack = stack[:len(stack)-1]
				for _, s := range []SwitchID{lk.Lower, lk.Upper} {
					if topo.Switch(s).Stage == top {
						continue
					}
					for _, m := range topo.LinksOnSwitch(s) {
						if want[m] < 0 {
							want[m] = next
							stack = append(stack, m)
						}
					}
				}
			}
			next++
		}
		if topo.NumSegments() != next {
			t.Errorf("topology %d: %d segments, flood fill finds %d", i, topo.NumSegments(), next)
		}
		for l, w := range want {
			if got := topo.LinkSegment(LinkID(l)); got != w {
				t.Fatalf("topology %d: link %d in segment %d, flood fill %d", i, l, got, w)
			}
		}
	}
}

func testMultiTierPartition(t *testing.T) *Topology {
	t.Helper()
	topo, err := NewMultiTier([]int{8, 4, 4, 2}, []int{2, 2, 2})
	if err != nil {
		t.Fatalf("NewMultiTier: %v", err)
	}
	return topo
}

// TestPartitionOrphanLinks builds a topology with a switch chain that has no
// ToR below it and checks the orphan links still land in exactly one
// segment, without acquiring ToRs.
func TestPartitionOrphanLinks(t *testing.T) {
	b := NewBuilder()
	tor := b.AddSwitch("tor", 0, 0)
	agg := b.AddSwitch("agg", 1, 0)
	orphan := b.AddSwitch("orphan-agg", 1, 1) // no downlinks: ToR-less
	spine := b.AddSwitch("spine", 2, -1)
	b.AddLink(tor, agg, -1)
	b.AddLink(agg, spine, -1)
	ol := b.AddLink(orphan, spine, -1)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	segs := topo.Partition()
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2", len(segs))
	}
	var orphanSeg *Segment
	for i := range segs {
		if slices.Contains(segs[i].Links, ol) {
			orphanSeg = &segs[i]
		}
	}
	if orphanSeg == nil {
		t.Fatalf("orphan link %d in no segment", ol)
	}
	if len(orphanSeg.ToRs) != 0 || len(orphanSeg.Links) != 1 {
		t.Errorf("orphan segment = %+v, want 1 link and no ToRs", *orphanSeg)
	}
}

// TestPartitionNoLinks covers the degenerate single-stage topology.
func TestPartitionNoLinks(t *testing.T) {
	b := NewBuilder()
	b.AddSwitch("lone", 0, 0)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	segs := topo.Partition()
	if len(segs) != 1 || len(segs[0].Links) != 0 || len(segs[0].ToRs) != 1 {
		t.Fatalf("got %+v, want one linkless segment with one ToR", segs)
	}
}

// TestSegmentGraphCountsMatch is the differential that licenses sharding:
// for random disabled subsets drawn inside one segment, per-ToR valley-free
// path counts in the induced subgraph equal the counts in the full topology
// with the same (source-id) links disabled.
func TestSegmentGraphCountsMatch(t *testing.T) {
	for name, topo := range map[string]*Topology{
		"clos":      testClos(t),
		"multitier": testMultiTierPartition(t),
	} {
		rng := rngutil.New(7).Split(name)
		segs := topo.Partition()
		full := NewPathCounter(topo)
		disabled := NewLinkSet(topo.NumLinks())
		for si, seg := range segs {
			sgs, err := topo.SegmentGraphs([][]Segment{{seg}})
			if err != nil {
				t.Fatalf("%s: SegmentGraphs(%d): %v", name, si, err)
			}
			sg := sgs[0]
			if got := sg.Topo.NumLinks(); got != len(seg.Links) {
				t.Fatalf("%s: segment %d graph has %d links, want %d", name, si, got, len(seg.Links))
			}
			sub := NewPathCounter(sg.Topo)
			for trial := 0; trial < 8; trial++ {
				disabled.Clear()
				subDisabled := NewLinkSet(sg.Topo.NumLinks())
				for local, src := range sg.Links {
					if rng.Bool(0.3) {
						disabled.Add(src)
						subDisabled.Add(LinkID(local))
					}
				}
				fullCounts := full.Count(disabled.Func())
				subCounts := sub.Count(subDisabled.Func())
				for localToR, subSw := range sg.Switches {
					sw := topo.Switch(subSw)
					if sw.Stage != 0 {
						continue
					}
					if fullCounts[subSw] != subCounts[localToR] {
						t.Fatalf("%s: segment %d trial %d: ToR %s count %d in subgraph, %d in full topology",
							name, si, trial, sw.Name, subCounts[localToR], fullCounts[subSw])
					}
				}
			}
		}
	}
}

// TestSegmentGraphMapping checks the id-mapping tables and metadata carry
// over: an ascending link map, a switch map ascending within each class
// with the top stage last, preserved names/stages/pods/breakout groups. The
// graph's counter keeps counts for the switches under the top stage only;
// the source Clos, which numbers its spines first, keeps them for all.
func TestSegmentGraphMapping(t *testing.T) {
	topo := testClos(t)
	segs := topo.Partition()
	sgs, err := topo.SegmentGraphs([][]Segment{segs[1:3]})
	if err != nil {
		t.Fatalf("SegmentGraphs: %v", err)
	}
	sg := sgs[0]
	if !slices.IsSorted(sg.Links) {
		t.Fatalf("link map not ascending")
	}
	top := Stage(sg.Topo.Stages() - 1)
	below := slices.IndexFunc(sg.Switches, func(s SwitchID) bool { return topo.Switch(s).Stage == top })
	if below <= 0 || !slices.IsSorted(sg.Switches[:below]) || !slices.IsSorted(sg.Switches[below:]) {
		t.Fatalf("switch map %v is not ascending under the top stage, then ascending over it", sg.Switches)
	}
	for _, s := range sg.Switches[below:] {
		if topo.Switch(s).Stage != top {
			t.Fatalf("switch map %v: stage %d switch %d after the top stage's first", sg.Switches, topo.Switch(s).Stage, s)
		}
	}
	if n := len(NewPathCounter(sg.Topo).IncCounts()); n != below {
		t.Errorf("graph counter keeps %d counts, want the %d switches under the top stage", n, below)
	}
	if n := len(NewPathCounter(topo).IncCounts()); n != topo.NumSwitches() {
		t.Errorf("Clos counter keeps %d counts, want all %d switches", n, topo.NumSwitches())
	}
	if want := len(segs[1].Links) + len(segs[2].Links); sg.Topo.NumLinks() != want {
		t.Fatalf("got %d links, want %d", sg.Topo.NumLinks(), want)
	}
	for local, src := range sg.Switches {
		got, want := sg.Topo.Switch(SwitchID(local)), topo.Switch(src)
		if got.Name != want.Name || got.Stage != want.Stage || got.Pod != want.Pod {
			t.Errorf("switch %d: got (%s,%d,%d), want (%s,%d,%d)",
				local, got.Name, got.Stage, got.Pod, want.Name, want.Stage, want.Pod)
		}
	}
	for local, src := range sg.Links {
		got, want := sg.Topo.Link(LinkID(local)), topo.Link(src)
		if sg.Switches[got.Lower] != want.Lower || sg.Switches[got.Upper] != want.Upper {
			t.Errorf("link %d: endpoint mapping mismatch", local)
		}
		if got.BreakoutGroup != want.BreakoutGroup {
			t.Errorf("link %d: breakout group %d, want %d", local, got.BreakoutGroup, want.BreakoutGroup)
		}
	}
	if _, err := topo.SegmentGraphs([][]Segment{nil}); err == nil {
		t.Fatalf("SegmentGraphs of an empty unit succeeded, want error")
	}
}
