package topology

import (
	"fmt"
	"slices"
)

// Segment is one atomic unit of the static sharding axis: a set of links
// closed under the valley-free upstream cones of its ToRs, together with
// those ToRs. Two links land in the same segment exactly when they are
// connected through a non-top switch, which is the transitive closure of
// "some ToR's upstream cone contains both".
//
// The boundary invariant that makes segments shardable: a ToR's valley-free
// path count depends only on links in its own upstream cone, and the cone of
// every ToR in a segment is contained in that segment's link set. Disabling
// or enabling a link therefore changes the counts of ToRs in its own segment
// only — a shard owning a union of whole segments can run
// PathCounter.Apply/Revert locally and never needs a global rescan.
//
// Links reachable from no ToR (a switch chain with no ToR below it) attach
// to whatever segment they share a non-top switch with, or form ToR-less
// segments of their own; disabling them changes no ToR's count.
type Segment struct {
	// Links is the segment's link set, ascending.
	Links []LinkID
	// ToRs are the stage-0 switches whose upstream cones the segment
	// closes over, ascending. Empty for a ToR-less orphan segment.
	ToRs []SwitchID
}

// Partition splits the topology's links into disjoint cone-closed segments,
// ordered by their smallest link id: segment i holds the links whose
// LinkSegment is i, numbered once by Build. Every link appears in exactly
// one segment and every ToR in exactly one segment (its cone's). On a Clos
// fabric the segments are exactly the pods: pods share spine switches but
// never links, and the top stage does not merge components.
func (t *Topology) Partition() []Segment {
	if t.NumLinks() == 0 {
		// Degenerate single-stage topology: one segment holding every
		// ToR and no links.
		return []Segment{{ToRs: slices.Clone(t.ToRs())}}
	}
	segs := make([]Segment, t.segments)
	for i := range t.links {
		s := &segs[t.links[i].seg]
		s.Links = append(s.Links, LinkID(i))
	}
	for _, tor := range t.ToRs() {
		up := t.Switch(tor).Uplinks
		if len(up) == 0 {
			// Unreachable with links present: any link forces ≥2
			// stages, and Build rejects below-top switches without
			// uplinks. Kept as a guard for hand-built topologies.
			continue
		}
		s := &segs[t.links[up[0]].seg]
		s.ToRs = append(s.ToRs, tor)
	}
	return segs
}

// SegmentGraph is a standalone compact topology induced by one or more
// segments of a source topology, with the id-mapping tables needed to route
// events between the two id spaces.
type SegmentGraph struct {
	// Topo is the induced topology. Switches keep their source names,
	// stages and pods; breakout groups carry over unchanged (breakout
	// siblings share a lower switch, so they are never split across
	// segments).
	Topo *Topology
	// Links maps local link id → source link id, ascending in both id
	// spaces: local id i is the i-th smallest source link.
	Links []LinkID
	// Switches maps local switch id → source switch id, ascending in both
	// id spaces.
	Switches []SwitchID
}

// SegmentGraph builds the induced subgraph of the given segments. The
// segments must come from this topology's Partition (link-disjoint); at
// least one must contain a ToR, since a topology cannot be built without
// one.
func (t *Topology) SegmentGraph(segs []Segment) (*SegmentGraph, error) {
	nLinks := 0
	for _, s := range segs {
		nLinks += len(s.Links)
	}
	if nLinks == 0 {
		return nil, fmt.Errorf("topology: segment graph needs at least one link")
	}
	links := make([]LinkID, 0, nLinks)
	for _, s := range segs {
		links = append(links, s.Links...)
	}
	slices.Sort(links)

	// Collect endpoint switches, ascending by source id.
	inGraph := make([]bool, t.NumSwitches())
	for _, l := range links {
		lk := t.Link(l)
		inGraph[lk.Lower] = true
		inGraph[lk.Upper] = true
	}
	switches := make([]SwitchID, 0, 2*len(links))
	localSwitch := make([]SwitchID, t.NumSwitches())
	for s := range inGraph {
		if inGraph[s] {
			localSwitch[s] = SwitchID(len(switches))
			switches = append(switches, SwitchID(s))
		}
	}

	b := NewBuilder()
	for _, src := range switches {
		sw := t.Switch(src)
		b.AddSwitch(sw.Name, sw.Stage, sw.Pod)
	}
	for _, src := range links {
		lk := t.Link(src)
		b.AddLink(localSwitch[lk.Lower], localSwitch[lk.Upper], lk.BreakoutGroup)
	}
	topo, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("topology: segment graph: %w", err)
	}
	return &SegmentGraph{Topo: topo, Links: links, Switches: switches}, nil
}
