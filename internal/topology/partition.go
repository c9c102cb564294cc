package topology

import (
	"encoding/binary"
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
		up := t.Uplinks(tor)
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
	// Topo is the induced topology, shared by every graph of its shape (see
	// SegmentGraphs). Switches keep their source stages, links their
	// breakout-group pattern (breakout siblings share a lower switch, so
	// they are never split across segments); names, pods and group numbers
	// are those of the first graph of the shape.
	Topo *Topology
	// Links maps local link id → source link id, ascending in both id
	// spaces: local id i is the i-th smallest source link.
	Links []LinkID
	// Switches maps local switch id → source switch id, ascending by source
	// id within each class: the switches under the graph's top stage, then
	// its top stage, for which Topo's counters keep no count.
	Switches []SwitchID
}

// SegmentGraphs builds the induced subgraph of each unit of segments. The
// segments must come from this topology's Partition (link-disjoint); at
// least one of each unit's must contain a ToR, since a topology cannot be
// built without one. Units whose induced topologies are identical — the
// same switch stages, the same local link endpoints in the same order, the
// same breakout-group pattern — share one Topo, which only the first of
// them builds: a fabric of repeated pod designs stores each design once.
func (t *Topology) SegmentGraphs(units [][]Segment) ([]*SegmentGraph, error) {
	out := make([]*SegmentGraph, len(units))
	shapes := make(map[string]*Topology)
	local := make([]SwitchID, t.NumSwitches()) // source → local switch id
	groups := make(map[int32]uint64)
	var ends []SwitchID
	var key []byte
	for i, segs := range units {
		nLinks := 0
		for _, s := range segs {
			nLinks += len(s.Links)
		}
		if nLinks == 0 {
			return nil, fmt.Errorf("topology: segment graph needs at least one link")
		}
		links := make([]LinkID, 0, nLinks)
		top := Stage(0)
		ends = ends[:0]
		for _, s := range segs {
			links = append(links, s.Links...)
			for _, l := range s.Links {
				ends = append(ends, t.links[l].Lower, t.links[l].Upper)
				top = max(top, t.switches[t.links[l].Upper].Stage)
			}
		}
		slices.Sort(links)
		slices.Sort(ends)
		ends = slices.Compact(ends)
		g := &SegmentGraph{Links: links, Switches: make([]SwitchID, 0, len(ends))}
		// The shape key: the switch and link counts, each local switch's
		// stage, and each local link's endpoints and breakout group, the
		// groups numbered by first use (0 for none).
		key = binary.AppendUvarint(binary.AppendUvarint(key[:0], uint64(len(ends))), uint64(nLinks))
		for _, atTop := range [2]bool{false, true} {
			for _, s := range ends {
				if (t.switches[s].Stage == top) == atTop {
					local[s] = SwitchID(len(g.Switches))
					g.Switches = append(g.Switches, s)
					key = binary.AppendUvarint(key, uint64(t.switches[s].Stage))
				}
			}
		}
		clear(groups)
		for _, l := range links {
			lk := &t.links[l]
			group := uint64(0)
			if lk.BreakoutGroup >= 0 {
				if group = groups[lk.BreakoutGroup]; group == 0 {
					group = uint64(len(groups)) + 1
					groups[lk.BreakoutGroup] = group
				}
			}
			for _, v := range [3]uint64{uint64(local[lk.Lower]), uint64(local[lk.Upper]), group} {
				key = binary.AppendUvarint(key, v)
			}
		}
		out[i] = g
		if g.Topo = shapes[string(key)]; g.Topo != nil {
			continue
		}
		b := NewBuilder()
		for _, src := range g.Switches {
			sw := t.Switch(src)
			b.AddSwitch(sw.Name, sw.Stage, sw.Pod)
		}
		for _, src := range links {
			lk := t.Link(src)
			b.AddLink(local[lk.Lower], local[lk.Upper], int(lk.BreakoutGroup))
		}
		topo, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("topology: segment graph: %w", err)
		}
		g.Topo = topo
		shapes[string(key)] = topo
	}
	return out, nil
}
