// Package routing computes ECMP link loads for valley-free routing on a
// (possibly degraded) Clos topology. It exists to quantify the premise
// behind CorrOpt's capacity constraints (§5.1): disabling corrupting links
// shrinks the path diversity ECMP spreads over, and blind disabling can
// concentrate traffic into hotspots — trading corruption losses for heavy
// congestion losses — or even partition ToRs from each other.
//
// Routing follows the valley-free discipline: a flow climbs zero or more
// stages, turns at most once, and descends to its destination. ECMP splits
// traffic equally across all next hops that lie on a shortest surviving
// valley-free path. Loads are computed exactly by mass diffusion over the
// shortest-path DAG of each destination.
package routing

import (
	"fmt"
	"math"
	"sort"

	"corropt/internal/topology"
)

// phase is the valley-free routing phase: climbing or descending.
type phase int

const (
	up phase = iota
	down
	numPhases
)

// Demand is one src→dst traffic demand between ToRs, in arbitrary rate
// units (loads come out in the same units).
type Demand struct {
	Src, Dst topology.SwitchID
	Rate     float64
}

// Loads is the result of routing a demand set.
type Loads struct {
	// PerLink holds the carried load per link and direction.
	PerLink [2][]float64
	// Unroutable sums the demand that found no surviving valley-free
	// path (the partition case).
	Unroutable float64
	// Routed sums the demand delivered.
	Routed float64
}

// MaxLoad returns the highest per-direction link load and the link carrying
// it.
func (l *Loads) MaxLoad() (float64, topology.LinkID, topology.Direction) {
	best, bestLink, bestDir := 0.0, topology.NoLink, topology.Up
	for d := 0; d < 2; d++ {
		for i, v := range l.PerLink[d] {
			if v > best {
				best, bestLink, bestDir = v, topology.LinkID(i), topology.Direction(d)
			}
		}
	}
	return best, bestLink, bestDir
}

// Load reports the carried load of one link direction.
func (l *Loads) Load(link topology.LinkID, dir topology.Direction) float64 {
	return l.PerLink[dir][link]
}

// Router routes demands over one topology. It keeps reusable buffers; a
// Router is not safe for concurrent use.
type Router struct {
	topo *topology.Topology
	// dist[phase][switch] is the hop distance to the current destination
	// in the valley-free state graph.
	dist [numPhases][]int32
	// mass[phase][switch] is the diffusion mass during load computation.
	mass [numPhases][]float64
	// queue is scratch for the BFS.
	queue []stateRef
	// order holds reachable states bucket-sorted by distance descending,
	// the sweep order of the load diffusion (every ECMP hop strictly
	// decreases distance-to-destination, so by the time a state is swept
	// all its mass has been deposited).
	order []stateRef
}

type stateRef struct {
	sw topology.SwitchID
	ph phase
}

// New returns a Router for t.
func New(t *topology.Topology) *Router {
	r := &Router{topo: t}
	for p := phase(0); p < numPhases; p++ {
		r.dist[p] = make([]int32, t.NumSwitches())
		r.mass[p] = make([]float64, t.NumSwitches())
	}
	return r
}

const unreachable = int32(math.MaxInt32)

// bfs fills dist with hop counts to dst over the reversed valley-free
// state graph, considering disabled links, and records the visit order.
func (r *Router) bfs(dst topology.SwitchID, disabled topology.DisabledFunc) {
	t := r.topo
	for p := phase(0); p < numPhases; p++ {
		for i := range r.dist[p] {
			r.dist[p][i] = unreachable
		}
	}
	r.queue = r.queue[:0]

	// Destination states: arriving while descending, or having never
	// climbed (the trivial same-ToR case starts in the up phase).
	r.dist[down][dst] = 0
	r.dist[up][dst] = 0
	r.queue = append(r.queue, stateRef{dst, down}, stateRef{dst, up})

	active := func(l topology.LinkID) bool { return disabled == nil || !disabled(l) }

	// Label-correcting relaxation: the free turn edge ((v,up) reaches
	// (v,down) at cost 0) breaks plain-BFS monotonicity, so improvements
	// re-enqueue. Distances only shrink, so this terminates quickly.
	relax := func(sw topology.SwitchID, ph phase, d int32) {
		if r.dist[ph][sw] > d {
			r.dist[ph][sw] = d
			r.queue = append(r.queue, stateRef{sw, ph})
		}
	}
	for len(r.queue) > 0 {
		cur := r.queue[0]
		r.queue = r.queue[1:]
		d := r.dist[cur.ph][cur.sw]
		switch cur.ph {
		case down:
			// Predecessors descend into cur.sw from above via its
			// uplinks' upper ends (cost 1), or turn here: the same
			// switch in the up phase (cost 0).
			for _, l := range t.Uplinks(cur.sw) {
				if active(l) {
					relax(t.Link(l).Upper, down, d+1)
				}
			}
			relax(cur.sw, up, d)
		case up:
			// Predecessors climb into cur.sw from below via its
			// downlinks' lower ends, still in the up phase.
			for _, l := range t.Downlinks(cur.sw) {
				if active(l) {
					relax(t.Link(l).Lower, up, d+1)
				}
			}
		}
	}

	// Bucket states by final distance, descending, for the diffusion.
	maxD := int32(0)
	for p := phase(0); p < numPhases; p++ {
		for _, d := range r.dist[p] {
			if d != unreachable && d > maxD {
				maxD = d
			}
		}
	}
	buckets := make([][]stateRef, maxD+1)
	// Within a distance bucket, up-phase states must precede down-phase
	// ones: the only equal-distance hop is the free turn (v,up)→(v,down),
	// so sweeping up before down keeps mass flowing forward. Iterating
	// phases in declaration order (up=0 first) guarantees it.
	for p := phase(0); p < numPhases; p++ {
		for sw, d := range r.dist[p] {
			if d != unreachable {
				buckets[d] = append(buckets[d], stateRef{topology.SwitchID(sw), p})
			}
		}
	}
	r.order = r.order[:0]
	for d := maxD; d >= 0; d-- {
		r.order = append(r.order, buckets[d]...)
	}
}

// Route computes exact ECMP loads for the demand set under the disabled
// set. Demands between non-ToR switches are rejected.
func (r *Router) Route(demands []Demand, disabled topology.DisabledFunc) (*Loads, error) {
	t := r.topo
	out := &Loads{}
	for d := 0; d < 2; d++ {
		out.PerLink[d] = make([]float64, t.NumLinks())
	}
	// Group demands by destination: one BFS + diffusion per dst.
	byDst := make(map[topology.SwitchID][]Demand)
	for _, dm := range demands {
		if t.Switch(dm.Src).Stage != 0 || t.Switch(dm.Dst).Stage != 0 {
			return nil, fmt.Errorf("routing: demands must connect ToRs, got %s -> %s",
				t.Switch(dm.Src).Name, t.Switch(dm.Dst).Name)
		}
		if dm.Rate < 0 {
			return nil, fmt.Errorf("routing: negative demand rate %v", dm.Rate)
		}
		if dm.Src == dm.Dst || dm.Rate == 0 {
			continue // delivered without touching any link
		}
		byDst[dm.Dst] = append(byDst[dm.Dst], dm)
	}
	active := func(l topology.LinkID) bool { return disabled == nil || !disabled(l) }

	// Sweep destinations in ascending id order, not map order: Routed,
	// Unroutable, and PerLink accumulate across destinations, and float
	// addition is not associative — a map-order sweep would leave
	// run-dependent last bits in the loads (the fold rule maprange holds in
	// every package, DESIGN.md §7.5).
	dsts := make([]topology.SwitchID, 0, len(byDst))
	for dst := range byDst {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })

	for _, dst := range dsts {
		dms := byDst[dst]
		r.bfs(dst, disabled)
		for p := phase(0); p < numPhases; p++ {
			for i := range r.mass[p] {
				r.mass[p][i] = 0
			}
		}
		// Seed source masses; unreachable sources are partitioned.
		seeded := false
		for _, dm := range dms {
			if r.dist[up][dm.Src] == unreachable {
				out.Unroutable += dm.Rate
				continue
			}
			r.mass[up][dm.Src] += dm.Rate
			out.Routed += dm.Rate
			seeded = true
		}
		if !seeded {
			continue
		}
		// Diffuse along the shortest-path DAG in distance-descending
		// order: every hop strictly decreases distance-to-dst, so all of
		// a state's incoming mass is present before it is swept.
		for _, cur := range r.order {
			m := r.mass[cur.ph][cur.sw]
			if m == 0 {
				continue
			}
			d := r.dist[cur.ph][cur.sw]
			if d == 0 {
				continue // delivered
			}
			// Collect equal-cost next hops.
			type hop struct {
				link topology.LinkID
				dir  topology.Direction
				to   stateRef
			}
			var hops []hop
			if cur.ph == up {
				// Turn in place (free) if descending from here works.
				if r.dist[down][cur.sw] == d {
					hops = append(hops, hop{link: topology.NoLink, to: stateRef{cur.sw, down}})
				}
				for _, l := range t.Uplinks(cur.sw) {
					if !active(l) {
						continue
					}
					upSw := t.Link(l).Upper
					if r.dist[up][upSw] == d-1 {
						hops = append(hops, hop{link: l, dir: topology.Up, to: stateRef{upSw, up}})
					}
				}
			} else {
				for _, l := range t.Downlinks(cur.sw) {
					if !active(l) {
						continue
					}
					lowSw := t.Link(l).Lower
					if r.dist[down][lowSw] == d-1 {
						hops = append(hops, hop{link: l, dir: topology.Down, to: stateRef{lowSw, down}})
					}
				}
			}
			if len(hops) == 0 {
				// Cannot happen if dist is consistent.
				return nil, fmt.Errorf("routing: internal: no next hop from %s/%v at distance %d",
					t.Switch(cur.sw).Name, cur.ph, d)
			}
			share := m / float64(len(hops))
			for _, h := range hops {
				if h.link != topology.NoLink {
					out.PerLink[h.dir][h.link] += share
				}
				r.mass[h.to.ph][h.to.sw] += share
			}
			r.mass[cur.ph][cur.sw] = 0
		}
	}
	return out, nil
}

// UniformAllToAll builds an all-pairs demand set with the given rate per
// ToR pair.
func UniformAllToAll(t *topology.Topology, rate float64) []Demand {
	tors := t.ToRs()
	out := make([]Demand, 0, len(tors)*(len(tors)-1))
	for _, s := range tors {
		for _, d := range tors {
			if s != d {
				out = append(out, Demand{Src: s, Dst: d, Rate: rate})
			}
		}
	}
	return out
}
