package topology

// Structural closure queries used by the optimizer's topology pruning
// (§5.1, Figure 11) and by the spatial-locality analysis (§3).

// DownstreamToRs returns the ToRs whose valley-free spine paths can traverse
// link l: exactly the ToRs reachable by walking downward from l's lower
// endpoint. The fast checker only needs to re-check the capacity constraints
// of these ToRs when deciding whether l can be disabled.
func (t *Topology) DownstreamToRs(l LinkID) []SwitchID {
	lower := t.Link(l).Lower
	return t.torsBelow(lower)
}

// torsBelow walks downward from s collecting stage-0 switches.
func (t *Topology) torsBelow(s SwitchID) []SwitchID {
	if t.Switch(s).Stage == 0 {
		return []SwitchID{s}
	}
	var tors []SwitchID
	seen := make(map[SwitchID]bool)
	stack := []SwitchID{s}
	seen[s] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.switches[cur].Stage == 0 {
			tors = append(tors, cur)
			continue
		}
		for _, dl := range t.Downlinks(cur) {
			nxt := t.Link(dl).Lower
			if !seen[nxt] {
				seen[nxt] = true
				stack = append(stack, nxt)
			}
		}
	}
	return tors
}

// UpstreamWalker answers "is link l upstream of ToR tor?" — whether l lies
// on some valley-free path from tor to the spine, so that disabling l can
// change tor's path count — by walking switches, not links. Every link joins
// adjacent stages (Builder.AddLink rejects any other), and a ToR's upstream
// links are exactly the uplinks of the switches it reaches by climbing, so
//
//	l is upstream of tor  ⟺  l's lower endpoint is reached from tor.
//
// A caller that only asks about links whose lower endpoints sit at or below
// some stage top can stop the climb there: a switch above top leads only to
// higher ones. The optimizer's pruning and segmentation ask this of each
// (endangered ToR, corrupting link) pair on every activation, with top the
// highest stage among the corrupting links' lower endpoints, so a walk marks
// a handful of switches where the full cone holds hundreds of links.
//
// The zero value is ready to use; the marks and the list of marked switches
// amortize across walks, and each walk unmarks only what the previous one
// marked. Not safe for concurrent use.
type UpstreamWalker struct {
	seen   []bool
	marked []SwitchID
}

// FromToR marks every switch reachable upward from tor without climbing past
// stage top, replacing the previous walk's marks; Reaches then answers for
// switches at stages up to top. Switches at stage top are marked but not
// expanded.
func (w *UpstreamWalker) FromToR(t *Topology, tor SwitchID, top Stage) {
	if len(w.seen) < len(t.switches) {
		w.seen = make([]bool, len(t.switches))
	} else {
		for _, s := range w.marked {
			w.seen[s] = false
		}
	}
	w.marked = append(w.marked[:0], tor)
	w.seen[tor] = true
	for i := 0; i < len(w.marked); i++ {
		s := w.marked[i]
		if t.switches[s].Stage >= top {
			continue
		}
		for _, ul := range t.Uplinks(s) {
			if up := t.links[ul].Upper; !w.seen[up] {
				w.seen[up] = true
				w.marked = append(w.marked, up)
			}
		}
	}
}

// Reaches reports whether the last FromToR walk marked s: for a switch at or
// below that walk's top stage, whether s is reachable upward from its ToR.
func (w *UpstreamWalker) Reaches(s SwitchID) bool { return w.seen[s] }

// SwitchesWithLinks returns the distinct switches touched by the given
// links (either endpoint). The locality analysis of Figure 4 is a ratio of
// such switch-set sizes.
func (t *Topology) SwitchesWithLinks(links []LinkID) map[SwitchID]bool {
	out := make(map[SwitchID]bool)
	for _, l := range links {
		lk := t.Link(l)
		out[lk.Lower] = true
		out[lk.Upper] = true
	}
	return out
}
