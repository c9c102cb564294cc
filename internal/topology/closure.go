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
		sw := t.Switch(cur)
		if sw.Stage == 0 {
			tors = append(tors, cur)
			continue
		}
		for _, dl := range sw.Downlinks {
			nxt := t.Link(dl).Lower
			if !seen[nxt] {
				seen[nxt] = true
				stack = append(stack, nxt)
			}
		}
	}
	return tors
}

// UpstreamWalker recomputes upstream link cones repeatedly without
// re-allocating traversal state; the zero value is ready to use. The
// optimizer holds one per instance and walks a cone per endangered ToR on
// every run, so the visited array and stack amortize across the whole
// simulation. Not safe for concurrent use.
type UpstreamWalker struct {
	seen  []bool
	stack []SwitchID
}

// FromToR adds to set every link on some valley-free path from tor to the
// spine. Disabling a link outside that cone cannot change tor's path count,
// which is what justifies the optimizer's pruning step: a corrupting link
// upstream of no at-risk ToR can be disabled unconditionally. set must be
// sized for t (NewLinkSet(t.NumLinks())) and is not cleared first, so
// callers can union several cones into one set.
func (w *UpstreamWalker) FromToR(t *Topology, tor SwitchID, set *LinkSet) {
	if cap(w.seen) < len(t.switches) {
		w.seen = make([]bool, len(t.switches))
	}
	seen := w.seen[:len(t.switches)]
	clear(seen)
	stack := append(w.stack[:0], tor)
	seen[tor] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ul := range t.Switch(cur).Uplinks {
			set.Add(ul)
			nxt := t.Link(ul).Upper
			if !seen[nxt] {
				seen[nxt] = true
				stack = append(stack, nxt)
			}
		}
	}
	w.seen, w.stack = seen, stack[:0]
}

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
