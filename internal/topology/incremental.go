package topology

// Incremental path counting: maintain exact per-switch counts under
// single-link disable/enable toggles.
//
// Disabling link l = (lower, upper) removes exactly count(upper) paths from
// lower, and nothing above lower changes. Because count(v) is a sum over
// v's active uplinks of the upper endpoints' counts, a change of d at one
// switch propagates additively down the switch's downstream cone. Apply and
// Revert push that exact integer delta stage by stage, visiting only
// switches whose counts actually change — O(downstream cone) work, which on
// a Clos topology is one pod or less, against O(|V|+|E|) for a full sweep.
//
// The deltas are exact (not approximations), so the incremental counts
// after any sequence of Apply/Revert calls equal a fresh full sweep under
// the resulting disabled set, in any order of operations — the property the
// differential fuzz tests assert. This is what turns the fast checker's
// per-link decision and the optimizer DFS's one-link-at-a-time probes into
// sub-millisecond updates.

// ResetIncremental (re)initializes the incremental state to the given
// disabled set (nil for all-active) with one full sweep. The set is copied;
// later mutations of the caller's set are not observed.
func (pc *PathCounter) ResetIncremental(disabled *LinkSet) {
	pc.incDisabled.CopyFrom(disabled)
	if len(pc.incDisabled.words)*64 < pc.t.NumLinks() {
		// Preserve capacity semantics when given a nil/smaller set.
		w := (pc.t.NumLinks() + 63) / 64
		for len(pc.incDisabled.words) < w {
			pc.incDisabled.words = append(pc.incDisabled.words, 0)
		}
	}
	t := pc.t
	top := Stage(t.Stages() - 1)
	for _, id := range pc.order {
		sw := t.Switch(id)
		if sw.Stage == top {
			pc.inc[id] = 1
			continue
		}
		var n int64
		for _, l := range sw.Uplinks {
			if pc.incDisabled.Has(l) {
				continue
			}
			n += pc.inc[t.Link(l).Upper]
		}
		pc.inc[id] = n
	}
}

// IncCounts returns the per-switch counts under the incremental disabled
// set, indexed by SwitchID. The slice is live: Apply/Revert mutate it in
// place. Callers must not modify it.
func (pc *PathCounter) IncCounts() []int64 { return pc.inc }

// IncDisabled returns the incremental engine's disabled set. The set is
// live and owned by the counter; callers must mutate it only through
// Apply/Revert/ResetIncremental.
func (pc *PathCounter) IncDisabled() *LinkSet { return &pc.incDisabled }

// ChangedToRs returns the ToRs whose counts were changed by the most recent
// Apply or Revert, in discovery order. The slice is scratch, invalidated by
// the next Apply/Revert.
func (pc *PathCounter) ChangedToRs() []SwitchID { return pc.changedToRs }

// Apply disables link l in the incremental state and propagates the exact
// count delta through l's downstream cone. It returns the ToRs whose counts
// changed (the same slice ChangedToRs reports). Applying an
// already-disabled link is a no-op returning nil.
//
//lint:hotpath the optimizer probes Apply/Revert per candidate link
func (pc *PathCounter) Apply(l LinkID) []SwitchID {
	if pc.incDisabled.Has(l) {
		return nil
	}
	pc.incDisabled.Add(l)
	lk := pc.t.Link(l)
	return pc.propagate(lk.Lower, -pc.inc[lk.Upper])
}

// Revert re-enables link l in the incremental state and propagates the
// exact count delta through l's downstream cone, returning the changed
// ToRs. Reverting an enabled link is a no-op returning nil. Apply followed
// by Revert restores counts bit-exactly, and Apply/Revert sequences compose
// in any order.
//
//lint:hotpath paired with Apply on every feasibility probe
func (pc *PathCounter) Revert(l LinkID) []SwitchID {
	if !pc.incDisabled.Has(l) {
		return nil
	}
	pc.incDisabled.Remove(l)
	lk := pc.t.Link(l)
	// l's upper endpoint is unaffected by l itself, so its current count is
	// exactly the number of paths the re-enabled link contributes to lower.
	return pc.propagate(lk.Lower, pc.inc[lk.Upper])
}

// propagate adds d0 to start's count and pushes the change down the
// downstream cone, stage by stage. All deltas in one propagation share
// d0's sign, so no cancellation can occur and every visited switch with a
// non-zero delta is genuinely changed.
func (pc *PathCounter) propagate(start SwitchID, d0 int64) []SwitchID {
	pc.changedToRs = pc.changedToRs[:0]
	if d0 == 0 {
		return pc.changedToRs
	}
	t := pc.t
	startStage := int(t.Switch(start).Stage)
	pc.dirtyEpoch++
	e := pc.dirtyEpoch
	if e == 0 { // wrapped: invalidate stale marks
		for i := range pc.dirty {
			pc.dirty[i] = 0
		}
		pc.dirtyEpoch = 1
		e = 1
	}
	pc.dirty[start] = e
	pc.delta[start] = d0
	//lint:allow hotalloc appends into per-stage scratch buffers that reach steady capacity after warmup
	pc.dirtyStage[startStage] = append(pc.dirtyStage[startStage][:0], start)
	for st := startStage; st >= 0; st-- {
		bucket := pc.dirtyStage[st]
		for _, u := range bucket {
			d := pc.delta[u]
			pc.delta[u] = 0
			if d == 0 {
				continue
			}
			pc.inc[u] += d
			if st == 0 {
				//lint:allow hotalloc append into reused changedToRs scratch, steady capacity after warmup
				pc.changedToRs = append(pc.changedToRs, u)
				continue
			}
			for _, dl := range t.Switch(u).Downlinks {
				if pc.incDisabled.Has(dl) {
					continue
				}
				v := t.Link(dl).Lower
				if pc.dirty[v] != e {
					pc.dirty[v] = e
					pc.delta[v] = 0
					//lint:allow hotalloc append into reused per-stage scratch, steady capacity after warmup
					pc.dirtyStage[st-1] = append(pc.dirtyStage[st-1], v)
				}
				pc.delta[v] += d
			}
		}
		pc.dirtyStage[st] = bucket[:0]
	}
	return pc.changedToRs
}
