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
//
// A decision that may not take the toggle runs the walk once as a Probe: the
// deltas stay in the walk's scratch instead of being added to the counts, and
// Commit adds them in O(changed switches) when the caller accepts. A rejected
// probe is simply dropped by the next operation.

// ResetIncremental (re)initializes the incremental state to the given
// disabled set (nil for all-active) with one full sweep. The set is copied;
// later mutations of the caller's set are not observed.
func (pc *PathCounter) ResetIncremental(disabled *LinkSet) {
	pc.drain(false)
	pc.incDisabled.CopyFrom(disabled)
	if len(pc.incDisabled.words)*64 < pc.t.NumLinks() {
		// Preserve capacity semantics when given a nil/smaller set.
		w := (pc.t.NumLinks() + 63) / 64
		for len(pc.incDisabled.words) < w {
			pc.incDisabled.words = append(pc.incDisabled.words, 0)
		}
	}
	pc.numIncDisabled = pc.incDisabled.Len()
	pc.t.sweep(pc.inc, pc.incDisabled.Has)
}

// IncCounts returns the per-switch counts under the incremental disabled
// set, indexed by SwitchID. It covers every ToR and every switch under the
// top stage, but not the top-stage switches numbered after all of those,
// whose count is always 1 (see PathCounter). The slice is live:
// Apply/Revert mutate it in place. Callers must not modify it.
func (pc *PathCounter) IncCounts() []int64 { return pc.inc }

// IncDisabled returns a read-only view of the incremental engine's disabled
// set; only Apply, Revert, Commit and ResetIncremental change it.
func (pc *PathCounter) IncDisabled() LinkSetView { return pc.incDisabled.View() }

// NumIncDisabled reports how many links the incremental disabled set holds,
// in O(1).
func (pc *PathCounter) NumIncDisabled() int { return pc.numIncDisabled }

// ChangedToRs returns the ToRs whose counts were changed by the most recent
// Apply, Revert or Commit — or would be changed by a pending Probe — in
// discovery order. The slice is scratch, invalidated by the next Apply,
// Revert or Probe.
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
	pc.numIncDisabled++
	lk := pc.t.Link(l)
	return pc.propagate(lk.Lower, -countAt(pc.inc, lk.Upper), true)
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
	pc.numIncDisabled--
	lk := pc.t.Link(l)
	// l's upper endpoint is unaffected by l itself, so its current count is
	// exactly the number of paths the re-enabled link contributes to lower.
	return pc.propagate(lk.Lower, countAt(pc.inc, lk.Upper), true)
}

// Probe runs Apply(l)'s walk without taking l down: it returns the ToRs whose
// counts Apply would change, and Probed reads each one's count as Apply
// would leave it, while the counts themselves and the disabled set stay as
// they are. Commit then takes l down at the cost of a write-back; any Apply,
// Revert, Probe or ResetIncremental drops the pending probe instead. Probing
// an already-disabled link leaves nothing pending and returns nil.
//
//lint:hotpath the fast checker's and the optimizer's per-candidate test
func (pc *PathCounter) Probe(l LinkID) []SwitchID {
	if pc.incDisabled.Has(l) {
		pc.drain(false)
		return nil
	}
	lk := pc.t.Link(l)
	changed := pc.propagate(lk.Lower, -countAt(pc.inc, lk.Upper), false)
	pc.probed = l
	return changed
}

// Probed returns switch s's count as the pending probe would leave it; with
// no probe pending it is IncCounts()[s]. s must be an id IncCounts covers.
func (pc *PathCounter) Probed(s SwitchID) int64 { return pc.inc[s] + pc.delta[s] }

// panicNoProbe is pre-converted at package scope, so that Commit's panic
// site performs no string-to-interface conversion on the hot path.
var panicNoProbe any = "topology: Commit without a pending Probe"

// Commit disables the link of the pending probe, adding the probe's deltas
// to the counts: the state, and the ToRs it returns, are exactly Apply's. It
// panics when no probe is pending.
//
//lint:hotpath commits the probe a fast-check or optimizer accept already ran
func (pc *PathCounter) Commit() []SwitchID {
	if pc.probed == NoLink {
		panic(panicNoProbe)
	}
	pc.incDisabled.Add(pc.probed)
	pc.numIncDisabled++
	pc.drain(true)
	return pc.changedToRs
}

// drain empties the stage buckets a probe left, adding each switch's delta to
// its count when commit is set, and zeroes the deltas: outside a pending
// probe every delta is zero, which is what lets Probed read any switch.
func (pc *PathCounter) drain(commit bool) {
	for st, bucket := range pc.buckets {
		for _, u := range bucket {
			if commit {
				pc.inc[u] += pc.delta[u]
			}
			pc.delta[u] = 0
		}
		pc.buckets[st] = bucket[:0]
	}
	pc.probed = NoLink
}

// propagate adds d0 to start's count and pushes the change down the
// downstream cone, stage by stage. All deltas in one propagation share
// d0's sign, so no cancellation can occur: a switch's delta is non-zero
// from its first visit on, and since every delta is zero outside a pending
// probe, a zero delta is the mark of a switch the walk has not reached yet.
// Without commit the counts are left alone and each visited switch keeps
// its delta in its stage bucket, as a pending probe for Commit or drain;
// either way a probe pending on entry is dropped first. The stage buckets
// are empty unless a probe is pending, so Apply and Revert pay nothing for
// that.
func (pc *PathCounter) propagate(start SwitchID, d0 int64, commit bool) []SwitchID {
	if pc.probed != NoLink {
		pc.drain(false)
	}
	pc.changedToRs = pc.changedToRs[:0]
	if d0 == 0 {
		return pc.changedToRs
	}
	t := pc.t
	startStage := int(t.Switch(start).Stage)
	pc.delta[start] = d0
	pc.buckets[startStage] = append(pc.buckets[startStage][:0], start)
	for st := startStage; st >= 0; st-- {
		bucket := pc.buckets[st]
		for _, u := range bucket {
			d := pc.delta[u]
			if commit {
				pc.inc[u] += d
				pc.delta[u] = 0
			}
			if st == 0 {
				pc.changedToRs = append(pc.changedToRs, u)
				continue
			}
			for _, dl := range t.Downlinks(u) {
				if pc.incDisabled.Has(dl) {
					continue
				}
				v := t.Link(dl).Lower
				if pc.delta[v] == 0 {
					pc.buckets[st-1] = append(pc.buckets[st-1], v)
				}
				pc.delta[v] += d
			}
		}
		if commit {
			pc.buckets[st] = bucket[:0]
		}
	}
	return pc.changedToRs
}
