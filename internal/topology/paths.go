package topology

import "slices"

// This file implements the valley-free path counting at the heart of
// CorrOpt's fast checker (§5.1). A valley-free ToR→spine path goes strictly
// upward through the stages, so the number of paths from switch v at stage s
// is the sum over v's active uplinks (v,u) of the number of paths from u,
// with every spine switch contributing exactly one path. One bottom-up sweep
// computes the counts for all switches in O(|V| + |E|), which is what lets
// the paper's fast checker answer "can link l be disabled?" in 100–300 ms on
// a 35K-link data center.

// DisabledFunc reports whether a link is currently disabled (or being
// considered for disabling). A nil DisabledFunc means all links are active.
type DisabledFunc func(LinkID) bool

// PathCounter computes per-switch valley-free path counts toward the spine.
// It keeps reusable scratch buffers, so one PathCounter amortizes
// allocations across the many recounts a simulation performs. A PathCounter
// is not safe for concurrent use.
//
// Beyond the full O(|V|+|E|) sweep of Count — the reference every
// differential test compares against — Apply/Revert maintain counts
// incrementally under single-link toggles by propagating exact deltas
// through the link's downstream cone, and Probe/Commit split Apply into its
// walk and its write-back (see incremental.go); that is the
// engine production runs (the paper's §5.1 "check only the downstream of l"
// refinement taken to its conclusion).
//
// The two engines share the topology's skeleton — the evaluation order and
// the all-links-active totals Build computes once — but use disjoint result
// buffers, so interleaving Count and Apply/Revert is safe (though the slice
// Count returns is invalidated by the next Count). Count covers every
// switch; the incremental engine only the ids under the topology's below, as
// a top-stage switch has exactly one path and no walk ever reaches one.
type PathCounter struct {
	t      *Topology
	counts []int64 // per switch, Count's result (allocated on first Count)

	// Incremental state (incremental.go): exact counts under incDisabled,
	// maintained by Apply/Revert delta propagation; numIncDisabled counts
	// incDisabled's links, kept where its bits flip.
	inc            []int64
	incDisabled    LinkSet
	numIncDisabled int
	delta          []int64
	buckets        [][]SwitchID // per stage, the switches a walk reached
	changedToRs    []SwitchID
	// probed is the link of the pending Probe, NoLink when none is pending;
	// the probe's deltas sit in delta, its switches in buckets.
	probed LinkID
}

// NewPathCounter returns a PathCounter for t. The counter starts in
// incremental mode with an empty disabled set: Apply/Revert and IncCounts
// are usable immediately.
func NewPathCounter(t *Topology) *PathCounter {
	pc := &PathCounter{
		t:       t,
		inc:     slices.Clone(t.total[:t.below]),
		delta:   make([]int64, t.below),
		buckets: make([][]SwitchID, t.Stages()),
		probed:  NoLink,
	}
	pc.incDisabled.Reset(t.NumLinks())
	return pc
}

// Count fills the per-switch path counts considering disabled links and
// returns the slice, indexed by SwitchID. The returned slice is reused by
// subsequent calls; callers needing to keep it must copy.
func (pc *PathCounter) Count(disabled DisabledFunc) []int64 {
	if pc.counts == nil {
		pc.counts = make([]int64, pc.t.NumSwitches())
	}
	pc.t.sweep(pc.counts, disabled)
	return pc.counts
}

// sweep fills counts with the path count of every switch it covers,
// skipping the links disabled reports, in one pass over t.order: spines are
// seeded with one path each, and every other switch follows all switches
// one stage above it. counts covers every switch or, for the incremental
// engine, the ids under t.below; a spine past its end reads as 1.
func (t *Topology) sweep(counts []int64, disabled DisabledFunc) {
	top := Stage(t.stages - 1)
	for _, id := range t.order {
		if int(id) >= len(counts) {
			continue
		}
		if t.switches[id].Stage == top {
			counts[id] = 1
			continue
		}
		var n int64
		for _, l := range t.Uplinks(id) {
			if disabled != nil && disabled(l) {
				continue
			}
			n += countAt(counts, t.links[l].Upper)
		}
		counts[id] = n
	}
}

// countAt reads switch s's count from counts, 1 for a top-stage switch past
// its end: the incremental engine keeps no count for those (see PathCounter).
func countAt(counts []int64, s SwitchID) int64 {
	if int(s) < len(counts) {
		return counts[s]
	}
	return 1
}

// Total returns the per-switch path counts with every link active, which
// Build computed once and every counter over the topology shares. Callers
// must not mutate the result.
func (pc *PathCounter) Total() []int64 { return pc.t.total }

// ToRFractions returns, for every ToR, the fraction of its valley-free
// paths to the spine that survive the disabled links — the capacity metric
// CorrOpt's constraints are expressed in. ToRs with zero total paths (which
// Build rejects) would report fraction 0.
func (pc *PathCounter) ToRFractions(disabled DisabledFunc) map[SwitchID]float64 {
	total := pc.Total()
	counts := pc.Count(disabled)
	out := make(map[SwitchID]float64, len(pc.t.ToRs()))
	for _, tor := range pc.t.ToRs() {
		if total[tor] == 0 {
			out[tor] = 0
			continue
		}
		out[tor] = float64(counts[tor]) / float64(total[tor])
	}
	return out
}

// WorstToRFraction returns the minimum per-ToR available-path fraction under
// the disabled set, the quantity Figures 15 and 16 plot.
func (pc *PathCounter) WorstToRFraction(disabled DisabledFunc) float64 {
	total := pc.Total()
	counts := pc.Count(disabled)
	worst := 1.0
	for _, tor := range pc.t.ToRs() {
		var f float64
		if total[tor] > 0 {
			f = float64(counts[tor]) / float64(total[tor])
		}
		if f < worst {
			worst = f
		}
	}
	return worst
}

// MeanToRFraction returns the average per-ToR available-path fraction, used
// by §7.3's capacity-cost measurement.
func (pc *PathCounter) MeanToRFraction(disabled DisabledFunc) float64 {
	total := pc.Total()
	counts := pc.Count(disabled)
	if len(pc.t.ToRs()) == 0 {
		return 0
	}
	sum := 0.0
	for _, tor := range pc.t.ToRs() {
		if total[tor] > 0 {
			sum += float64(counts[tor]) / float64(total[tor])
		}
	}
	return sum / float64(len(pc.t.ToRs()))
}
