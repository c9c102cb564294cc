package topology

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
// through the link's downstream cone (see incremental.go); that is the
// engine production runs (the paper's §5.1 "check only the downstream of l"
// refinement taken to its conclusion).
//
// The two engines share the topology's stage structure but use disjoint
// result buffers, so interleaving Count and Apply/Revert is safe (though the
// slice Count returns is invalidated by the next Count).
type PathCounter struct {
	t      *Topology
	counts []int64 // per switch, paths to spine (full-sweep scratch)
	order  []SwitchID
	total  []int64 // per switch, paths with all links active (lazily built)

	// Incremental state (incremental.go): exact counts under incDisabled,
	// maintained by Apply/Revert delta propagation.
	inc         []int64
	incDisabled LinkSet
	delta       []int64
	dirty       []uint32
	dirtyEpoch  uint32
	dirtyStage  [][]SwitchID
	changedToRs []SwitchID
}

// NewPathCounter returns a PathCounter for t. The counter starts in
// incremental mode with an empty disabled set: Apply/Revert and IncCounts
// are usable immediately.
func NewPathCounter(t *Topology) *PathCounter {
	n := t.NumSwitches()
	pc := &PathCounter{
		t:          t,
		counts:     make([]int64, n),
		inc:        make([]int64, n),
		delta:      make([]int64, n),
		dirty:      make([]uint32, n),
		dirtyStage: make([][]SwitchID, t.Stages()),
	}
	pc.incDisabled.Reset(t.NumLinks())
	// Evaluation order: stages top-down, so every switch is processed after
	// all switches one stage above it. Spines are seeded with one path each.
	byStage := make([][]SwitchID, t.Stages())
	t.Switches(func(s *Switch) {
		byStage[s.Stage] = append(byStage[s.Stage], s.ID)
	})
	for st := t.Stages() - 1; st >= 0; st-- {
		pc.order = append(pc.order, byStage[st]...)
	}
	// Compute the all-links-active totals eagerly: Count reuses the counts
	// slice, so a lazy Total() computed after a Count() call would alias
	// the caller's live result.
	pc.total = append([]int64(nil), pc.Count(nil)...)
	copy(pc.inc, pc.total)
	return pc
}

// Count fills the per-switch path counts considering disabled links and
// returns the slice, indexed by SwitchID. The returned slice is reused by
// subsequent calls; callers needing to keep it must copy.
func (pc *PathCounter) Count(disabled DisabledFunc) []int64 {
	t := pc.t
	top := Stage(t.Stages() - 1)
	for _, id := range pc.order {
		sw := t.Switch(id)
		if sw.Stage == top {
			pc.counts[id] = 1
			continue
		}
		var n int64
		for _, l := range sw.Uplinks {
			if disabled != nil && disabled(l) {
				continue
			}
			n += pc.counts[t.Link(l).Upper]
		}
		pc.counts[id] = n
	}
	return pc.counts
}

// Total returns the per-switch path counts with every link active,
// computed once at construction. Callers must not mutate the result.
func (pc *PathCounter) Total() []int64 { return pc.total }

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
