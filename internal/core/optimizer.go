package core

import (
	"slices"

	"corropt/internal/topology"
)

// The optimizer's search limits. A segment of more than maxExactLinks
// links falls back to a greedy maximal solution (the mask is a uint64, so
// the cap can rise to 62). The exact search of one segment spends at most
// maxFeasibilityChecks probes; when they run out, the best subset found so
// far is used, maximal-feasible but possibly not optimal.
const (
	maxExactLinks        = 24
	maxFeasibilityChecks = 500000
)

// OptimizeStats describes one optimizer run.
type OptimizeStats struct {
	// Active is the number of enabled corrupting links considered.
	Active int
	// SafelyDisabled is how many were disabled unconditionally by
	// pruning.
	SafelyDisabled int
	// Segments is the number of independent contested groups.
	Segments int
	// LargestSegment is the size of the biggest contested group.
	LargestSegment int
	// FeasibilityChecks counts feasibility evaluations: incremental
	// probes.
	FeasibilityChecks int
	// GreedyFallbacks counts segments too large for exact search.
	GreedyFallbacks int
	// BudgetExhausted counts segments whose exact search ran out of its
	// feasibility-check budget.
	BudgetExhausted int
}

// Optimizer implements CorrOpt's second phase (§5.1): when links are
// re-enabled after repair, compute the optimal subset of the remaining
// active corrupting links to disable — the exact solution to the
// NP-complete problem of Theorem 5.1 — using topology pruning and topology
// segmentation to make practical instances fast. Every feasibility test
// inside a segment is one incremental probe walk on the path counter
// rather than a full topology sweep, so its cost scales with the candidate
// link's downstream cone; a reject costs that walk alone, an accept a
// write-back of what it found.
type Optimizer struct {
	net     *Network
	penalty PenaltyFunc
	// The search limits, set from their constants; in-package tests lower
	// them to reach the greedy fallback and budget exhaustion on small
	// fabrics.
	maxExact, budget int

	// Per-Run scratch, reused across invocations: an Optimizer lives for a
	// whole simulation or fleet shard and Run fires on every repair event,
	// so a steady-state Run allocates only the disabled list it returns and
	// no scratch escapes it. The first probe's buffers are inline; the rest
	// sits behind rc, allocated by the first Run that finds a violated ToR,
	// so the fleet's many shard optimizers that never find one carry a
	// single word for it.
	activeBuf   []topology.LinkID
	appliedBuf  []topology.LinkID
	violatedBuf []topology.SwitchID
	rc          *recheckScratch
}

// recheckScratch is the scratch of a Run that finds violated ToRs: pruning,
// segmentation and the exact search.
type recheckScratch struct {
	walker topology.UpstreamWalker
	// hit[j] reports whether active[j] is upstream of some violated ToR.
	// parent is a union-find forest over active indices, joining links
	// upstream of a common violated ToR; each root is its component's
	// smallest index. owner[i] is the first active index upstream of
	// violated[i], or -1.
	hit    []bool
	parent []int
	owner  []int
	// seg[j] is active[j]'s segment, or -1 once pruning disabled it; size
	// counts each segment's links, then its ToRs. The segments' links and
	// ToRs are windows of the flat links and tors buffers.
	seg   []int
	size  []int
	segs  []segment
	links []topology.LinkID
	tors  []topology.SwitchID

	solver   segSolver
	disabled []topology.LinkID
}

// NewOptimizer returns an Optimizer over net minimizing the given penalty.
func NewOptimizer(net *Network, penalty PenaltyFunc) *Optimizer {
	if penalty == nil {
		penalty = LinearPenalty
	}
	return &Optimizer{net: net, penalty: penalty,
		maxExact: maxExactLinks, budget: maxFeasibilityChecks}
}

// Run optimizes over all active corrupting links at or above threshold,
// disables the chosen subset on the network, and returns the disabled links
// along with run statistics.
func (o *Optimizer) Run(threshold float64) ([]topology.LinkID, OptimizeStats) {
	o.activeBuf = o.net.AppendActiveCorrupting(o.activeBuf[:0], threshold)
	return o.run(o.activeBuf)
}

// run is Run over the given active corrupting links, which it may disable
// but does not retain.
func (o *Optimizer) run(active []topology.LinkID) ([]topology.LinkID, OptimizeStats) {
	st := OptimizeStats{Active: len(active)}
	if len(active) == 0 {
		return nil, st
	}

	// What breaks if everything goes? One incremental probe per active
	// link, not a full sweep.
	violated, applied := o.net.violatedUnder(active, o.appliedBuf, o.violatedBuf)
	o.violatedBuf, o.appliedBuf = violated, applied
	if len(violated) == 0 {
		// Everything can go. Copy out of the scratch buffer: the returned
		// list outlives this Run.
		for _, l := range active {
			o.net.Disable(l)
		}
		st.SafelyDisabled = len(active)
		return append([]topology.LinkID(nil), active...), st
	}

	// Which active links can carry which endangered ToR's traffic? Pruning
	// disables the links that carry none, segmentation groups the rest by
	// the ToRs they share.
	if o.rc == nil {
		o.rc = &recheckScratch{}
	}
	rc := o.rc
	rc.reach(o.net.Topology(), active, violated)
	// Links upstream of no endangered ToR cannot violate anything: disable
	// immediately.
	disabled := rc.disabled[:0]
	for j, l := range active {
		if !rc.hit[j] {
			o.net.Disable(l)
			disabled = append(disabled, l)
		}
	}
	st.SafelyDisabled = len(disabled)
	for _, seg := range o.segments(active, violated, &st) {
		disabled = o.solveSegment(disabled, seg, &st)
	}
	rc.disabled = disabled
	if len(disabled) == 0 {
		return nil, st
	}
	return slices.Clone(disabled), st
}

// reach decides, for every (violated ToR, active link) pair, whether the
// link is upstream of the ToR — whether the ToR's climb reaches the link's
// lower endpoint (see topology.UpstreamWalker) — filling hit, parent and
// owner. One stage-bounded walk per violated ToR: no active link's lower
// endpoint sits above top, so no walk climbs past it.
func (rc *recheckScratch) reach(topo *topology.Topology, active []topology.LinkID, violated []topology.SwitchID) {
	top := topology.Stage(0)
	for _, l := range active {
		top = max(top, topo.Switch(topo.Link(l).Lower).Stage)
	}
	rc.hit = slices.Grow(rc.hit[:0], len(active))[:len(active)]
	clear(rc.hit)
	rc.parent = slices.Grow(rc.parent[:0], len(active))[:len(active)]
	for j := range rc.parent {
		rc.parent[j] = j
	}
	rc.owner = slices.Grow(rc.owner[:0], len(violated))[:len(violated)]
	for i, tor := range violated {
		rc.walker.FromToR(topo, tor, top)
		owner := -1
		for j, l := range active {
			if !rc.walker.Reaches(topo.Link(l).Lower) {
				continue
			}
			rc.hit[j] = true
			if owner < 0 {
				owner = j
			} else {
				rc.union(owner, j)
			}
		}
		rc.owner[i] = owner
	}
}

func (rc *recheckScratch) find(x int) int {
	for rc.parent[x] != x {
		rc.parent[x] = rc.parent[rc.parent[x]]
		x = rc.parent[x]
	}
	return x
}

// union joins a's and b's components under the smaller of their roots.
func (rc *recheckScratch) union(a, b int) {
	a, b = rc.find(a), rc.find(b)
	rc.parent[max(a, b)] = min(a, b)
}

// segment is one independent group of contested links and the endangered
// ToRs they can affect.
type segment struct {
	links []topology.LinkID
	tors  []topology.SwitchID
}

// segments groups the contested links — those upstream of some violated
// ToR — such that two links upstream
// of one violated ToR land in the same group; groups can then be optimized
// independently (§8's topology segmentation). rc.reach must have run over
// active and violated. Each segment's links and ToRs are ascending, and the
// segments are ordered by first link. The result aliases rc's buffers.
func (o *Optimizer) segments(active []topology.LinkID, violated []topology.SwitchID, st *OptimizeStats) []segment {
	rc := o.rc
	// Component roots are smallest indices, so walking active in order
	// meets each root before the rest of its component and numbers the
	// segments by first link.
	rc.seg = slices.Grow(rc.seg[:0], len(active))[:len(active)]
	size := rc.size[:0]
	for j := range active {
		switch {
		case !rc.hit[j]:
			rc.seg[j] = -1
			continue
		case rc.find(j) == j:
			rc.seg[j] = len(size)
		default:
			rc.seg[j] = rc.seg[rc.find(j)]
		}
		if rc.seg[j] == len(size) {
			size = append(size, 0)
		}
		size[rc.seg[j]]++
	}
	segs := slices.Grow(rc.segs[:0], len(size))[:len(size)]
	rc.links = slices.Grow(rc.links[:0], len(active))[:len(active)]
	n := 0
	for s, k := range size {
		segs[s].links = rc.links[n : n : n+k]
		n += k
		st.LargestSegment = max(st.LargestSegment, k)
	}
	for j, l := range active {
		if s := rc.seg[j]; s >= 0 {
			segs[s].links = append(segs[s].links, l)
		}
	}

	// A violated ToR belongs to the segment of the links upstream of it,
	// which is its owner's; walking violated in order keeps each segment's
	// ToRs ascending.
	clear(size)
	for _, j := range rc.owner {
		if j >= 0 {
			size[rc.seg[j]]++
		}
	}
	rc.tors = slices.Grow(rc.tors[:0], len(violated))[:len(violated)]
	n = 0
	for s, k := range size {
		segs[s].tors = rc.tors[n : n : n+k]
		n += k
	}
	for i, j := range rc.owner {
		if j >= 0 {
			s := rc.seg[j]
			segs[s].tors = append(segs[s].tors, violated[i])
		}
	}
	rc.size, rc.segs = size, segs
	st.Segments = len(segs)
	return segs
}

// solveSegment picks the subset of seg.links to disable that maximizes the
// disabled penalty while keeping seg.tors feasible, disables it on the
// network and appends it to disabled. It probes on the network's own path
// counter.
func (o *Optimizer) solveSegment(disabled []topology.LinkID, seg segment, st *OptimizeStats) []topology.LinkID {
	pc := o.net.pc
	// The incremental probes below only check ToRs whose counts change,
	// which is exact while the running state stays feasible for seg.tors.
	// If some segment ToR is infeasible before anything is disabled, every
	// candidate subset is infeasible too (disabling links never adds
	// paths), so the result is empty — same answer the full recount gives.
	if !o.net.meetsAll(seg.tors, pc.IncCounts(), pc.Total()) {
		return disabled
	}

	// Highest-penalty links first: better bounds, and the greedy fallback
	// then prefers the worst offenders.
	s := &o.rc.solver
	ranked := s.ranked[:0]
	for _, l := range seg.links {
		ranked = append(ranked, rankedLink{l, o.penalty(o.net.CorruptionRate(l))})
	}
	sortRanked(ranked)
	links, pen := s.links[:0], s.pen[:0]
	for _, r := range ranked {
		links = append(links, r.link)
		pen = append(pen, r.key)
	}
	s.links, s.pen, s.ranked = links, pen, ranked

	if len(links) > o.maxExact {
		st.GreedyFallbacks++
		return o.greedy(disabled, links, st)
	}

	*s = segSolver{
		net:    o.net,
		pc:     pc,
		links:  links,
		pen:    pen,
		ranked: ranked,
		suffix: slices.Grow(s.suffix[:0], len(links)+1)[:len(links)+1],
		budget: o.budget,
	}
	s.suffix[len(links)] = 0
	for i := len(links) - 1; i >= 0; i-- {
		s.suffix[i] = s.suffix[i+1] + s.pen[i]
	}
	s.dfs(0, 0, 0)
	st.FeasibilityChecks += s.checks
	if s.budget <= 0 {
		st.BudgetExhausted++
	}
	for i, l := range links {
		if s.bestMask&(1<<uint(i)) != 0 {
			o.net.Disable(l)
			disabled = append(disabled, l)
		}
	}
	return disabled
}

// greedy disables links one at a time, worst first, each only if every ToR
// whose path count it changes stays feasible, and appends them to disabled.
// The result is maximal but not necessarily optimal; it is the fallback for
// segments beyond exact reach. The caller guarantees the starting state is
// feasible for the segment's ToRs, which makes the changed-ToRs check exact.
func (o *Optimizer) greedy(disabled, links []topology.LinkID, st *OptimizeStats) []topology.LinkID {
	pc := o.net.pc
	for _, l := range links {
		st.FeasibilityChecks++
		if o.net.tors.ProbeMeets(pc.Probe(l), pc) {
			o.net.commitProbe(l)
			disabled = append(disabled, l)
		}
	}
	return disabled
}

// segSolver is the branch-and-bound exact search over one segment. Subsets
// are explored by including or excluding links in penalty order; the
// monotonicity of the capacity constraint (disabling more links never adds
// paths) makes infeasible-subset pruning sound.
//
// Feasibility is evaluated incrementally: trying a link is one probe walk,
// which a reject leaves at that and an accept commits; backing out of an
// accepted branch is one Revert. Only the ToRs whose counts change are
// checked (exact because the search only stands on feasible states).
type segSolver struct {
	net    *Network
	pc     *topology.PathCounter
	links  []topology.LinkID
	pen    []float64 // pen[i] is links[i]'s penalty
	suffix []float64
	ranked []rankedLink // scratch for sorting links by penalty
	budget int

	best     float64
	bestMask uint64

	checks int
}

// dfs explores subsets of links[i:] given the current mask (whose links are
// applied on pc). It restores pc's state before returning.
//
// The search needs no reject cache (§5.1: a superset of an infeasible set
// is infeasible), because it never tests a superset of a subset it
// rejected. A candidate mask|1<<i is tested only at node (i, mask), and
// include is tried before exclude. Suppose P∪{k} was rejected at node
// (k, P); a later candidate Q∪{j} containing it has j ≥ k. If j = k, then
// Q ⊋ P, and include-first order visits (k, Q) before (k, P). If j > k,
// node (j, Q) descends from (k, Q∩[0,k)), which took k: that is either the
// rejected branch itself, never entered, or a proper superset of P, whose
// whole subtree finished before (k, P). Each segment's search starts
// afresh, so no earlier rejection carries over.
func (s *segSolver) dfs(i int, mask uint64, got float64) {
	if got > s.best {
		s.best = got
		s.bestMask = mask
	}
	if i == len(s.links) || s.budget <= 0 {
		return
	}
	// Bound: even disabling every remaining link cannot beat the best.
	if got+s.suffix[i] <= s.best {
		return
	}
	// Branch 1: disable links[i]. feasible leaves the link committed on
	// success; revert after exploring the branch.
	if s.feasible(s.links[i]) {
		s.dfs(i+1, mask|1<<uint(i), got+s.pen[i])
		s.pc.Revert(s.links[i])
	}
	// Branch 2: keep links[i] active.
	s.dfs(i+1, mask, got)
}

// feasible tests whether the current subset plus link l keeps the segment's
// ToRs within their constraints. On success the probe is committed, so the
// link stays disabled on the counter; on failure the counter is left as it
// was.
func (s *segSolver) feasible(l topology.LinkID) bool {
	s.checks++
	s.budget--
	if !s.net.tors.ProbeMeets(s.pc.Probe(l), s.pc) {
		return false
	}
	s.pc.Commit()
	return true
}
