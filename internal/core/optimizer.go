package core

import (
	"cmp"
	"math/bits"
	"slices"

	"corropt/internal/topology"
)

// OptimizerConfig toggles the optimizer's acceleration techniques; all
// default to on. The ablation benches flip them individually. A limit that
// is zero or negative takes its default.
type OptimizerConfig struct {
	// DisablePruning turns off topology pruning (§5.1, Figure 11): the
	// step that disables unconditionally every corrupting link not
	// upstream of a capacity-endangered ToR.
	DisablePruning bool
	// DisableSegmentation turns off topology segmentation (§8, Figure
	// 20): solving independent groups of contested links separately.
	DisableSegmentation bool
	// DisableRejectCache turns off the reject cache: memoizing infeasible
	// link subsets so any superset is rejected without a path count.
	DisableRejectCache bool
	// MaxExactLinks caps the number of links in one segment solved by
	// exact search; larger segments fall back to a greedy maximal
	// solution. Default 24 (bitmask-bounded at 62).
	MaxExactLinks int
	// MaxFeasibilityChecks bounds the exact search's work per segment;
	// when exhausted, the best subset found so far is used. Default
	// 500000. The result is then maximal-feasible but possibly not
	// optimal; Stats.BudgetExhausted records the event.
	MaxFeasibilityChecks int
	// MaxRejectCacheEntries caps the per-segment reject cache; when full,
	// the least-general (largest) cached subset is evicted and
	// Stats.RejectCacheEvictions incremented. Default 4096.
	MaxRejectCacheEntries int
}

func (c *OptimizerConfig) fillDefaults() {
	if c.MaxExactLinks <= 0 {
		c.MaxExactLinks = 24
	}
	if c.MaxExactLinks > 62 {
		c.MaxExactLinks = 62
	}
	if c.MaxFeasibilityChecks <= 0 {
		c.MaxFeasibilityChecks = 500000
	}
	if c.MaxRejectCacheEntries <= 0 {
		c.MaxRejectCacheEntries = 4096
	}
}

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
	// Apply/check probes.
	FeasibilityChecks int
	// RejectCacheHits counts subsets rejected by the cache without a
	// feasibility probe.
	RejectCacheHits int
	// RejectCacheEvictions counts cache entries dropped (or refused
	// admission) because a segment's cache hit MaxRejectCacheEntries.
	RejectCacheEvictions int
	// GreedyFallbacks counts segments too large for exact search.
	GreedyFallbacks int
	// BudgetExhausted counts segments whose exact search ran out of its
	// feasibility-check budget.
	BudgetExhausted int
}

// Optimizer implements CorrOpt's second phase (§5.1): when links are
// re-enabled after repair, compute the optimal subset of the remaining
// active corrupting links to disable — the exact solution to the
// NP-complete problem of Theorem 5.1 — using topology pruning, topology
// segmentation, and a reject cache to make practical instances fast. Every
// feasibility probe inside a segment is an incremental Apply/Revert delta
// on a path counter rather than a full topology sweep, so the per-probe
// cost scales with the toggled link's downstream cone.
type Optimizer struct {
	net     *Network
	penalty PenaltyFunc
	cfg     OptimizerConfig

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
func NewOptimizer(net *Network, penalty PenaltyFunc, cfg OptimizerConfig) *Optimizer {
	cfg.fillDefaults()
	if penalty == nil {
		penalty = LinearPenalty
	}
	return &Optimizer{net: net, penalty: penalty, cfg: cfg}
}

// Run optimizes over all active corrupting links at or above threshold,
// disables the chosen subset on the network, and returns the disabled links
// along with run statistics.
func (o *Optimizer) Run(threshold float64) ([]topology.LinkID, OptimizeStats) {
	return o.RunScoped(threshold, nil, nil)
}

// RunScoped is Run restricted to one shard segment: only active corrupting
// links in scope are considered for disabling, and the initial feasibility
// probe scans only tors instead of every ToR, so a run costs O(segment)
// rather than O(topology).
//
// Exactness requires the segment boundary invariant from
// topology.Partition: scope must be cone-closed (every scoped link's
// downstream ToRs are all in tors) and every ToR outside tors must currently
// meet its constraint. Under those preconditions the result is identical to
// what Run would choose from the scoped links. A nil scope with nil tors is
// exactly Run.
func (o *Optimizer) RunScoped(threshold float64, scope *topology.LinkSet, tors []topology.SwitchID) ([]topology.LinkID, OptimizeStats) {
	var st OptimizeStats
	active := o.net.AppendActiveCorrupting(o.activeBuf[:0], threshold)
	if scope != nil {
		kept := active[:0]
		for _, l := range active {
			if scope.Has(l) {
				kept = append(kept, l)
			}
		}
		active = kept
	}
	o.activeBuf = active
	st.Active = len(active)
	if len(active) == 0 {
		return nil, st
	}

	// What breaks if everything goes? One incremental probe per active
	// link, not a full sweep.
	violated, applied := o.net.violatedUnder(tors, active, o.appliedBuf, o.violatedBuf)
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
	disabled := rc.disabled[:0]
	if !o.cfg.DisablePruning {
		// Links upstream of no endangered ToR cannot violate anything:
		// disable immediately.
		for j, l := range active {
			if !rc.hit[j] {
				o.net.Disable(l)
				disabled = append(disabled, l)
			}
		}
		st.SafelyDisabled = len(disabled)
	}
	for _, seg := range o.segments(active, violated, &st) {
		n := len(disabled)
		disabled = o.solveSegment(disabled, seg, &st)
		for _, l := range disabled[n:] {
			o.net.Disable(l)
		}
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
// ToR, or every active link without pruning — such that two links upstream
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
		case !rc.hit[j] && !o.cfg.DisablePruning:
			rc.seg[j] = -1
			continue
		case o.cfg.DisableSegmentation:
			rc.seg[j] = 0
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
// disabled penalty while keeping seg.tors feasible, and appends it to
// disabled. It probes on the network's own path counter and restores its
// state before returning.
func (o *Optimizer) solveSegment(disabled []topology.LinkID, seg segment, st *OptimizeStats) []topology.LinkID {
	pc := o.net.PathCounter()
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
	links := append(s.links[:0], seg.links...)
	slices.SortFunc(links, func(a, b topology.LinkID) int {
		pa, pb := o.penalty(o.net.CorruptionRate(a)), o.penalty(o.net.CorruptionRate(b))
		if pa != pb {
			return cmp.Compare(pb, pa)
		}
		return cmp.Compare(a, b)
	})
	s.links = links

	if len(links) > o.cfg.MaxExactLinks {
		st.GreedyFallbacks++
		return o.greedy(disabled, links, pc, st)
	}

	*s = segSolver{
		net:      o.net,
		pc:       pc,
		links:    links,
		pen:      slices.Grow(s.pen[:0], len(links))[:len(links)],
		suffix:   slices.Grow(s.suffix[:0], len(links)+1)[:len(links)+1],
		useCache: !o.cfg.DisableRejectCache,
		cache:    s.cache[:0],
		cacheCap: o.cfg.MaxRejectCacheEntries,
		budget:   o.cfg.MaxFeasibilityChecks,
	}
	for i, l := range links {
		s.pen[i] = o.penalty(o.net.CorruptionRate(l))
	}
	s.suffix[len(links)] = 0
	for i := len(links) - 1; i >= 0; i-- {
		s.suffix[i] = s.suffix[i+1] + s.pen[i]
	}
	s.dfs(0, 0, 0)
	st.FeasibilityChecks += s.checks
	st.RejectCacheHits += s.cacheHits
	st.RejectCacheEvictions += s.cacheEvictions
	if s.budget <= 0 {
		st.BudgetExhausted++
	}
	for i, l := range links {
		if s.bestMask&(1<<uint(i)) != 0 {
			disabled = append(disabled, l)
		}
	}
	return disabled
}

// greedy disables links one at a time, worst first, keeping each only if
// every ToR whose path count changes stays feasible, and appends the kept
// ones to disabled. The result is maximal but not necessarily optimal; it is
// the fallback for segments beyond exact reach. The caller guarantees the
// starting state is feasible for the segment's ToRs, which makes the
// changed-ToRs check exact. pc's state is restored before returning.
func (o *Optimizer) greedy(disabled, links []topology.LinkID, pc *topology.PathCounter, st *OptimizeStats) []topology.LinkID {
	counts, total := pc.IncCounts(), pc.Total()
	n := len(disabled)
	for _, l := range links {
		st.FeasibilityChecks++
		ok := true
		for _, tor := range pc.Apply(l) {
			if !o.net.meets(tor, counts, total) {
				ok = false
				break
			}
		}
		if ok {
			disabled = append(disabled, l)
		} else {
			pc.Revert(l)
		}
	}
	// Restore the counter to the network's state; Run applies the chosen
	// links through Network.Disable.
	for _, l := range disabled[n:] {
		pc.Revert(l)
	}
	return disabled
}

// segSolver is the branch-and-bound exact search over one segment. Subsets
// are explored by including or excluding links in penalty order; the
// monotonicity of the capacity constraint (disabling more links never adds
// paths) makes infeasible-subset pruning and the reject cache sound.
//
// Feasibility is evaluated incrementally: trying a link is one Apply delta,
// abandoning it one Revert, and only the ToRs whose counts changed are
// re-checked (exact because the search only stands on feasible states).
type segSolver struct {
	net    *Network
	pc     *topology.PathCounter
	links  []topology.LinkID
	pen    []float64
	suffix []float64

	useCache bool
	// cache holds infeasible subset masks ordered by ascending popcount,
	// so a membership scan can stop as soon as cached subsets are larger
	// than the candidate (a larger set cannot be a subset of a smaller
	// one).
	cache          []uint64
	cacheCap       int
	cacheEvictions int
	budget         int

	best     float64
	bestMask uint64

	checks    int
	cacheHits int
}

// dfs explores subsets of links[i:] given the current mask (whose links are
// applied on pc). It restores pc's state before returning.
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
	// Branch 1: disable links[i]. feasible leaves the link applied on
	// success; revert after exploring the branch.
	cand := mask | 1<<uint(i)
	if s.feasible(cand, s.links[i]) {
		s.dfs(i+1, cand, got+s.pen[i])
		s.pc.Revert(s.links[i])
	}
	// Branch 2: keep links[i] active.
	s.dfs(i+1, mask, got)
}

// feasible tests whether the current subset plus link l keeps the segment's
// ToRs within their constraints, consulting the reject cache first. On
// success the link remains applied on the counter; on failure the counter
// is restored.
func (s *segSolver) feasible(cand uint64, l topology.LinkID) bool {
	if s.useCache {
		candPop := bits.OnesCount64(cand)
		for _, m := range s.cache {
			if bits.OnesCount64(m) > candPop {
				break // sorted by popcount: no later entry can be a subset
			}
			if cand&m == m {
				s.cacheHits++
				return false
			}
		}
	}
	s.checks++
	s.budget--
	counts, total := s.pc.IncCounts(), s.pc.Total()
	ok := true
	for _, tor := range s.pc.Apply(l) {
		if !s.net.meets(tor, counts, total) {
			ok = false
			break
		}
	}
	if !ok {
		s.pc.Revert(l)
		if s.useCache {
			s.cacheInsert(cand)
		}
	}
	return ok
}

// cacheInsert records an infeasible subset, keeping the cache ordered by
// ascending popcount and bounded by cacheCap. At capacity the least-general
// entry (largest subset, pruning the fewest candidates) is sacrificed.
func (s *segSolver) cacheInsert(m uint64) {
	p := bits.OnesCount64(m)
	if len(s.cache) >= s.cacheCap {
		last := s.cache[len(s.cache)-1]
		if bits.OnesCount64(last) <= p {
			// New entry is no more general than the worst cached one:
			// refuse admission.
			s.cacheEvictions++
			return
		}
		s.cache = s.cache[:len(s.cache)-1]
		s.cacheEvictions++
	}
	// Binary search for the insertion point among ascending popcounts.
	lo, hi := 0, len(s.cache)
	for lo < hi {
		mid := (lo + hi) / 2
		if bits.OnesCount64(s.cache[mid]) <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.cache = append(s.cache, 0)
	copy(s.cache[lo+1:], s.cache[lo:])
	s.cache[lo] = m
}
