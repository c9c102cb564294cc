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
	// FeasibilityChecks counts feasibility evaluations (incremental
	// Apply/check probes; the legacy full path-count sweeps are gone from
	// this path).
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
	// whole simulation and Run fires on every repair event, so these
	// buffers amortize what used to be per-Run allocations. None of them
	// escape Run — the returned disabled list is always freshly allocated.
	activeBuf    []topology.LinkID
	appliedBuf   []topology.LinkID
	violatedBuf  []topology.SwitchID
	contestedBuf []topology.LinkID
	safeBuf      []topology.LinkID
	torUpBuf     []*topology.LinkSet
	upstreamBuf  *topology.LinkSet
	affectedBuf  [][]topology.SwitchID
	parentBuf    []int
	walker       topology.UpstreamWalker
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

	// Per-endangered-ToR upstream cones as bitsets: torUp[i] holds every
	// link that can carry violated[i]'s traffic. Their union drives the
	// pruning step, and the per-ToR sets drive segmentation (l affects
	// tor ⟺ l ∈ upstream(tor) ⟺ tor ∈ downstream(l)) without the
	// map-based downstream walks of the old implementation.
	topo := o.net.Topology()
	for len(o.torUpBuf) < len(violated) {
		o.torUpBuf = append(o.torUpBuf, &topology.LinkSet{})
	}
	torUp := o.torUpBuf[:len(violated)]
	if o.upstreamBuf == nil {
		o.upstreamBuf = &topology.LinkSet{}
	}
	upstream := o.upstreamBuf
	upstream.Reset(topo.NumLinks())
	for i, tor := range violated {
		torUp[i].Reset(topo.NumLinks())
		o.walker.FromToR(topo, tor, torUp[i])
		upstream.Union(torUp[i])
	}

	safe, contested := o.safeBuf[:0], o.contestedBuf[:0]
	if o.cfg.DisablePruning {
		contested = append(contested, active...)
	} else {
		for _, l := range active {
			if upstream.Has(l) {
				contested = append(contested, l)
			} else {
				safe = append(safe, l)
			}
		}
		// Links not upstream of any endangered ToR cannot violate
		// anything: disable immediately.
		for _, l := range safe {
			o.net.Disable(l)
		}
		st.SafelyDisabled = len(safe)
	}
	o.safeBuf, o.contestedBuf = safe, contested

	disabled := append([]topology.LinkID(nil), safe...)
	for _, seg := range o.segments(contested, violated, torUp, &st) {
		for _, l := range o.solveSegment(seg, &st) {
			o.net.Disable(l)
			disabled = append(disabled, l)
		}
	}
	return disabled, st
}

// segment is one independent group of contested links and the endangered
// ToRs they can affect.
type segment struct {
	links []topology.LinkID
	tors  []topology.SwitchID
}

// segments groups contested links such that two links sharing an endangered
// downstream ToR land in the same group; groups can then be optimized
// independently (§8's topology segmentation). torUp[i] must be the upstream
// link cone of violated[i].
func (o *Optimizer) segments(contested []topology.LinkID, violated []topology.SwitchID, torUp []*topology.LinkSet, st *OptimizeStats) []segment {
	if len(contested) == 0 {
		return nil
	}
	// affected and parent live in optimizer-owned scratch: segments runs
	// once per optimizer invocation, and only the per-group link/ToR
	// slices escape into the returned segments.
	affected := o.affectedBuf
	if cap(affected) < len(contested) {
		affected = make([][]topology.SwitchID, len(contested))
	} else {
		affected = affected[:len(contested)]
	}
	o.affectedBuf = affected
	for i, l := range contested {
		affected[i] = affected[i][:0]
		for j, tor := range violated {
			if torUp[j].Has(l) {
				affected[i] = append(affected[i], tor)
			}
		}
	}
	parent := o.parentBuf
	if cap(parent) < len(contested) {
		parent = make([]int, len(contested))
	} else {
		parent = parent[:len(contested)]
	}
	o.parentBuf = parent
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	if o.cfg.DisableSegmentation {
		for i := 1; i < len(contested); i++ {
			union(0, i)
		}
	} else {
		torOwner := make(map[topology.SwitchID]int)
		for i := range contested {
			for _, tor := range affected[i] {
				if prev, ok := torOwner[tor]; ok {
					union(prev, i)
				} else {
					torOwner[tor] = i
				}
			}
		}
	}

	groups := make(map[int]*segment)
	for i, l := range contested {
		root := find(i)
		g, ok := groups[root]
		if !ok {
			g = &segment{}
			groups[root] = g
		}
		g.links = append(g.links, l)
		g.tors = append(g.tors, affected[i]...)
	}
	out := make([]segment, 0, len(groups))
	for _, g := range groups {
		out = append(out, *g)
	}
	// Deterministic order for reproducibility (and to keep the map-order
	// collection above inside maprange's collect-then-sort idiom).
	slices.SortFunc(out, func(a, b segment) int { return cmp.Compare(a.links[0], b.links[0]) })
	for i := range out {
		out[i].tors = dedupToRs(out[i].tors)
		if len(out[i].links) > st.LargestSegment {
			st.LargestSegment = len(out[i].links)
		}
	}
	st.Segments = len(out)
	return out
}

func dedupToRs(tors []topology.SwitchID) []topology.SwitchID {
	slices.Sort(tors)
	out := tors[:0]
	for i, t := range tors {
		if i == 0 || t != tors[i-1] {
			out = append(out, t)
		}
	}
	return out
}

// solveSegment picks the subset of seg.links to disable that maximizes the
// disabled penalty while keeping seg.tors feasible. It probes on the
// network's own path counter and restores its state before returning.
func (o *Optimizer) solveSegment(seg segment, st *OptimizeStats) []topology.LinkID {
	pc := o.net.PathCounter()
	// The incremental probes below only check ToRs whose counts change,
	// which is exact while the running state stays feasible for seg.tors.
	// If some segment ToR is infeasible before anything is disabled, every
	// candidate subset is infeasible too (disabling links never adds
	// paths), so the result is empty — same answer the full recount gives.
	if !o.net.meetsAll(seg.tors, pc.IncCounts(), pc.Total()) {
		return nil
	}

	// Highest-penalty links first: better bounds, and the greedy fallback
	// then prefers the worst offenders.
	links := append([]topology.LinkID(nil), seg.links...)
	slices.SortFunc(links, func(a, b topology.LinkID) int {
		pa, pb := o.penalty(o.net.CorruptionRate(a)), o.penalty(o.net.CorruptionRate(b))
		if pa != pb {
			return cmp.Compare(pb, pa)
		}
		return cmp.Compare(a, b)
	})

	if len(links) > o.cfg.MaxExactLinks {
		st.GreedyFallbacks++
		return o.greedy(links, pc, st)
	}

	s := &segSolver{
		net:      o.net,
		pc:       pc,
		links:    links,
		pen:      make([]float64, len(links)),
		suffix:   make([]float64, len(links)+1),
		useCache: !o.cfg.DisableRejectCache,
		cacheCap: o.cfg.MaxRejectCacheEntries,
		budget:   o.cfg.MaxFeasibilityChecks,
	}
	for i, l := range links {
		s.pen[i] = o.penalty(o.net.CorruptionRate(l))
	}
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
	var chosen []topology.LinkID
	for i, l := range links {
		if s.bestMask&(1<<uint(i)) != 0 {
			chosen = append(chosen, l)
		}
	}
	return chosen
}

// greedy disables links one at a time, worst first, keeping each only if
// every ToR whose path count changes stays feasible. The result is maximal
// but not necessarily optimal; it is the fallback for segments beyond exact
// reach. The caller guarantees the starting state is feasible for the
// segment's ToRs, which makes the changed-ToRs check exact. pc's state is
// restored before returning.
func (o *Optimizer) greedy(links []topology.LinkID, pc *topology.PathCounter, st *OptimizeStats) []topology.LinkID {
	counts, total := pc.IncCounts(), pc.Total()
	var chosen []topology.LinkID
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
			chosen = append(chosen, l)
		} else {
			pc.Revert(l)
		}
	}
	// Restore the counter to the network's state; Run applies the chosen
	// links through Network.Disable.
	for _, l := range chosen {
		pc.Revert(l)
	}
	return chosen
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
