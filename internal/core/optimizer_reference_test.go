package core

// The optimizer's pruning and segmentation decide "is link l upstream of
// endangered ToR t?" by a stage-bounded switch-reach test. These tests hold
// it to the link-cone formulation: one upstream link bitset per endangered
// ToR, their union for pruning, and map-based grouping for segmentation.
// Each segment is solved by referenceSearch, a plain include-first search
// kept apart from segSolver, which also checks that the search never tests
// a superset of a subset it rejected — the reason segSolver keeps no reject
// cache.

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// referenceCone adds to set every link on some valley-free path from tor to
// the spine.
func referenceCone(topo *topology.Topology, tor topology.SwitchID, set *topology.LinkSet) {
	seen := make([]bool, topo.NumSwitches())
	stack := []topology.SwitchID{tor}
	seen[tor] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ul := range topo.Uplinks(cur) {
			set.Add(ul)
			if nxt := topo.Link(ul).Upper; !seen[nxt] {
				seen[nxt] = true
				stack = append(stack, nxt)
			}
		}
	}
}

// referenceRun is Optimizer.Run over per-ToR upstream link cones, with
// segments of more than maxExact links solved greedily. supersets counts
// the exact searches' candidates that contained a subset the same search
// had rejected; the optimizer is correct without a reject cache only while
// it stays 0.
func referenceRun(net *Network, penalty PenaltyFunc, maxExact int, threshold float64) (disabled []topology.LinkID, st OptimizeStats, supersets int) {
	active := net.ActiveCorrupting(threshold)
	st.Active = len(active)
	if len(active) == 0 {
		return nil, st, 0
	}
	violated, _ := net.violatedUnder(active, nil, nil)
	if len(violated) == 0 {
		for _, l := range active {
			net.Disable(l)
		}
		st.SafelyDisabled = len(active)
		return slices.Clone(active), st, 0
	}

	topo := net.Topology()
	torUp := make([]*topology.LinkSet, len(violated))
	upstream := topology.NewLinkSet(topo.NumLinks())
	for i, tor := range violated {
		torUp[i] = topology.NewLinkSet(topo.NumLinks())
		referenceCone(topo, tor, torUp[i])
		upstream.Union(torUp[i])
	}
	var safe, contested []topology.LinkID
	for _, l := range active {
		if upstream.Has(l) {
			contested = append(contested, l)
		} else {
			safe = append(safe, l)
		}
	}
	for _, l := range safe {
		net.Disable(l)
	}
	st.SafelyDisabled = len(safe)
	disabled = slices.Clone(safe)
	for _, seg := range referenceSegments(contested, violated, torUp, &st) {
		chosen, n := referenceSolveSegment(net, penalty, maxExact, seg, &st)
		for _, l := range chosen {
			net.Disable(l)
			disabled = append(disabled, l)
		}
		supersets += n
	}
	return disabled, st, supersets
}

func referenceSegments(contested []topology.LinkID, violated []topology.SwitchID, torUp []*topology.LinkSet, st *OptimizeStats) []segment {
	if len(contested) == 0 {
		return nil
	}
	affected := make([][]topology.SwitchID, len(contested))
	for i, l := range contested {
		for j, tor := range violated {
			if torUp[j].Has(l) {
				affected[i] = append(affected[i], tor)
			}
		}
	}
	parent := make([]int, len(contested))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
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
	groups := make(map[int]*segment)
	var roots []int
	for i, l := range contested {
		root := find(i)
		g, ok := groups[root]
		if !ok {
			g = &segment{}
			groups[root] = g
			roots = append(roots, root)
		}
		g.links = append(g.links, l)
		g.tors = append(g.tors, affected[i]...)
	}
	out := make([]segment, 0, len(roots))
	for _, r := range roots {
		out = append(out, *groups[r])
	}
	slices.SortFunc(out, func(a, b segment) int { return cmp.Compare(a.links[0], b.links[0]) })
	for i := range out {
		slices.Sort(out[i].tors)
		out[i].tors = slices.Compact(out[i].tors)
		st.LargestSegment = max(st.LargestSegment, len(out[i].links))
	}
	st.Segments = len(out)
	return out
}

// referenceSolveSegment picks seg's links to disable without changing the
// network, returning them with the exact search's superset count.
func referenceSolveSegment(net *Network, penalty PenaltyFunc, maxExact int, seg segment, st *OptimizeStats) ([]topology.LinkID, int) {
	pc := net.pc
	if !net.meetsAll(seg.tors, pc.IncCounts(), pc.Total()) {
		return nil, 0
	}
	links := slices.Clone(seg.links)
	slices.SortFunc(links, func(a, b topology.LinkID) int {
		pa, pb := penalty(net.CorruptionRate(a)), penalty(net.CorruptionRate(b))
		if pa != pb {
			return cmp.Compare(pb, pa)
		}
		return cmp.Compare(a, b)
	})
	var chosen []topology.LinkID
	if len(links) > maxExact {
		st.GreedyFallbacks++
		counts, total := pc.IncCounts(), pc.Total()
		for _, l := range links {
			st.FeasibilityChecks++
			if net.meetsAll(pc.Apply(l), counts, total) {
				chosen = append(chosen, l)
			} else {
				pc.Revert(l)
			}
		}
		for _, l := range chosen {
			pc.Revert(l)
		}
		return chosen, 0
	}
	s := &referenceSearch{
		net:    net,
		links:  links,
		tors:   seg.tors,
		pen:    make([]float64, len(links)),
		suffix: make([]float64, len(links)+1),
		budget: maxFeasibilityChecks,
	}
	for i, l := range links {
		s.pen[i] = penalty(net.CorruptionRate(l))
	}
	for i := len(links) - 1; i >= 0; i-- {
		s.suffix[i] = s.suffix[i+1] + s.pen[i]
	}
	s.search(0, 0, 0)
	st.FeasibilityChecks += s.checks
	if s.budget <= 0 {
		st.BudgetExhausted++
	}
	for i, l := range links {
		if s.bestMask&(1<<uint(i)) != 0 {
			chosen = append(chosen, l)
		}
	}
	return chosen, s.supersets
}

// referenceSearch is the exact branch-and-bound search over one segment's
// links, sorted worst first: the same include-first order, bound and
// budget as segSolver, so it makes the same probes, but each candidate is
// tested by applying it and checking every segment ToR. It records each
// rejected subset and counts the later candidates that contain one.
type referenceSearch struct {
	net         *Network
	links       []topology.LinkID
	tors        []topology.SwitchID
	pen, suffix []float64
	budget      int
	checks      int

	best     float64
	bestMask uint64

	rejected  []uint64
	supersets int
}

func (s *referenceSearch) search(i int, mask uint64, got float64) {
	if got > s.best {
		s.best, s.bestMask = got, mask
	}
	if i == len(s.links) || s.budget <= 0 || got+s.suffix[i] <= s.best {
		return
	}
	if cand := mask | 1<<uint(i); s.test(cand, s.links[i]) {
		s.search(i+1, cand, got+s.pen[i])
		s.net.pc.Revert(s.links[i])
	}
	s.search(i+1, mask, got)
}

// test reports whether disabling l on top of the applied links keeps every
// segment ToR within its constraint, leaving l applied if so.
func (s *referenceSearch) test(cand uint64, l topology.LinkID) bool {
	for _, r := range s.rejected {
		if cand&r == r {
			s.supersets++
			break
		}
	}
	s.checks++
	s.budget--
	pc := s.net.pc
	pc.Apply(l)
	if s.net.meetsAll(s.tors, pc.IncCounts(), pc.Total()) {
		return true
	}
	pc.Revert(l)
	s.rejected = append(s.rejected, cand)
	return false
}

// differentialConfigs are the segment caps the differential covers: the
// optimizer's own, and one low enough to force the greedy fallback.
var differentialConfigs = []int{maxExactLinks, 3}

// stateOp is one change to a network's state, applied identically to the
// network under test and the reference's.
type stateOp struct {
	kind int // 0 set corruption, 1 force disable, 2 enable, 3 set ToR constraint
	link topology.LinkID
	tor  topology.SwitchID
	v    float64
}

func (op stateOp) apply(tb testing.TB, n *Network) {
	switch op.kind {
	case 0:
		n.SetCorruption(op.link, op.v)
	case 1:
		n.Disable(op.link)
	case 2:
		n.Enable(op.link)
	case 3:
		if err := n.SetToRConstraint(op.tor, op.v); err != nil {
			tb.Fatal(err)
		}
	}
}

// drawOps draws one batch of state changes over topo's links, concentrated on a few hot switches so that a run finds
// contested links: most uplinks of a hot switch start corrupting, and some
// are forced down unchecked or re-enabled. Now and then a ToR below a hot
// switch has its constraint raised. Forced disables and raised constraints
// leave ToRs violated before the run. Only links whose lower endpoint sits at
// or below stage maxStage corrupt, so the optimizer's stage bound is at most
// maxStage.
func drawOps(rng *rngutil.Source, topo *topology.Topology, maxStage topology.Stage) []stateOp {
	var ops []stateOp
	for hot := 1 + rng.Intn(4); hot > 0; hot-- {
		sw := topo.Link(topology.LinkID(rng.Intn(topo.NumLinks()))).Lower
		for topo.Switch(sw).Stage > maxStage {
			sw = topo.Link(topo.Downlinks(sw)[0]).Lower
		}
		for _, ul := range topo.Uplinks(sw) {
			switch {
			case rng.Bool(0.6):
				ops = append(ops, stateOp{kind: 0, link: ul, v: math.Pow(10, rng.Range(-6, -2))})
			case rng.Bool(0.3):
				ops = append(ops, stateOp{kind: 1, link: ul})
			case rng.Bool(0.3):
				ops = append(ops, stateOp{kind: 2, link: ul})
			case rng.Bool(0.2):
				ops = append(ops, stateOp{kind: 0, link: ul}) // repaired
			}
		}
		if rng.Bool(0.3) {
			for topo.Switch(sw).Stage > 0 {
				sw = topo.Link(topo.Downlinks(sw)[0]).Lower
			}
			ops = append(ops, stateOp{kind: 3, tor: sw, v: rng.Range(0.5, 1)})
		}
	}
	return ops
}

// sameOptimizerState fails unless the two networks agree on the disabled
// set, the incremental path counts and the violated ToRs.
func sameOptimizerState(tb testing.TB, what string, got, want *Network) {
	tb.Helper()
	topo := got.Topology()
	for l := range topo.NumLinks() {
		if got.Disabled(topology.LinkID(l)) != want.Disabled(topology.LinkID(l)) {
			tb.Fatalf("%s: link %d disabled %v, reference %v", what, l, got.Disabled(topology.LinkID(l)), want.Disabled(topology.LinkID(l)))
		}
	}
	if !slices.Equal(got.pc.IncCounts(), want.pc.IncCounts()) {
		tb.Fatalf("%s: path counts differ from the reference's", what)
	}
	if got.NumDisabled() != want.NumDisabled() || !slices.Equal(got.ViolatedToRs(nil), want.ViolatedToRs(nil)) {
		tb.Fatalf("%s: %d disabled, violated %v; reference %d, %v",
			what, got.NumDisabled(), got.ViolatedToRs(nil), want.NumDisabled(), want.ViolatedToRs(nil))
	}
}

// differentialFabric is one topology the differential runs on.
type differentialFabric struct {
	name string
	topo *topology.Topology
	c    float64
}

func differentialFabrics(t *testing.T) []differentialFabric {
	t.Helper()
	medium := mediumNetwork(t).Topology()
	fat, err := topology.NewFatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	// Stages 0–4: the stage bound ranges over 0–3.
	tiers, err := topology.NewMultiTier([]int{16, 8, 8, 8, 4}, []int{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// The sub-topology of two pods: a fleet shard's shape, with more than
	// one segment.
	clos := shardTestTopo(t)
	sgs, err := clos.SegmentGraphs([][]topology.Segment{clos.Partition()[1:3]})
	if err != nil {
		t.Fatal(err)
	}
	sg := sgs[0]
	if n := sg.Topo.NumSegments(); n != 2 {
		t.Fatalf("shard has %d segments, want 2", n)
	}
	return []differentialFabric{
		{"medium-clos", medium, 0.75},
		{"fattree-8", fat, 0.5},
		{"multitier-5", tiers, 0.5},
		{"shard", sg.Topo, 0.5},
	}
}

// TestRunMatchesConeReference runs random re-check sequences — each
// optimizer reused across runs, as an Engine reuses it across activations —
// on four fabrics under both segment caps, and requires the disabled list
// (order included), every OptimizeStats field and the resulting network
// state to equal the link-cone reference's, and the reference's search to
// test no superset of a subset it rejected.
func TestRunMatchesConeReference(t *testing.T) {
	const threshold = DefaultDetectionThreshold
	for _, fab := range differentialFabrics(t) {
		// What the states covered, so a generator that stops reaching the
		// interesting cases fails here rather than passing vacuously.
		var preViolated, multiSegment, searched, tops int
		var topSeen [8]bool
		for ci, maxExact := range differentialConfigs {
			for seed := uint64(0); seed < 6; seed++ {
				rng := rngutil.New(seed).Split(fab.name)
				got, err := NewNetwork(fab.topo, fab.c)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := NewNetwork(fab.topo, fab.c)
				opt := NewOptimizer(got, LinearPenalty)
				opt.maxExact = maxExact
				maxStage := topology.Stage(int(seed) % (fab.topo.Stages() - 1))
				for step := 0; step < 8; step++ {
					for _, op := range drawOps(rng, fab.topo, maxStage) {
						op.apply(t, got)
						op.apply(t, want)
					}
					if got.tors.NumViolated() > 0 {
						preViolated++
					}
					top := topology.Stage(-1)
					for _, l := range got.ActiveCorrupting(threshold) {
						top = max(top, fab.topo.Switch(fab.topo.Link(l).Lower).Stage)
					}
					if top >= 0 && !topSeen[top] {
						topSeen[top] = true
						tops++
					}

					gd, gst := opt.Run(threshold)
					wd, wst, supersets := referenceRun(want, LinearPenalty, maxExact, threshold)
					if !slices.Equal(gd, wd) || gst != wst {
						t.Fatalf("%s config %d seed %d step %d: disabled %v (%+v), reference %v (%+v)",
							fab.name, ci, seed, step, gd, gst, wd, wst)
					}
					if supersets != 0 {
						t.Fatalf("%s config %d seed %d step %d: the search tested %d supersets of rejected subsets",
							fab.name, ci, seed, step, supersets)
					}
					sameOptimizerState(t, fab.name, got, want)
					if gst.Segments > 1 {
						multiSegment++
					}
					if gst.FeasibilityChecks > 0 {
						searched++
					}
				}
			}
		}
		t.Logf("%s: %d runs from violated ToRs, %d multi-segment runs, %d searching runs, %d stage bounds",
			fab.name, preViolated, multiSegment, searched, tops)
		if preViolated == 0 || multiSegment == 0 || searched == 0 || tops != fab.topo.Stages()-1 {
			t.Errorf("%s: states covered %d runs from violated ToRs, %d multi-segment runs, %d searching runs, %d of %d stage bounds",
				fab.name, preViolated, multiSegment, searched, tops, fab.topo.Stages()-1)
		}
	}
}

// FuzzOptimizerDifferential fuzzes Run against the link-cone reference
// over random operation sequences on a small two-pod Clos, or, for an odd
// seed, on a fleet shard of it: its first pod's sub-topology, loaded with
// the pod's state. Each op byte sets a corruption rate, forces a link down,
// enables one, raises a ToR constraint or runs both optimizers, which must
// then agree exactly, with no superset of a rejected subset tested.
func FuzzOptimizerDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{0, 5, 10, 4, 15, 9, 20, 14})
	f.Add(uint64(7), uint8(5), []byte{0xff, 0x10, 0x24, 0x4b, 0x64, 0x99})
	f.Fuzz(func(t *testing.T, seed uint64, cfgIndex uint8, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		maxExact := differentialConfigs[int(cfgIndex)%len(differentialConfigs)]
		got := randomCorruptionScenario(t, seed, 6)
		want := randomCorruptionScenario(t, seed, 6)
		if seed%2 == 1 {
			sg := segmentGraphs(t, got.Topology())[0]
			whole := got
			got, _ = NewNetwork(sg.Topo, 0.5)
			want, _ = NewNetwork(sg.Topo, 0.5)
			loadShard(t, whole, sg, got)
			loadShard(t, whole, sg, want)
		}
		topo := got.Topology()
		opt := NewOptimizer(got, LinearPenalty)
		opt.maxExact = maxExact
		rng := rngutil.New(seed).Split("ops")
		for _, b := range ops {
			l := topology.LinkID(int(b>>3) % topo.NumLinks())
			op := stateOp{kind: int(b % 5), link: l}
			switch op.kind {
			case 0:
				op.v = math.Pow(10, rng.Range(-7, -2))
			case 3:
				op.tor = topo.ToRs()[int(b>>3)%len(topo.ToRs())]
				op.v = rng.Range(0.3, 1)
			case 4:
				gd, gst := opt.Run(1e-7)
				wd, wst, supersets := referenceRun(want, LinearPenalty, maxExact, 1e-7)
				if !slices.Equal(gd, wd) || gst != wst {
					t.Fatalf("disabled %v (%+v), reference %v (%+v)", gd, gst, wd, wst)
				}
				if supersets != 0 {
					t.Fatalf("the search tested %d supersets of rejected subsets", supersets)
				}
				sameOptimizerState(t, "fuzz", got, want)
				continue
			}
			op.apply(t, got)
			op.apply(t, want)
		}
	})
}
