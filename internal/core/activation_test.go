package core

import (
	"math"
	"slices"
	"testing"

	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// referenceSweep is the baselines' activation sweep as it was before the
// re-check offered only the links that pass alone: every active corrupting
// link, worst first, is offered to c.
func referenceSweep(n *Network, c checker, threshold float64) []topology.LinkID {
	var order []rankedLink
	for _, l := range n.ActiveCorrupting(threshold) {
		order = append(order, rankedLink{l, n.CorruptionRate(l)})
	}
	sortRanked(order)
	var disabled []topology.LinkID
	for _, r := range order {
		if c.DisableIfSafe(r.link) {
			disabled = append(disabled, r.link)
		}
	}
	return disabled
}

// activationPolicy is one policy the activation differential runs: a
// baseline, or CorrOpt under one segment cap.
type activationPolicy struct {
	kind     PolicyKind
	maxExact int
}

func activationPolicies() []activationPolicy {
	ps := []activationPolicy{{kind: PolicySwitchLocal}, {kind: PolicyFastOnly}}
	for _, maxExact := range differentialConfigs {
		ps = append(ps, activationPolicy{kind: PolicyCorrOpt, maxExact: maxExact})
	}
	return ps
}

// engine returns p's engine over n at the given detection threshold.
func (p activationPolicy) engine(t *testing.T, n *Network, threshold float64) *Engine {
	e, err := NewPolicyEngine(n, p.kind, EngineConfig{DetectionThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	if e.opt != nil {
		e.opt.maxExact = p.maxExact
	}
	return e
}

// activationCoverage counts the re-checks a differential run reached, so a
// generator that stops reaching the interesting cases fails loudly.
type activationCoverage struct {
	rechecks, skippable, disabling, fromViolated int
	// shard counts activations held to an engine over the link's segment's
	// sub-topology.
	shard int
	// violatedNoneAlone counts re-checks from a violated ToR where no link
	// passes the policy's check alone.
	violatedNoneAlone int
	// settledSkip counts re-checks that skipped a settled segment holding
	// an active corrupting link; multiSegment those whose sweep or
	// optimizer ran over two or more unsettled segments where a link
	// passes alone.
	settledSkip, multiSegment int
}

func (c *activationCoverage) add(o activationCoverage) {
	c.rechecks += o.rechecks
	c.skippable += o.skippable
	c.disabling += o.disabling
	c.fromViolated += o.fromViolated
	c.shard += o.shard
	c.violatedNoneAlone += o.violatedNoneAlone
	c.settledSkip += o.settledSkip
	c.multiSegment += o.multiSegment
}

// unsettled reports, before e activates link l, which segments its
// re-check will probe: those whose generation moved since e last found them
// settled, l's own included when l is down (Enable moves it).
func unsettled(e *Engine, l topology.LinkID) []bool {
	n := e.Network()
	out := make([]bool, n.Topology().NumSegments())
	for s := range out {
		out[s] = e.settled == nil || e.settled.segs[s].settled != n.gen[s]+1
	}
	if n.Disabled(l) {
		out[n.Topology().LinkSegment(l)] = true
	}
	return out
}

// activationDifferential replays ops on two networks built from one seed.
// One side runs Engine.Activate; the other enables the link and runs the
// re-check as it was before the skip: the link-cone optimizer reference, or
// a sweep over every active corrupting link. Each op byte reports a rate,
// activates a link, re-enables one without a re-check (what RepairLoop does
// with a failed repair), raises or lowers a ToR's constraint, sets a link's
// rate without the check (RepairLoop's Cleared and release paths), or
// activates a link and holds what it did in the link's segment to a fresh
// engine over that segment's sub-topology loaded with the same state. The
// returned lists and the network states must agree after every op.
func activationDifferential(t *testing.T, seed uint64, p activationPolicy, ops []byte) activationCoverage {
	const threshold = 1e-7
	got := randomCorruptionScenario(t, seed, 6)
	want := randomCorruptionScenario(t, seed, 6)
	topo := got.Topology()
	if p.kind == PolicySwitchLocal {
		// Halve the constraint, or the switch-local rule keeps every one of
		// a switch's three uplinks and never disables anything.
		for _, tor := range topo.ToRs() {
			c := got.Constraint(tor) / 2
			_ = got.SetToRConstraint(tor, c)
			_ = want.SetToRConstraint(tor, c)
		}
	}
	ge := p.engine(t, got, threshold)
	we := p.engine(t, want, threshold)
	// The constraint the switch-local rule was built for, which a shard's
	// engine must be built under too.
	c0 := 0.0
	for _, tor := range topo.ToRs() {
		c0 = max(c0, got.Constraint(tor))
	}
	graphs := segmentGraphs(t, topo)
	reference := func() []topology.LinkID {
		if p.kind == PolicyCorrOpt {
			d, _, _ := referenceRun(want, LinearPenalty, p.maxExact, threshold)
			return d
		}
		return referenceSweep(want, we, threshold)
	}
	var cov activationCoverage
	rng := rngutil.New(seed).Split("activation")
	for i, b := range ops {
		l := topology.LinkID(int(b>>3) % topo.NumLinks())
		var shard *Engine // over sg, loaded before the activation
		sg := graphs[topo.LinkSegment(l)]
		switch b % 7 {
		case 0:
			rate := math.Pow(10, rng.Range(-8, -2))
			if gd, wd := ge.ReportCorruption(l, rate), we.ReportCorruption(l, rate); gd != wd {
				t.Fatalf("op %d: report of link %d: %+v, reference %+v", i, l, gd, wd)
			}
			sameOptimizerState(t, "report", got, want)
			continue
		case 2:
			got.Enable(l)
			want.Enable(l)
			sameOptimizerState(t, "re-enable", got, want)
			continue
		case 3:
			tor := topo.ToRs()[int(b>>3)%len(topo.ToRs())]
			c := got.Constraint(tor)
			c += rng.Range(0, 0.3) * (1 - c)
			if err := got.SetToRConstraint(tor, c); err != nil {
				t.Fatal(err)
			}
			_ = want.SetToRConstraint(tor, c)
			sameOptimizerState(t, "constraint", got, want)
			continue
		case 5:
			tor := topo.ToRs()[int(b>>3)%len(topo.ToRs())]
			c := got.Constraint(tor) * (1 - rng.Range(0, 0.3))
			if err := got.SetToRConstraint(tor, c); err != nil {
				t.Fatal(err)
			}
			_ = want.SetToRConstraint(tor, c)
			sameOptimizerState(t, "lowered constraint", got, want)
			continue
		case 6:
			rate := math.Pow(10, rng.Range(-8, -2))
			got.SetCorruption(l, rate)
			want.SetCorruption(l, rate)
			sameOptimizerState(t, "unchecked rate", got, want)
			continue
		case 4:
			n, err := NewNetwork(sg.Topo, c0)
			if err != nil {
				t.Fatal(err)
			}
			shard = p.engine(t, n, threshold)
			loadShard(t, got, sg, n)
			cov.shard++
		}
		cov.rechecks++
		violated := got.tors.NumViolated() > 0
		if violated {
			cov.fromViolated++
		}
		probed := unsettled(ge, l)
		gd := ge.Activate(l)
		want.Enable(l)
		if violated && !passesAlone(want, we, threshold) {
			cov.violatedNoneAlone++
		}
		skipped, passing := false, map[int]bool{}
		for _, m := range want.ActiveCorrupting(threshold) {
			s := topo.LinkSegment(m)
			if !probed[s] {
				skipped = true
			} else if we.CanDisable(m) {
				passing[s] = true
			}
		}
		if skipped {
			cov.settledSkip++
		}
		if len(passing) >= 2 {
			cov.multiSegment++
		}
		wd := reference()
		if !slices.Equal(gd, wd) {
			t.Fatalf("op %d: %v activation of link %d disabled %v, reference %v", i, p.kind, l, gd, wd)
		}
		if shard != nil {
			sd := toSource(sg, shard.Activate(toLocal(t, sg, l)))
			var inSeg []topology.LinkID
			for _, m := range gd {
				if topo.LinkSegment(m) == topo.LinkSegment(l) {
					inSeg = append(inSeg, m)
				}
			}
			if !slices.Equal(sd, inSeg) {
				t.Fatalf("op %d: %v activation of link %d disabled %v in its segment, the segment's own engine %v",
					i, p.kind, l, inSeg, sd)
			}
			for local, src := range sg.Links {
				if shard.Network().Disabled(topology.LinkID(local)) != got.Disabled(src) {
					t.Fatalf("op %d: link %d disabled %v, in the segment's own engine %v",
						i, src, got.Disabled(src), !got.Disabled(src))
				}
			}
		}
		switch {
		case len(gd) > 0:
			cov.disabling++
		case !violated:
			cov.skippable++
		}
		sameOptimizerState(t, "activation", got, want)
	}
	return cov
}

// passesAlone reports whether some active corrupting link of n passes e's
// check on its own.
func passesAlone(n *Network, e *Engine, threshold float64) bool {
	for _, l := range n.ActiveCorrupting(threshold) {
		if e.CanDisable(l) {
			return true
		}
	}
	return false
}

// TestActivationMatchesReference runs the activation differential on fixed
// seeds under every policy, and requires the runs to have reached re-checks
// from a feasible state that disable nothing (the skip), re-checks that
// disable links, re-checks from a violated ToR, re-checks from a violated
// ToR where no link passes alone (the skip from a violated state), re-checks
// that skipped a settled segment and re-checks that ran over two or more
// segments where a link passes; and activations held to a segment's own
// engine.
func TestActivationMatchesReference(t *testing.T) {
	for pi, p := range activationPolicies() {
		var total activationCoverage
		for seed := uint64(0); seed < 24; seed++ {
			ops := make([]byte, 48)
			rng := rngutil.New(seed).Split("ops")
			for i := range ops {
				ops[i] = byte(rng.Intn(256))
			}
			total.add(activationDifferential(t, seed, p, ops))
		}
		t.Logf("policy %d (%v): %+v", pi, p.kind, total)
		if total.skippable == 0 || total.disabling == 0 || total.fromViolated == 0 || total.violatedNoneAlone == 0 ||
			total.settledSkip == 0 || total.multiSegment == 0 || total.shard == 0 {
			t.Errorf("policy %d (%v): re-checks covered %+v", pi, p.kind, total)
		}
	}
}

// FuzzActivationDifferential fuzzes Engine.Activate against the re-check
// without the skip (see activationDifferential) under every policy.
func FuzzActivationDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{0, 9, 17, 2, 26, 33, 4, 41})
	f.Add(uint64(3), uint8(1), []byte{0x10, 0x22, 0x31, 0x07, 0x4a, 0x5c, 0x61, 0x89})
	f.Add(uint64(5), uint8(2), []byte{0xff, 0x10, 0x24, 0x4b, 0x64, 0x99, 0x0e, 0xa1})
	f.Fuzz(func(t *testing.T, seed uint64, policy uint8, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		ps := activationPolicies()
		activationDifferential(t, seed, ps[int(policy)%len(ps)], ops)
	})
}

// TestResetStateUnsettles: a replaced disabled set brings corrupting links
// back up without an Enable, so it moves every segment's generation, and
// the next re-check probes them again.
func TestResetStateUnsettles(t *testing.T) {
	e, hot := activationState(t, 6)
	net := e.Network()
	if got, _ := e.recheck(); got != nil {
		t.Fatalf("re-check of a blocked fabric disabled %v", got)
	}
	up := disabledUplink(t, net, hot[0])
	var keep []topology.LinkID
	net.DisabledLinks().Each(func(l topology.LinkID) {
		if l != up {
			keep = append(keep, l)
		}
	})
	net.resetState(keep)
	// hot[0] has all six uplinks up and corrupting again: one can go.
	if got, _ := e.recheck(); len(got) != 1 {
		t.Fatalf("re-check after a loaded state disabled %v, want one of ToR %d's uplinks", got, hot[0])
	}
}
