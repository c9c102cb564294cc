package core

import (
	"slices"
	"testing"

	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// violatedUnderScan is the reference for Network.violatedUnder: a full path
// recount under disabled ∪ extra on a counter of its own, then meets over
// every ToR.
func violatedUnderScan(n *Network, ref *topology.PathCounter, extra []topology.LinkID) []topology.SwitchID {
	also := topology.NewLinkSet(n.topo.NumLinks())
	for _, l := range extra {
		also.Add(l)
	}
	counts := ref.Count(func(l topology.LinkID) bool { return n.Disabled(l) || also.Has(l) })
	var out []topology.SwitchID
	for _, tor := range n.topo.ToRs() {
		if !n.tors.Meets(tor, counts, ref.Total()) {
			out = append(out, tor)
		}
	}
	return out
}

// metStatus lists whether each ToR meets its constraint, in topology order.
func metStatus(n *Network) []bool {
	var out []bool
	for _, tor := range n.topo.ToRs() {
		out = append(out, n.ToRMeets(tor))
	}
	return out
}

// TestViolatedUnderMatchesFullScan holds the optimizer's first probe — which
// tests only the ToRs its own Apply calls changed while every ToR meets, and
// scans otherwise — to the full-scan reference on random states of the medium
// Clos and of a two-segment shard of it: all-feasible states, states already
// violated by unchecked disables of breakout siblings (sim's RepairCollateral)
// or by a constraint raised above a ToR's current fraction, extra lists
// drawn from the whole topology and from one segment (an activation's
// re-check hands the optimizer the passing segments' links), and extra
// lists that carry already-disabled and duplicate links. The probe must leave the path counter
// and the constraint status exactly as it found them.
func TestViolatedUnderMatchesFullScan(t *testing.T) {
	medium := mediumNetwork(t).Topology()
	shards, err := medium.SegmentGraphs([][]topology.Segment{medium.Partition()[:2]})
	if err != nil {
		t.Fatal(err)
	}
	shard := shards[0]
	for _, topo := range []*topology.Topology{medium, shard.Topo} {
		segs := topo.Partition()
		if len(segs) < 2 {
			t.Fatalf("%d segments, want several", len(segs))
		}
		ref := topology.NewPathCounter(topo)
		net, err := NewNetwork(topo, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		fc := NewFastChecker(net)
		var applied []topology.LinkID
		var out []topology.SwitchID
		var violated [3]int // by how the state was made
		feasible, oneSegment, nonEmpty := 0, 0, 0
		for trial := 0; trial < 120; trial++ {
			rng := rngutil.New(uint64(trial)).Split("violated-under")
			if err := net.Reset(0.75); err != nil {
				t.Fatal(err)
			}
			// A feasible state near its limits, one pod denser than the rest.
			dense := segs[rng.Intn(len(segs))].Links
			for i := 0; i < 80; i++ {
				if i%2 == 0 {
					fc.DisableIfSafe(dense[rng.Intn(len(dense))])
				} else {
					fc.DisableIfSafe(topology.LinkID(rng.Intn(topo.NumLinks())))
				}
			}
			switch trial % 3 {
			case 1: // repairs hold breakout siblings down, unchecked
				for i := 0; i < 12; i++ {
					for _, sib := range topo.SameBreakout(dense[rng.Intn(len(dense))]) {
						net.Disable(sib)
					}
				}
			case 2: // a ToR's demand grows past what it has left
				var short []topology.SwitchID
				for _, tor := range topo.ToRs() {
					if net.pc.IncCounts()[tor] < net.pc.Total()[tor] {
						short = append(short, tor)
					}
				}
				for i := 0; i < 3; i++ {
					tor := short[rng.Intn(len(short))]
					frac := float64(net.pc.IncCounts()[tor]) / float64(net.pc.Total()[tor])
					if err := net.SetToRConstraint(tor, min(1, frac+0.05)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if net.tors.NumViolated() == 0 {
				feasible++
			} else {
				violated[trial%3]++
			}

			// What the optimizer would ask about: corrupting links, a few of
			// them already down, some listed twice.
			var pool []topology.LinkID
			if rng.Intn(2) == 0 {
				pool = segs[rng.Intn(len(segs))].Links
				oneSegment++
			}
			var extra []topology.LinkID
			for i, n := 0, 1+rng.Intn(40); i < n; i++ {
				l := topology.LinkID(rng.Intn(topo.NumLinks()))
				if pool != nil {
					l = pool[rng.Intn(len(pool))]
				}
				extra = append(extra, l)
				if rng.Intn(5) == 0 {
					extra = append(extra, extra[rng.Intn(len(extra))])
				}
			}
			down := net.DisabledLinks().Iter(topology.LinkSetView{})
			for l, i := down.Next(), 0; l != topology.NoLink && i < 3; l, i = down.Next(), i+1 {
				if pool == nil || slices.Contains(pool, l) {
					extra = append(extra, l)
				}
			}

			counts := slices.Clone(net.pc.IncCounts())
			disabled := topology.NewLinkSet(topo.NumLinks())
			net.DisabledLinks().Each(disabled.Add)
			meetsNow, numViolated := metStatus(net), net.tors.NumViolated()

			want := violatedUnderScan(net, ref, extra)
			var got []topology.SwitchID
			got, applied = net.violatedUnder(extra, applied, out)
			out = got
			if !slices.Equal(got, want) {
				t.Fatalf("%d links, trial %d (numViolated %d, one segment %v): violatedUnder = %v, full scan %v",
					topo.NumLinks(), trial, numViolated, pool != nil, got, want)
			}
			if len(want) > 0 && numViolated == 0 {
				nonEmpty++ // the changed-ToRs path had something to find
			}
			for _, l := range applied {
				if disabled.Has(l) {
					t.Fatalf("trial %d: probe applied link %d, which was already down", trial, l)
				}
			}
			if !slices.Equal(net.pc.IncCounts(), counts) {
				t.Fatalf("trial %d: path counts differ after the probe", trial)
			}
			if got, want := net.DisabledLinks().Len(), disabled.Len(); got != want || net.NumDisabled() != want {
				t.Fatalf("trial %d: %d links down after the probe (numDisabled %d), %d before", trial, got, net.NumDisabled(), want)
			}
			it := net.DisabledLinks().Iter(disabled.View())
			if l := it.Next(); l != topology.NoLink {
				t.Fatalf("trial %d: link %d left down by the probe", trial, l)
			}
			if net.tors.NumViolated() != numViolated || !slices.Equal(metStatus(net), meetsNow) {
				t.Fatalf("trial %d: constraint status changed under the probe", trial)
			}
		}
		if feasible < 30 || violated[1] < 15 || violated[2] < 15 || oneSegment < 30 || nonEmpty < 15 {
			t.Fatalf("%d links: %d feasible states, %v violated (by collateral, by constraint), %d one-segment probes, %d non-empty answers from feasible states: a case is under-covered",
				topo.NumLinks(), feasible, violated[1:], oneSegment, nonEmpty)
		}
	}
}
