package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkIncrementalState asserts that pc's incremental counts equal a fresh
// full sweep under pc's incremental disabled set, for every switch.
func checkIncrementalState(t *testing.T, pc *PathCounter, context string) {
	t.Helper()
	checkIncCounts(t, pc, pc.Count(pc.IncDisabled().Func()), context)
}

// checkIncCounts asserts that pc's incremental counts equal want, a count of
// every switch: each id IncCounts covers against want, and each id past
// them, which must be a top-stage switch, against want's 1.
func checkIncCounts(t *testing.T, pc *PathCounter, want []int64, context string) {
	t.Helper()
	got := pc.IncCounts()
	top := Stage(pc.t.Stages() - 1)
	for id := range want {
		if id < len(got) {
			if got[id] != want[id] {
				t.Fatalf("%s: inc count[%d] = %d, full = %d (disabled=%d)",
					context, id, got[id], want[id], pc.IncDisabled().Len())
			}
			continue
		}
		if st := pc.t.Switch(SwitchID(id)).Stage; st != top || want[id] != 1 {
			t.Fatalf("%s: switch %d past the incremental counts is at stage %d with %d paths, want top stage %d with 1",
				context, id, st, want[id], top)
		}
	}
}

func TestApplyRevertMatchesFullRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		topo := randomTopology(t, seed)
		pc := NewPathCounter(topo)
		rng := rand.New(rand.NewSource(seed + 2000))
		for op := 0; op < 100; op++ {
			l := LinkID(rng.Intn(topo.NumLinks()))
			before := append([]int64(nil), pc.IncCounts()...)
			var changed []SwitchID
			if pc.IncDisabled().Has(l) {
				changed = pc.Revert(l)
			} else {
				changed = pc.Apply(l)
			}
			checkIncrementalState(t, pc, "after toggle")
			// ChangedToRs must be exactly the ToRs whose counts changed.
			changedSet := make(map[SwitchID]bool, len(changed))
			for _, tor := range changed {
				if topo.Switch(tor).Stage != 0 {
					t.Fatalf("ChangedToRs contains non-ToR %d", tor)
				}
				if changedSet[tor] {
					t.Fatalf("ChangedToRs contains %d twice", tor)
				}
				changedSet[tor] = true
			}
			after := pc.IncCounts()
			for _, tor := range topo.ToRs() {
				if (before[tor] != after[tor]) != changedSet[tor] {
					t.Fatalf("seed %d: ToR %d change mismatch: before=%d after=%d reported=%v",
						seed, tor, before[tor], after[tor], changedSet[tor])
				}
			}
		}
	}
}

func TestApplyRevertRoundTrip(t *testing.T) {
	topo := randomTopology(t, 5)
	pc := NewPathCounter(topo)
	rng := rand.New(rand.NewSource(5))
	base := randomLinkSet(topo, rng, 0.3)
	pc.ResetIncremental(base)
	snapshot := append([]int64(nil), pc.IncCounts()...)
	// Apply a batch in one order, revert in another: counts must round-trip
	// bit-exactly (order independence of exact deltas).
	var links []LinkID
	for l := 0; l < topo.NumLinks(); l++ {
		if !base.Has(LinkID(l)) && rng.Intn(2) == 0 {
			links = append(links, LinkID(l))
		}
	}
	for _, l := range links {
		pc.Apply(l)
	}
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for _, l := range links {
		pc.Revert(l)
	}
	for id, want := range snapshot {
		if got := pc.IncCounts()[id]; got != want {
			t.Fatalf("round trip count[%d] = %d, want %d", id, got, want)
		}
	}
	if pc.IncDisabled().Len() != base.Len() {
		t.Fatalf("round trip disabled Len = %d, want %d", pc.IncDisabled().Len(), base.Len())
	}
}

func TestApplyRevertNoOps(t *testing.T) {
	topo := randomTopology(t, 11)
	pc := NewPathCounter(topo)
	l := LinkID(0)
	if got := pc.Revert(l); got != nil {
		t.Fatalf("Revert of enabled link returned %v, want nil", got)
	}
	pc.Apply(l)
	if got := pc.Apply(l); got != nil {
		t.Fatalf("Apply of disabled link returned %v, want nil", got)
	}
	checkIncrementalState(t, pc, "after no-ops")
}

func TestResetIncremental(t *testing.T) {
	topo := randomTopology(t, 17)
	pc := NewPathCounter(topo)
	rng := rand.New(rand.NewSource(17))
	set := randomLinkSet(topo, rng, 0.4)
	pc.ResetIncremental(set)
	checkIncrementalState(t, pc, "after reset")
	// Mutating the caller's set must not leak into the counter.
	set.Clear()
	checkIncrementalState(t, pc, "after caller mutation")
	pc.ResetIncremental(nil)
	checkIncCounts(t, pc, pc.Total(), "reset(nil) against the totals")
}

// TestIncrementalInterleavedWithFull asserts the two engines share one
// PathCounter without stepping on each other's state.
func TestIncrementalInterleavedWithFull(t *testing.T) {
	topo := randomTopology(t, 31)
	pc := NewPathCounter(topo)
	rng := rand.New(rand.NewSource(31))
	for op := 0; op < 50; op++ {
		l := LinkID(rng.Intn(topo.NumLinks()))
		if pc.IncDisabled().Has(l) {
			pc.Revert(l)
		} else {
			pc.Apply(l)
		}
		// Interleave a full count over an unrelated disabled set.
		pc.Count(randomLinkSet(topo, rng, 0.3).Func())
		checkIncrementalState(t, pc, "after interleaving")
	}
}

// FuzzIncrementalCounts drives random toggle sequences on fuzzer-chosen
// topologies and cross-checks the incremental counts against a full sweep
// after every operation. The random topologies number their top stage last,
// so the counter keeps no count for it and the walks read it as 1.
func FuzzIncrementalCounts(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 1, 0})
	f.Add(int64(9), []byte{5, 5, 5})
	f.Add(int64(77), []byte{0xff, 0x01, 0x80, 0x01, 0xff})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		topo := randomTopology(t, seed)
		pc := NewPathCounter(topo)
		if n := len(pc.IncCounts()); n != topo.NumSwitches()-len(topo.Spines()) {
			t.Fatalf("seed %d: %d incremental counts for %d switches under the top stage", seed, n, topo.NumSwitches()-len(topo.Spines()))
		}
		for _, b := range ops {
			l := LinkID(int(b) % topo.NumLinks())
			if pc.IncDisabled().Has(l) {
				pc.Revert(l)
			} else {
				pc.Apply(l)
			}
			checkIncCounts(t, pc, pc.Count(pc.IncDisabled().Func()), fmt.Sprintf("seed %d", seed))
		}
	})
}

// FuzzProbeCommit drives a counter through random Probe, Commit, Apply,
// Revert and ResetIncremental steps, and a twin through the same toggles by
// Apply and Revert alone. A probe must leave the counts and the disabled set
// as they were, report exactly the ToRs Apply changes and read every
// switch's count as Apply leaves it; Commit must equal Apply; any other step
// but a full Count drops the pending probe, after which Commit panics.
func FuzzProbeCommit(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 1, 3, 0, 5, 2, 0, 1, 0})
	f.Add(int64(9), []byte{0, 1, 3, 2, 1, 0, 0, 1, 4, 0, 1, 0})
	f.Add(int64(77), []byte{0, 0xff, 1, 0, 1, 0, 0, 0x80, 5, 0, 1, 0, 2, 0x80})
	f.Add(int64(-103), []byte("0007")) // two probes in a row: the first must leave no delta behind
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		topo := randomTopology(t, seed)
		pc, ref := NewPathCounter(topo), NewPathCounter(topo)
		pending := NoLink
		commitPanics := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			pc.Commit()
			return false
		}
		for i := 0; i+1 < len(ops); i += 2 {
			l := LinkID(int(ops[i+1]) % topo.NumLinks())
			op := ops[i] % 6
			if op <= 4 && op != 1 {
				pending = NoLink // every step but a Commit or a read drops the probe
			}
			switch op {
			case 0: // Probe
				before := slices.Clone(pc.IncCounts())
				was := pc.IncDisabled().Has(l)
				changed := slices.Clone(pc.Probe(l))
				if !slices.Equal(pc.IncCounts(), before) || pc.IncDisabled().Has(l) != was || pc.NumIncDisabled() != ref.NumIncDisabled() {
					t.Fatalf("step %d: Probe(%d) changed the counter's state", i/2, l)
				}
				if was {
					if changed != nil {
						t.Fatalf("step %d: Probe of disabled link %d returned %v", i/2, l, changed)
					}
					break
				}
				want := slices.Clone(ref.Apply(l))
				if !slices.Equal(changed, want) {
					t.Fatalf("step %d: Probe(%d) changed %v, Apply %v", i/2, l, changed, want)
				}
				for s, c := range ref.IncCounts() {
					if got := pc.Probed(SwitchID(s)); got != c {
						t.Fatalf("step %d: Probe(%d) reads switch %d at %d, Apply leaves %d", i/2, l, s, got, c)
					}
				}
				ref.Revert(l)
				pending = l
			case 1: // Commit
				if pending == NoLink {
					if !commitPanics() {
						t.Fatalf("step %d: Commit with no probe pending did not panic", i/2)
					}
					break
				}
				got := slices.Clone(pc.Commit())
				if want := ref.Apply(pending); !slices.Equal(got, want) {
					t.Fatalf("step %d: Commit of %d changed %v, Apply %v", i/2, pending, got, want)
				}
				pending = NoLink
			case 2, 3: // a toggle by Apply or Revert
				if pc.IncDisabled().Has(l) {
					pc.Revert(l)
					ref.Revert(l)
				} else {
					pc.Apply(l)
					ref.Apply(l)
				}
			case 4:
				set := NewLinkSet(topo.NumLinks())
				ref.IncDisabled().Each(set.Add)
				pc.ResetIncremental(set)
				ref.ResetIncremental(set)
			case 5: // a full count, which leaves a pending probe pending
				pc.Count(pc.IncDisabled().Func())
			}
			if pending == NoLink && op != 1 && !commitPanics() {
				t.Fatalf("step %d: Commit after op %d did not panic", i/2, op)
			}
			if !slices.Equal(pc.IncCounts(), ref.IncCounts()) || pc.NumIncDisabled() != ref.NumIncDisabled() {
				t.Fatalf("step %d: counts %v (%d disabled), Apply/Revert twin %v (%d)",
					i/2, pc.IncCounts(), pc.NumIncDisabled(), ref.IncCounts(), ref.NumIncDisabled())
			}
			checkIncrementalState(t, pc, "after step")
		}
	})
}
