package topology

import (
	"math/rand"
	"testing"
)

// checkIncrementalState asserts that pc's incremental counts equal a fresh
// full sweep under pc's incremental disabled set, for every switch.
func checkIncrementalState(t *testing.T, pc *PathCounter, context string) {
	t.Helper()
	want := pc.Count(pc.IncDisabled().Func())
	got := pc.IncCounts()
	for id := range got {
		if got[id] != want[id] {
			t.Fatalf("%s: inc count[%d] = %d, full = %d (disabled=%d)",
				context, id, got[id], want[id], pc.IncDisabled().Len())
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
	for id, want := range pc.Total() {
		if got := pc.IncCounts()[id]; got != want {
			t.Fatalf("reset(nil) count[%d] = %d, want total %d", id, got, want)
		}
	}
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
// after every operation.
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
		for _, b := range ops {
			l := LinkID(int(b) % topo.NumLinks())
			if pc.IncDisabled().Has(l) {
				pc.Revert(l)
			} else {
				pc.Apply(l)
			}
			want := pc.Count(pc.IncDisabled().Func())
			for id := range want {
				if got := pc.IncCounts()[id]; got != want[id] {
					t.Fatalf("seed %d: count[%d] = %d, full = %d", seed, id, got, want[id])
				}
			}
		}
	})
}
