package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// The tests in this file pin Network's link index (the corrupting set and
// the live list) to dense reference scans over every link — the loops the
// index replaced, kept here as the reference implementation.

// rates returns every link's recorded rate, in link order.
func rates(n *Network) []float64 {
	out := make([]float64, n.topo.NumLinks())
	for l := range out {
		out[l] = n.CorruptionRate(topology.LinkID(l))
	}
	return out
}

// denseActive is the reference for AppendActiveCorrupting: every link, in
// ascending order, that has a recorded rate at or above threshold and is
// enabled.
func denseActive(n *Network, threshold float64) []topology.LinkID {
	var out []topology.LinkID
	for l, r := range rates(n) {
		if r > 0 && r >= threshold && !n.Disabled(topology.LinkID(l)) {
			out = append(out, topology.LinkID(l))
		}
	}
	return out
}

// denseTotalPenalty is the reference for TotalPenalty: the same additions in
// the same (ascending link) order.
func denseTotalPenalty(n *Network, p PenaltyFunc) float64 {
	sum := 0.0
	for l, r := range rates(n) {
		if r > 0 && !n.Disabled(topology.LinkID(l)) {
			sum += p(r)
		}
	}
	return sum
}

// denseSaveState is the reference encoder for SaveState.
func denseSaveState(t *testing.T, n *Network) []byte {
	t.Helper()
	sf := stateFile{
		Fingerprint: fingerprint(n.topo),
		Corruption:  make(map[topology.LinkID]float64),
		Constraints: make(map[string]float64),
	}
	for l, r := range rates(n) {
		if n.Disabled(topology.LinkID(l)) {
			sf.Disabled = append(sf.Disabled, topology.LinkID(l))
		}
		if r > 0 {
			sf.Corruption[topology.LinkID(l)] = r
		}
	}
	for _, tor := range n.topo.ToRs() {
		sf.Constraints[n.topo.Switch(tor).Name] = n.Constraint(tor)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func saveState(t *testing.T, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptingSet collects the link index's corrupting set.
func corruptingSet(n *Network) *topology.LinkSet {
	set := topology.NewLinkSet(n.topo.NumLinks())
	it := n.links.Corrupting()
	for l := it.Next(); l != topology.NoLink; l = it.Next() {
		set.Add(l)
	}
	return set
}

// checkCorruptingIndex holds the invariants corrupting == {l : rate[l] > 0}
// and live == {l : rate[l] > 0 ∧ rate[l] >= the key} &^ disabled in
// ascending order, and every reader of the index against its dense
// reference — at the key, where the live list answers, and on both sides of
// it, where the filtered walk over corrupting does.
func checkCorruptingIndex(t *testing.T, n *Network, p PenaltyFunc, where string) {
	t.Helper()
	corrupting, threshold := corruptingSet(n), n.links.Threshold()
	for l, r := range rates(n) {
		if got, want := corrupting.Has(topology.LinkID(l)), r > 0; got != want {
			t.Fatalf("%s: link %d has rate %v but corrupting.Has = %v", where, l, r, got)
		}
	}
	var live []topology.LinkID
	for l, r := range rates(n) {
		if r > 0 && r >= threshold && !n.Disabled(topology.LinkID(l)) {
			live = append(live, topology.LinkID(l))
		}
	}
	if got := n.links.AppendLive(nil); !slices.Equal(got, live) {
		t.Fatalf("%s: live list %v, want the enabled links at or above %v = %v", where, got, threshold, live)
	}
	buf := make([]topology.LinkID, 0, 8)
	for _, th := range []float64{math.Inf(-1), -1, 0, threshold, 1e-7, 1e-4, 1e-3, 1} {
		want := denseActive(n, th)
		if got := n.AppendActiveCorrupting(buf[:0], th); !slices.Equal(got, want) {
			t.Fatalf("%s: AppendActiveCorrupting(%v) = %v, want %v", where, th, got, want)
		}
		if got := n.NumActiveCorrupting(th); got != len(want) {
			t.Fatalf("%s: NumActiveCorrupting(%v) = %d, want %d", where, th, got, len(want))
		}
	}
	if got, want := n.TotalPenalty(p), denseTotalPenalty(n, p); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: TotalPenalty = %v (%#x), want %v (%#x)", where,
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if n.PenaltyRegistered() {
		n.pen.Rebuild(&n.links)
		if got, want := n.PenaltySum(), denseTotalPenalty(n, n.pen.Func()); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: rebuilt PenaltySum = %v, want %v", where, got, want)
		}
	}
	if got, want := saveState(t, n), denseSaveState(t, n); !bytes.Equal(got, want) {
		t.Fatalf("%s: SaveState differs from the dense encoder:\n%s\nwant:\n%s", where, got, want)
	}
}

// TestCorruptingIndexDifferential drives seeded random sequences of every
// operation that writes a rate, toggles a link, replaces the state wholesale
// or re-keys the reportable index — engines built at several thresholds,
// before and after a LoadState, each kept and used after a later one has
// re-keyed the network under it — and after every step holds both indexes and
// each of their readers to the dense scans above.
func TestCorruptingIndexDifferential(t *testing.T) {
	topo := penaltyTestTopo(t)
	penalties := []PenaltyFunc{LinearPenalty, TCPThroughputPenalty, StepPenalty(1e-5), nil}
	keys := []float64{0, 1e-7, 1e-5, 1e-3} // 0: DefaultDetectionThreshold
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rngutil.New(seed).Split("corrupting-index")
		net, err := NewNetwork(topo, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		p := penalties[seed%3]
		snap := saveState(t, net)
		last := topology.LinkID(0)
		engines := []*Engine{NewEngine(net, EngineConfig{})}
		for step := 0; step < 1500; step++ {
			l := topology.LinkID(rng.Intn(topo.NumLinks()))
			op := rng.Intn(46)
			switch {
			case op >= 43:
				e := NewEngine(net, EngineConfig{DetectionThreshold: keys[rng.Intn(len(keys))]})
				if net.links.Threshold() != e.Threshold() {
					t.Fatalf("seed %d step %d: engine at %v left the network keyed to %v", seed, step, e.Threshold(), net.links.Threshold())
				}
				engines = append(engines, e)
			case op >= 40:
				// Whichever engine reports, its own threshold decides; the
				// network may be keyed to another by now.
				e := engines[rng.Intn(len(engines))]
				rate := math.Pow(10, rng.Range(-9, -2))
				if d := e.ReportCorruption(l, rate); (d.Outcome == OutcomeBelowThreshold) != (rate < e.Threshold()) {
					t.Fatalf("seed %d step %d: report at %v against threshold %v came back %+v", seed, step, rate, e.Threshold(), d)
				}
				last = l
			case op < 10:
				rate := math.Pow(10, rng.Range(-9, -2)) // both sides of every key
				if rng.Intn(4) == 0 {
					rate = []float64{1e-7, 1e-6, 1e-5, 1e-3}[rng.Intn(4)] // exactly at one
				}
				net.SetCorruption(l, rate)
				last = l
			case op < 14:
				net.SetCorruption(l, 0)
			case op < 17:
				net.SetCorruption(last, net.CorruptionRate(last)) // same rate again
			case op < 18:
				net.SetCorruption(l, []float64{-1e-3, math.NaN(), math.Inf(-1)}[rng.Intn(3)])
			case op < 26:
				net.Disable(l)
			case op < 33:
				net.Enable(l)
			case op < 35:
				net.RegisterPenalty(penalties[rng.Intn(len(penalties))])
			case op < 37:
				snap = saveState(t, net)
			case op < 39:
				if err := net.LoadState(bytes.NewReader(snap)); err != nil {
					t.Fatalf("seed %d step %d: LoadState: %v", seed, step, err)
				}
				if got := saveState(t, net); !bytes.Equal(got, snap) {
					t.Fatalf("seed %d step %d: state after LoadState differs from the snapshot", seed, step)
				}
			default:
				if err := net.Reset(0.25); err != nil {
					t.Fatal(err)
				}
				if corruptingSet(net).Len() != 0 || net.links.Threshold() != DefaultDetectionThreshold {
					t.Fatalf("seed %d step %d: Reset left %d corrupting links, key %v", seed, step,
						corruptingSet(net).Len(), net.links.Threshold())
				}
			}
			checkCorruptingIndex(t, net, p, fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
}

// TestActiveCorruptingNeedsARate is the regression test for thresholds at or
// below zero: "active corrupting" is rate > 0 ∧ rate >= threshold ∧ enabled,
// so a healthy link is never active — ActiveCorrupting(0) used to return
// every enabled link (0 >= 0), and Sweep(0) or Optimizer.Run(0) would have
// disabled healthy links. It also pins that each path that rewrites the
// state wholesale leaves the index equal to {l : rate[l] > 0}.
func TestActiveCorruptingNeedsARate(t *testing.T) {
	topo := smallClos(t)
	n, _ := NewNetwork(topo, 0) // no capacity constraint: whatever is active can go
	for _, th := range []float64{0, -1, math.Inf(-1)} {
		if got := n.ActiveCorrupting(th); len(got) != 0 {
			t.Fatalf("healthy network: ActiveCorrupting(%v) = %v, want none", th, got)
		}
		if got := n.NumActiveCorrupting(th); got != 0 {
			t.Fatalf("healthy network: NumActiveCorrupting(%v) = %d, want 0", th, got)
		}
	}
	n.SetCorruption(1, 1e-3)
	n.SetCorruption(4, 1e-9)
	n.SetCorruption(6, 1e-2)
	n.Disable(6)
	if got, want := n.ActiveCorrupting(0), []topology.LinkID{1, 4}; !slices.Equal(got, want) {
		t.Fatalf("ActiveCorrupting(0) = %v, want %v", got, want)
	}
	if got, want := n.ActiveCorrupting(1e-6), []topology.LinkID{1}; !slices.Equal(got, want) {
		t.Fatalf("ActiveCorrupting(1e-6) = %v, want %v", got, want)
	}
	// A threshold of zero through the public decision paths touches only the
	// corrupting links.
	if got, want := NewFastChecker(n).Sweep(0), []topology.LinkID{1, 4}; !slices.Equal(got, want) {
		t.Fatalf("Sweep(0) disabled %v, want %v", got, want)
	}
	n.Enable(1)
	n.Enable(4)
	disabled, _ := NewOptimizer(n, nil).Run(0)
	slices.Sort(disabled)
	if want := []topology.LinkID{1, 4}; !slices.Equal(disabled, want) {
		t.Fatalf("Optimizer.Run(0) disabled %v, want %v", disabled, want)
	}
	if n.NumDisabled() != 3 {
		t.Fatalf("%d links disabled, want the 3 corrupting ones", n.NumDisabled())
	}
	checkCorruptingIndex(t, n, LinearPenalty, "after the zero-threshold runs")

	// A rate that is not a positive number clears the record.
	for _, r := range []float64{-1e-3, math.NaN()} {
		n.SetCorruption(4, r)
		if n.CorruptionRate(4) != 0 {
			t.Fatalf("SetCorruption(%v) recorded rate %v, want 0", r, n.CorruptionRate(4))
		}
		checkCorruptingIndex(t, n, LinearPenalty, "after a non-positive rate")
		n.SetCorruption(4, 1e-9)
	}

	// RegisterPenalty(nil) then RegisterPenalty(p): the index outlives the
	// penalty function, and updates in between are not lost.
	n.RegisterPenalty(LinearPenalty)
	n.RegisterPenalty(nil)
	n.SetCorruption(2, 1e-4)
	n.SetCorruption(1, 0)
	checkCorruptingIndex(t, n, LinearPenalty, "with no penalty registered")
	n.RegisterPenalty(TCPThroughputPenalty)
	checkCorruptingIndex(t, n, TCPThroughputPenalty, "after re-registering")

	// LoadState: the success path, and each error path — which may leave the
	// state partly applied, but never the index out of step with the rates.
	good := saveState(t, n)
	m, _ := NewNetwork(topo, 0.5)
	m.SetCorruption(0, 0.5)
	m.SetCorruption(7, 0.25)
	m.Disable(7)
	if err := m.LoadState(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	checkCorruptingIndex(t, m, LinearPenalty, "after LoadState")
	if got := saveState(t, m); !bytes.Equal(got, good) {
		t.Fatal("LoadState did not reproduce the saved state")
	}
	for name, bad := range map[string]string{
		"garbage":         "not json",
		"fingerprint":     strings.Replace(string(good), `"fingerprint": `, `"fingerprint": 1`, 1),
		"unknown link":    strings.Replace(string(good), `"disabled": [`, `"disabled": [ 9999,`, 1),
		"unknown corrupt": strings.Replace(string(good), `"corruption": {`, `"corruption": { "9999": 0.5,`, 1),
		"invalid rate":    strings.Replace(string(good), `"corruption": {`, `"corruption": { "3": 1.5,`, 1),
		"unknown tor":     strings.Replace(string(good), `"constraints": {`, `"constraints": { "no-such-tor": 0.5,`, 1),
	} {
		if bad == string(good) {
			t.Fatalf("%s: the corrupted state equals the good one", name)
		}
		m.SetCorruption(0, 0.5)
		if err := m.LoadState(strings.NewReader(bad)); err == nil {
			t.Fatalf("%s: LoadState accepted a bad state", name)
		}
		checkCorruptingIndex(t, m, LinearPenalty, "after LoadState error ("+name+")")
	}

	// Reset: an empty index, whatever was registered or recorded before.
	if err := n.Reset(0.5); err != nil {
		t.Fatal(err)
	}
	if corruptingSet(n).Len() != 0 || n.NumActiveCorrupting(0) != 0 {
		t.Fatal("Reset left links in the corrupting index")
	}
	checkCorruptingIndex(t, n, LinearPenalty, "after Reset")
	n.SetCorruption(3, 1e-3)
	checkCorruptingIndex(t, n, LinearPenalty, "first record after Reset")
}
