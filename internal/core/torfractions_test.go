package core

import (
	"bytes"
	"math"
	"testing"

	"corropt/internal/topology"
)

// referenceToRFractions is the in-order pass ToRFractions' cache replaced,
// over counts from a fresh full sweep: the reference its result must equal
// bit for bit.
func referenceToRFractions(n *Network) (worst, mean float64) {
	tors := n.topo.ToRs()
	if len(tors) == 0 {
		return 1.0, 0
	}
	pc := topology.NewPathCounter(n.topo)
	counts, total := pc.Count(n.DisabledFunc()), pc.Total()
	worst, sum := 1.0, 0.0
	for _, tor := range tors {
		var f float64
		if total[tor] > 0 {
			f = float64(counts[tor]) / float64(total[tor])
			sum += f
		}
		if f < worst {
			worst = f
		}
	}
	return worst, sum / float64(len(tors))
}

// torFractionTopos are the fuzz fabrics: a Clos and a four-tier fabric, each
// with more than two 64-ToR checkpoint blocks and a last block left partly
// filled.
func torFractionTopos(tb testing.TB) []*topology.Topology {
	tb.Helper()
	clos, err := topology.NewClos(topology.ClosConfig{
		Pods: 5, ToRsPerPod: 30, AggsPerPod: 4, Spines: 8, SpineUplinksPerAgg: 4,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tiers, err := topology.NewMultiTier([]int{140, 12, 6, 3}, []int{3, 3, 2})
	if err != nil {
		tb.Fatal(err)
	}
	return []*topology.Topology{clos, tiers}
}

// FuzzToRFractionsDifferential runs random Disable, Enable, SetToRConstraint,
// Reset and LoadState steps, reading ToRFractions only when the input says so
// (so changes pile up between reads, or a read finds nothing changed), and
// holds every read to the in-order reference bit for bit. The first read of
// the input builds the cache, so some steps run before it exists.
func FuzzToRFractionsDifferential(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 2, 5, 0, 0, 3, 5, 0, 1, 1, 5, 0})
	f.Add(uint8(1), []byte{0, 7, 0, 9, 0, 200, 4, 0, 5, 0, 1, 7, 6, 0, 5, 0, 3, 0, 5, 0})
	f.Add(uint8(0), []byte{2, 4, 0, 10, 5, 0, 7, 0, 5, 0, 0, 99, 2, 130, 5, 0})
	topos := torFractionTopos(f)
	f.Fuzz(func(t *testing.T, which uint8, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		topo := topos[int(which)%len(topos)]
		n, err := NewNetwork(topo, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		tors := topo.ToRs()
		var snap []byte
		check := func(step int) {
			worst, mean := n.ToRFractions()
			wantWorst, wantMean := referenceToRFractions(n)
			if math.Float64bits(worst) != math.Float64bits(wantWorst) || math.Float64bits(mean) != math.Float64bits(wantMean) {
				t.Fatalf("step %d: ToRFractions = (%v, %v), in-order pass (%v, %v)", step, worst, mean, wantWorst, wantMean)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			// Links: mostly ToR uplinks (multiples of 7 spread them out), so a
			// step moves one ToR's fraction somewhere in the list.
			arg := int(ops[i+1])
			l := topology.LinkID((arg * 7) % topo.NumLinks())
			switch ops[i] % 8 {
			case 0, 1:
				n.Disable(l)
			case 2:
				n.Enable(l)
			case 3:
				if err := n.SetToRConstraint(tors[arg%len(tors)], float64(arg%5)/4); err != nil {
					t.Fatal(err)
				}
			case 4:
				var buf bytes.Buffer
				if err := n.SaveState(&buf); err != nil {
					t.Fatal(err)
				}
				snap = buf.Bytes()
			case 5:
				check(i / 2)
			case 6:
				if snap != nil {
					if err := n.LoadState(bytes.NewReader(snap)); err != nil {
						t.Fatal(err)
					}
				}
			case 7:
				if err := n.Reset(float64(arg%5) / 4); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(len(ops) / 2)
	})
}

// FuzzAddOnes holds addOnes to the loop it replaces, k sequential s += 1,
// bit for bit: across powers of two, below 1, past 2^53 where the unit in
// the last place exceeds 1, and on non-finite sums.
func FuzzAddOnes(f *testing.F) {
	for _, s := range []float64{0, 0.3, 0.75, 1, 1.5, 3, 3.5, 63.99, 1023.7, 1 << 52, 1<<53 - 3, 1 << 53, 1<<54 + 2, -5.5, math.Inf(1), math.NaN()} {
		f.Add(s, uint16(200))
	}
	f.Add(0.1+0.2, uint16(4095))
	f.Fuzz(func(t *testing.T, s float64, k uint16) {
		k %= 4096
		want := s
		for i := 0; i < int(k); i++ {
			want++
		}
		if got := addOnes(s, int(k)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("addOnes(%v, %d) = %v (%#x), loop gives %v (%#x)", s, k, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
