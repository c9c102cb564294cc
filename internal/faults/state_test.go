package faults

import (
	"testing"
	"time"

	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// referenceRate is the formula CorruptionRate evaluated on every read before
// State cached it: the receiving side's optics-derived rate combined with
// the direct rates of the link's active faults, folded in fault order.
func referenceRate(s *State, l topology.LinkID, dir topology.Direction) float64 {
	direct := 0.0
	for _, f := range s.ActiveFaults(l) {
		for _, e := range f.Effects {
			if e.Link == l {
				direct = combineRates(direct, e.DirectRate[dir])
			}
		}
	}
	recv := optics.UpperSide
	if dir == topology.Down {
		recv = optics.LowerSide
	}
	return combineRates(s.Optics(l).CorruptionRate(recv), direct)
}

// TestRateCacheMatchesReference drives a seeded random sequence of every
// mutation State has over a two-technology fabric, multi-link faults
// (shared component, breakout groups) included, and after each step
// requires the cached rate of every link and direction to equal the
// reference exactly: the cache promises the same bits, not close ones.
func TestRateCacheMatchesReference(t *testing.T) {
	topo := testTopo(t)
	other := optics.Technology{Name: "other", NominalTx: 1, TxThreshold: -3, RxThreshold: -11.5, PathLoss: 3}
	assigns := []func(topology.LinkID) optics.Technology{
		func(topology.LinkID) optics.Technology { return testTech() },
		func(l topology.LinkID) optics.Technology {
			if l%3 == 0 {
				return other
			}
			return testTech()
		},
	}
	mix := DefaultCauseMix()
	mix[SharedComponent] = 0.5
	inj := newInjector(t, topo, InjectorConfig{Mix: mix.Normalize()})
	rng := rngutil.New(7).Split("rate-cache")
	st := NewMultiTechState(topo, assigns[1])

	var ids []ID
	multiLink := 0
	for step := 0; step < 2000; step++ {
		op := "apply"
		switch u := rng.Float64(); {
		case u < 0.45 || len(ids) == 0:
			f := inj.NewFault(time.Duration(step) * time.Minute)
			if len(f.Effects) > 1 {
				multiLink++
			}
			st.Apply(f)
			ids = append(ids, f.ID)
		case u < 0.65:
			op = "clear"
			i := rng.Intn(len(ids))
			st.Clear(ids[i])
			ids = append(ids[:i], ids[i+1:]...)
		case u < 0.80:
			// Possibly an already-cleared id or an untouched link: both
			// must leave the cache as consistent as a hit does.
			op = "suppress"
			id := ids[rng.Intn(len(ids))]
			l := topology.LinkID(rng.Intn(topo.NumLinks()))
			if f, ok := st.Fault(id); ok && rng.Bool(0.8) {
				l = f.Effects[rng.Intn(len(f.Effects))].Link
			}
			st.SuppressLinkEffect(id, l)
		case u < 0.99:
			op = "repair"
			l := topology.LinkID(rng.Intn(topo.NumLinks()))
			if c := st.CorruptingLinks(1e-8); len(c) > 0 && rng.Bool(0.8) {
				l = c[rng.Intn(len(c))]
			}
			st.RepairLink(l)
		default:
			op = "reset"
			st.Reset(assigns[rng.Intn(len(assigns))])
			ids = ids[:0]
		}
		for l := 0; l < topo.NumLinks(); l++ {
			id := topology.LinkID(l)
			for _, d := range []topology.Direction{topology.Up, topology.Down} {
				if got, want := st.CorruptionRate(id, d), referenceRate(st, id, d); got != want {
					t.Fatalf("step %d (%s): link %d %v: cached rate %v, reference %v", step, op, l, d, got, want)
				}
			}
		}
	}
	if multiLink < 100 {
		t.Fatalf("only %d multi-link faults applied; the sequence does not exercise them", multiLink)
	}
}
