package faults

import (
	"math"
	"slices"
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

// FuzzStateDifferential drives random Apply, Clear, SuppressLinkEffect,
// RepairLink and Reset sequences over a small two-technology fabric, so
// that healing returns slots to the pool and later faults reuse them. After
// every step each link must equal, bit for bit, the same link of a fresh
// State with the surviving effects applied in order: both rates and the Tx
// and Rx power at both sides. Both must also match a model built on
// optics.NewLink of the assigned technology, which holds the healthy-margin
// shortcut to the optics curve and a reused slot to its new link's
// technology. Every healthy link's optics must equal optics.NewLink of its
// technology, which a write through the shared healthy Link would break.
func FuzzStateDifferential(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 7, 5, 3, 3, 1, 3, 2, 0, 9, 5, 5, 1, 0, 0, 4})
	f.Add(int64(2), []byte{5, 0, 5, 1, 2, 0x80, 2, 0x81, 2, 0x82, 2, 0x83, 0, 0, 4, 1, 5, 2, 3, 0xff})
	f.Add(int64(3), []byte{0, 8, 0, 0, 1, 0, 1, 1, 5, 0, 3, 1, 3, 1, 5, 3, 4, 0, 0, 5, 2, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		topo, err := topology.NewClos(topology.ClosConfig{
			Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 2, BreakoutSize: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		other := optics.Technology{Name: "other", NominalTx: 1, TxThreshold: -3, RxThreshold: -11.5, PathLoss: 3}
		assigns := []func(topology.LinkID) optics.Technology{
			func(l topology.LinkID) optics.Technology {
				if l%3 == 0 {
					return other
				}
				return testTech()
			},
			func(l topology.LinkID) optics.Technology {
				if l%2 == 0 {
					return testTech()
				}
				return other
			},
		}
		assign := assigns[0]
		mix := DefaultCauseMix()
		mix[SharedComponent] = 0.5
		inj, err := NewMultiTechInjector(topo, assign, InjectorConfig{Mix: mix.Normalize()}, rngutil.New(uint64(seed)).Split("state-fuzz"))
		if err != nil {
			t.Fatal(err)
		}
		st := NewMultiTechState(topo, assign)

		// The model: the applied faults in Apply order, and per fault the
		// links SuppressLinkEffect has named, with State's rule that a
		// fault whose named links number its effects is cleared.
		var applied []*Fault
		named := map[ID]map[topology.LinkID]bool{}
		find := func(id ID) int {
			return slices.IndexFunc(applied, func(f *Fault) bool { return f.ID == id })
		}
		clearID := func(id ID) {
			if i := find(id); i >= 0 {
				applied = slices.Delete(applied, i, i+1)
			}
			delete(named, id)
		}
		suppress := func(id ID, l topology.LinkID) {
			i := find(id)
			if i < 0 {
				return
			}
			if named[id] == nil {
				named[id] = map[topology.LinkID]bool{}
			}
			named[id][l] = true
			if len(named[id]) == len(applied[i].Effects) {
				clearID(id)
			}
		}
		holds := func(f *Fault, l topology.LinkID) bool {
			return !named[f.ID][l] && slices.ContainsFunc(f.Effects, func(e LinkEffect) bool { return e.Link == l })
		}

		for step := 0; step+1 < len(ops); step += 2 {
			arg := int(ops[step+1])
			var op string
			switch ops[step] % 6 {
			case 0, 5:
				op = "apply"
				if len(applied) > 0 && arg%4 == 0 {
					st.Apply(applied[arg%len(applied)]) // a duplicate: no-op
					break
				}
				f := inj.NewFault(time.Duration(step) * time.Minute)
				st.Apply(f)
				applied = append(applied, f)
			case 1:
				op = "clear"
				id := ID(-1 - arg) // unknown unless a fault is active
				if len(applied) > 0 {
					id = applied[arg%len(applied)].ID
				}
				st.Clear(id)
				clearID(id)
			case 2:
				op = "suppress"
				if len(applied) == 0 {
					break
				}
				f := applied[arg%len(applied)]
				l := f.Effects[(arg>>2)%len(f.Effects)].Link
				if arg&0x80 != 0 {
					l = topology.LinkID(arg % topo.NumLinks())
				}
				st.SuppressLinkEffect(f.ID, l)
				suppress(f.ID, l)
			case 3:
				op = "repair"
				l := topology.LinkID(arg % topo.NumLinks())
				if len(applied) > 0 && arg&1 == 1 {
					f := applied[(arg>>1)%len(applied)]
					l = f.Effects[(arg>>3)%len(f.Effects)].Link
				}
				var want []RootCause
				for _, f := range slices.Clone(applied) {
					if holds(f, l) {
						want = append(want, f.Cause)
						suppress(f.ID, l)
					}
				}
				var got []RootCause
				for _, f := range st.ActiveFaults(l) {
					got = append(got, f.Cause)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: ActiveFaults(%d) before RepairLink = %v, want %v", step/2, l, got, want)
				}
				st.RepairLink(l)
			case 4:
				op = "reset"
				assign = assigns[arg%len(assigns)]
				st.Reset(assign)
				applied, named = applied[:0], map[ID]map[topology.LinkID]bool{}
			}

			ref := NewMultiTechState(topo, assign)
			for _, f := range applied {
				kept := &Fault{ID: f.ID, Cause: f.Cause, Start: f.Start}
				for _, e := range f.Effects {
					if !named[f.ID][e.Link] {
						kept.Effects = append(kept.Effects, e)
					}
				}
				ref.Apply(kept)
			}
			if got, want := st.NumActiveFaults(), ref.NumActiveFaults(); got != want {
				t.Fatalf("step %d (%s): %d active faults, reference %d", step/2, op, got, want)
			}
			faulty := 0
			for i := 0; i < topo.NumLinks(); i++ {
				l := topology.LinkID(i)
				if got, want := st.TechOf(l), assign(l); got != want {
					t.Fatalf("step %d (%s): link %d technology %v, assigned %v", step/2, op, l, got, want)
				}
				// The optics the surviving effects leave on a new link of
				// the assigned technology, and the rates they give, on the
				// optics package's own curve.
				model := optics.NewLink(assign(l))
				var direct [2]float64
				for _, f := range applied {
					for _, e := range f.Effects {
						if e.Link != l || named[f.ID][l] {
							continue
						}
						for _, side := range []optics.Side{optics.LowerSide, optics.UpperSide} {
							model.AddLoss(side, e.ExtraLossFrom[side])
							if d := e.TxDecay[side]; d != 0 {
								model.SetTxPower(side, model.TxPower(side)-optics.DBm(d))
							}
						}
						for d := range direct {
							direct[d] = combineRates(direct[d], e.DirectRate[d])
						}
					}
				}
				recv := [2]optics.Side{topology.Up: optics.UpperSide, topology.Down: optics.LowerSide}
				for _, d := range []topology.Direction{topology.Up, topology.Down} {
					got := st.CorruptionRate(l, d)
					if want := ref.CorruptionRate(l, d); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("step %d (%s): link %d %v rate %v, fresh State %v", step/2, op, l, d, got, want)
					}
					if want := combineRates(model.CorruptionRate(recv[d]), direct[d]); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("step %d (%s): link %d %v rate %v, model %v", step/2, op, l, d, got, want)
					}
				}
				ol := st.Optics(l)
				for _, want := range []*optics.Link{ref.Optics(l), model} {
					for _, side := range []optics.Side{optics.LowerSide, optics.UpperSide} {
						if ol.TxPower(side) != want.TxPower(side) || ol.RxPower(side) != want.RxPower(side) {
							t.Fatalf("step %d (%s): link %d %v side Tx/Rx %v/%v, want %v/%v", step/2, op, l, side,
								ol.TxPower(side), ol.RxPower(side), want.TxPower(side), want.RxPower(side))
						}
					}
				}
				if len(st.ActiveFaults(l)) == 0 {
					if *ol != *optics.NewLink(st.TechOf(l)) {
						t.Fatalf("step %d (%s): healthy link %d optics %+v, want a new %v link", step/2, op, l, *ol, st.TechOf(l).Name)
					}
				} else {
					faulty++
				}
			}
			if inUse := len(st.slots) - len(st.free); inUse != faulty {
				t.Fatalf("step %d (%s): %d slots in use for %d faulty links", step/2, op, inUse, faulty)
			}
		}
	})
}

// TestHealthy: Healthy reports the optics and rate of a link's
// technology's healthy links, whatever strikes the link.
func TestHealthy(t *testing.T) {
	topo := testTopo(t)
	other := optics.Technology{Name: "other", NominalTx: 1, TxThreshold: -3, RxThreshold: -11.5, PathLoss: 3}
	techOf := func(l topology.LinkID) optics.Technology {
		if l%2 == 1 {
			return other
		}
		return testTech()
	}
	s := NewMultiTechState(topo, techOf)
	check := func(l topology.LinkID) {
		t.Helper()
		ol, rate := s.Healthy(l)
		fresh := optics.NewLink(techOf(l))
		if *ol != *fresh {
			t.Fatalf("link %d: healthy optics %+v, want %+v", l, *ol, *fresh)
		}
		if want := combineRates(fresh.CorruptionRate(optics.UpperSide), 0); rate != want {
			t.Fatalf("link %d: healthy rate %v, want %v", l, rate, want)
		}
	}
	for _, l := range []topology.LinkID{0, 1} {
		check(l)
		if ol, rate := s.Healthy(l); ol != s.Optics(l) || s.CorruptionRate(l, topology.Up) != rate || s.CorruptionRate(l, topology.Down) != rate {
			t.Fatalf("link %d: a fault-free link does not read its technology's healthy state", l)
		}
		s.Apply(&Fault{ID: ID(l + 1), Cause: ConnectorContamination,
			Effects: []LinkEffect{{Link: l, ExtraLossFrom: [2]optics.DB{optics.LowerSide: 12}}}})
		check(l)
		s.Clear(ID(l + 1))
	}
}
