package telemetry

import (
	"math/rand"
	"testing"
	"time"

	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
	"corropt/internal/traffic"
)

// eagerCollector is the Collector whose Poll reads every link's ground
// truth and writes every link's counters and observation. It is the
// reference FuzzCollectorDifferential holds the Collector to; it shares the
// Collector's noise table and stream keying through ref.
type eagerCollector struct {
	ref      *Collector
	cfg      Config
	state    *faults.State
	traffic  *traffic.Model
	disabled topology.DisabledFunc
	counters []Counters
	series   map[topology.LinkID][]Observation
	watched  []bool
	latest   []Observation
	polled   bool
}

func newEagerCollector(state *faults.State, tm *traffic.Model, disabled topology.DisabledFunc, cfg Config) *eagerCollector {
	ref := NewCollector(state, tm, disabled, cfg)
	n := state.Topology().NumLinks()
	return &eagerCollector{
		ref:      ref,
		cfg:      ref.cfg,
		state:    state,
		traffic:  tm,
		disabled: disabled,
		counters: make([]Counters, n),
		series:   make(map[topology.LinkID][]Observation),
		watched:  make([]bool, n),
		latest:   make([]Observation, n),
	}
}

func (c *eagerCollector) Watch(l topology.LinkID) { c.watched[l] = true }

func (c *eagerCollector) Poll(now time.Duration) {
	seconds := c.cfg.Interval.Seconds()
	stream := c.ref.noiseStream(now)
	for li := range c.latest {
		l := topology.LinkID(li)
		obs := &c.latest[li]
		if c.disabled != nil && c.disabled(l) {
			*obs = Observation{At: now, Disabled: true}
		} else {
			obs.At = now
			obs.Disabled = false
			ol := c.state.Optics(l)
			obs.TxPower[optics.LowerSide] = ol.TxPower(optics.LowerSide)
			obs.TxPower[optics.UpperSide] = ol.TxPower(optics.UpperSide)
			obs.RxPower[optics.LowerSide] = ol.RxPower(optics.LowerSide)
			obs.RxPower[optics.UpperSide] = ol.RxPower(optics.UpperSide)
			ctr := &c.counters[li]
			for d := topology.Up; d <= topology.Down; d++ {
				util := 0.5
				congestion := 0.0
				if c.traffic != nil {
					util = c.traffic.Utilization(l, d, now)
					congestion = c.traffic.LossRate(l, d, now)
				}
				corruption := c.state.CorruptionRate(l, d) * c.ref.noise(stream, l, d)
				if corruption > 1 {
					corruption = 1
				}
				packets := util * lineRatePPS * seconds
				obs.Util[d] = util
				obs.CorruptionRate[d] = corruption
				obs.CongestionRate[d] = congestion
				ctr.Packets[d] += uint64(packets)
				ctr.Errors[d] += uint64(packets * corruption)
				ctr.Drops[d] += uint64(packets * congestion)
			}
		}
		if c.watched[li] {
			c.series[l] = append(c.series[l], *obs)
		}
	}
	c.polled = true
}

// Technologies of the differential fabrics. quietTech's healthy links count
// no error at any noise draw; noisyTech sits 1 dB below sensitivity, so its
// healthy links count errors and are walked by every poll.
var (
	quietTech = optics.Technology{Name: "quiet", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
	noisyTech = optics.Technology{Name: "noisy", NominalTx: 0, TxThreshold: -4, RxThreshold: -2, PathLoss: 3}
)

// Fabrics of the differential: which ground truth the collectors poll.
const (
	fabricQuiet   = iota // one quiet technology, no traffic model: fig13's shape
	fabricTraffic        // a traffic model, so every link is walked
	fabricMixed          // quiet and noisy technologies on alternate links
	numFabrics
)

// runDifferential drives a Collector and an eagerCollector over one fault
// state and one disabled set with the operations ops encodes, and requires
// every link's Counters, Latest and Series to agree after every operation.
// It returns how many links each poll left in each status.
func runDifferential(t *testing.T, fabric int, ops []byte) (mix [walked + 1]int) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 2, ToRsPerPod: 4, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := topo.NumLinks()
	var st *faults.State
	var tm *traffic.Model
	switch fabric {
	case fabricQuiet:
		st = faults.NewState(topo, quietTech)
	case fabricTraffic:
		st = faults.NewState(topo, quietTech)
		tm = traffic.New(topo, rngutil.New(5).Split("traffic"))
	case fabricMixed:
		st = faults.NewMultiTechState(topo, func(l topology.LinkID) optics.Technology {
			if l%2 == 1 {
				return noisyTech
			}
			return quietTech
		})
	}
	down := topology.NewLinkSet(n)
	cfg := Config{Seed: 11}
	got := NewCollector(st, tm, down.Func(), cfg)
	want := newEagerCollector(st, tm, down.Func(), cfg)
	if got.NumLinks() != n {
		t.Fatalf("collector of %d links, fabric of %d", got.NumLinks(), n)
	}
	if _, rate := st.Healthy(1); fabric == fabricMixed && got.quietRate(rate) {
		t.Fatal("noisyTech's healthy links would be quiet")
	}

	seen := make([]int, n) // series entries already compared, per link
	var live []*faults.Fault
	var nextID faults.ID
	now := time.Duration(0)
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%16, int(ops[i+1])
		l := topology.LinkID(arg % n)
		switch {
		case op < 2: // a fault on one or two links
			nextID++
			f := &faults.Fault{ID: nextID, Cause: faults.ConnectorContamination}
			for k := 0; k <= arg%2; k++ {
				e := faults.LinkEffect{Link: topology.LinkID((arg + 5*k) % n)}
				switch arg / 2 % 3 {
				case 0:
					e.ExtraLossFrom[optics.Side(arg/6%2)] = optics.DB(6 + arg%7)
				case 1:
					e.DirectRate[topology.Direction(arg/6%2)] = 1e-6 * float64(1+arg%50)
				default:
					e.TxDecay[optics.Side(arg/6%2)] = optics.DB(arg % 5)
				}
				f.Effects = append(f.Effects, e)
			}
			st.Apply(f)
			live = append(live, f)
		case op < 4: // clear a fault
			if len(live) > 0 {
				k := arg % len(live)
				st.Clear(live[k].ID)
				live = append(live[:k], live[k+1:]...)
			}
		case op == 4: // repair one link of a fault
			if len(live) > 0 {
				f := live[arg%len(live)]
				st.SuppressLinkEffect(f.ID, f.Effects[arg/7%len(f.Effects)].Link)
			}
		case op == 5:
			st.RepairLink(l)
		case op == 6: // disable a quarter of the time, enable otherwise
			if arg/n%4 == 0 {
				down.Add(l)
			} else {
				down.Remove(l)
			}
		case op == 7 && arg < 8: // rare: a watch is for good
			got.Watch(l)
			want.Watch(l)
		default: // a poll, at irregular times: sub-second to a few intervals
			now += time.Duration(arg+1) * 7 * time.Second
			if arg%4 == 0 {
				now += time.Duration(arg) * time.Millisecond
			}
			got.Poll(now)
			want.Poll(now)
			for _, s := range got.status {
				mix[s]++
			}
		}
		// The reads under one lock agree with the locking ones, checked
		// against the reference below.
		got.Read(func(r Reader) {
			for li := 0; li < n; li++ {
				l := topology.LinkID(li)
				g, gok := r.Latest(l)
				if w, wok := got.latestOf(l); r.Counters(l) != got.countersOf(l) || g != w || gok != wok {
					t.Fatalf("op %d (%d %d): link %d: Reader disagrees with the collector", i/2, op, arg, l)
				}
			}
		})
		for li := 0; li < n; li++ {
			l := topology.LinkID(li)
			if g, w := got.Counters(l), want.counters[li]; g != w {
				t.Fatalf("op %d (%d %d): link %d counters %+v, eager %+v", i/2, op, arg, l, g, w)
			}
			g, gok := got.Latest(l)
			if w := want.latest[li]; g != w || gok != want.polled {
				t.Fatalf("op %d (%d %d): link %d latest %+v %v, eager %+v %v", i/2, op, arg, l, g, gok, w, want.polled)
			}
			// Series only grow: each entry is compared as it appears, and
			// all of them once more at the end.
			checkSeries(t, got, want, l, seen[li], "op", i/2, op, arg)
			seen[li] = len(want.series[l])
		}
	}
	for li := range seen {
		checkSeries(t, got, want, topology.LinkID(li), 0, "end", len(ops)/2, 0, 0)
	}
	return mix
}

// checkSeries requires link l's series to have the eager length and to
// match it from entry from on.
func checkSeries(t *testing.T, got *Collector, want *eagerCollector, l topology.LinkID, from int, at string, i int, op byte, arg int) {
	t.Helper()
	gs, ws := got.Series(l), want.series[l]
	if len(gs) != len(ws) {
		t.Fatalf("%s %d (%d %d): link %d series of %d, eager %d", at, i, op, arg, l, len(gs), len(ws))
	}
	for k := from; k < len(gs); k++ {
		if gs[k] != ws[k] {
			t.Fatalf("%s %d (%d %d): link %d series[%d] %+v, eager %+v", at, i, op, arg, l, k, gs[k], ws[k])
		}
	}
}

// FuzzCollectorDifferential holds the Collector, which derives quiet and
// disabled links' readings on read, to the eager poll that reads every
// link, bit for bit, under random faults, repairs, disables, watches and
// polls — including reads between a mutation and the next poll, which must
// still see the last poll's snapshot.
func FuzzCollectorDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for fabric := 0; fabric < numFabrics; fabric++ {
		ops := make([]byte, 1+2*150)
		ops[0] = byte(fabric)
		rng.Read(ops[1:])
		f.Add(ops)
	}
	// Fault a quiet link after a poll, read, poll again; then disable it,
	// watch it and poll.
	f.Add([]byte{fabricQuiet, 9, 0, 0, 3, 9, 1, 6, 3, 9, 2, 7, 3, 9, 3})
	// Watch a link two quiet polls in, then fault it.
	f.Add([]byte{fabricQuiet, 9, 0, 9, 1, 7, 3, 9, 2, 0, 3, 9, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		runDifferential(t, int(ops[0])%numFabrics, ops[1:])
	})
}

// TestCollectorMatchesEagerLong runs the differential over about 3,000
// polls per fabric, and checks that the run put links in every status the
// fabric allows.
func TestCollectorMatchesEagerLong(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential")
	}
	rng := rand.New(rand.NewSource(2))
	for fabric := 0; fabric < numFabrics; fabric++ {
		ops := make([]byte, 2*6000)
		rng.Read(ops)
		mix := runDifferential(t, fabric, ops)
		t.Logf("fabric %d: link-polls off %d, quiet %d, walked %d", fabric, mix[off], mix[quiet], mix[walked])
		if mix[off] == 0 || mix[walked] == 0 || (mix[quiet] == 0) != (fabric == fabricTraffic) {
			t.Errorf("fabric %d: link-polls off %d, quiet %d, walked %d", fabric, mix[off], mix[quiet], mix[walked])
		}
	}
}
