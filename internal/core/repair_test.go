package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"corropt/internal/faults"
	"corropt/internal/tickets"
	"corropt/internal/topology"
)

// repairRates are the rates FuzzRepairLoop reports: clean, under the
// default detection threshold, at it, and well over it.
var repairRates = []float64{0, 5e-7, DefaultDetectionThreshold, 1e-4, 1e-2}

// repairActions are the actions FuzzRepairLoop resolves with.
var repairActions = []faults.RepairAction{
	faults.ActionUnknown, faults.ActionCleanFiber, faults.ActionReseatTransceiver,
	faults.ActionReplaceTransceiver, faults.ActionReplaceFiber,
}

// FuzzRepairLoop drives a RepairLoop over a small breakout Clos with random
// report, repaired and release inputs, under every combination of drain
// mode, breakout collateral and flap dampening, and after every step checks
// the loop against the tickets its steps returned: every link the engine
// disabled has exactly one open ticket, the queue's open count is the number
// of such links, every disabled link is ticketed, held as collateral (with a
// sibling under repair) or held by dampening (exactly one of the three), and
// opened = resolved + open. Then it replays the recorded inputs on a fresh
// loop, which must step exactly as the first did.
//
// down's bit i disables link i before the loop is built: a restored state,
// which the loop adopts. Each op is two bytes: b selects the input — b%4:
// report, repaired, release, or let a day pass — and its rate, action and
// outcome; a picks the link, among the open tickets unless a ≥ 0x80.
func FuzzRepairLoop(f *testing.F) {
	// Breakout siblings under repair at once; fixed, failed and re-failed
	// repairs (with a reseat), so drain mode re-tickets and collateral holds
	// overlap.
	f.Add(uint16(0), []byte{16, 0, 16, 5, 16, 9, 16, 14, 9, 0, 0x21, 0, 0x01, 0, 3, 0, 0x21, 0, 0x21, 1, 0x21, 0, 0x21, 0})
	// Two detections of one link inside the dampening window, then a fixed
	// repair: the link is held, and released clean; then the same with a
	// release that finds the link corrupting again.
	f.Add(uint16(0), []byte{16, 4, 0x01, 0, 16, 4, 0x21, 0, 2, 0, 16, 6, 0x01, 0, 16, 6, 0x21, 0, 18, 0, 0x21, 0})
	// A report storm: every link over the threshold, then repairs freeing
	// capacity for the links the constraint blocked.
	f.Add(uint16(0), []byte{16, 0, 16, 1, 16, 2, 16, 3, 16, 4, 16, 5, 16, 6, 16, 7, 16, 8, 16, 9, 16, 10, 16, 11,
		0x21, 0, 0x21, 0, 0x25, 0, 0x21, 0, 0x21, 0})
	// A restored state — a ToR uplink and two breakout links down, their
	// siblings up — adopted: reports on them, repaired inputs for an up link
	// (cleared) and for collateral holds (rejected), then the adopted
	// tickets resolved, fixed and failed.
	f.Add(uint16(1<<0|1<<4|1<<10), []byte{16, 0, 16, 5, 0x21, 0x85, 0x21, 0x95, 0x01, 0x83,
		0x21, 0, 0x01, 0, 3, 0, 0x21, 0, 0x21, 0, 0x21, 0})
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 4, BreakoutSize: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, down uint16, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		for mask := range 8 {
			cfg := RepairConfig{DrainMode: mask&1 != 0, RepairCollateral: mask&2 != 0}
			if mask&4 != 0 {
				cfg.Dampening = &DampeningConfig{Window: 12 * time.Hour, Flaps: 2, Holddown: 24 * time.Hour}
			}
			inputs, steps := runRepairLoop(t, topo, cfg, down, ops)
			loop := newFuzzLoop(t, topo, cfg, down)
			for i, in := range inputs {
				if got := stepOf(loop.Step(in)); !reflect.DeepEqual(got, steps[i]) {
					t.Fatalf("cfg %+v: input %d %+v replays as %+v, first run %+v", cfg, i, in, got, steps[i])
				}
			}
		}
	})
}

// stepResult is what one Step returned, with the opened tickets reduced to
// their links and done times, so two loops' steps compare by value.
type stepResult struct {
	Outcome    Outcome
	Resolution Resolution
	Until      time.Duration
	Opened     [][2]int64
	Failed     bool
}

func stepOf(d Decision, step RepairStep, err error) stepResult {
	r := stepResult{Outcome: d.Outcome, Resolution: step.Resolution, Until: step.Until, Failed: err != nil}
	for _, o := range step.Opened {
		r.Opened = append(r.Opened, [2]int64{int64(o.Ticket.Link), int64(o.Done)})
	}
	return r
}

// newFuzzLoop builds FuzzRepairLoop's loop under cfg over a network with
// down's links disabled.
func newFuzzLoop(t *testing.T, topo *topology.Topology, cfg RepairConfig, down uint16) *RepairLoop {
	net, err := NewNetwork(topo, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for l := range topology.LinkID(min(16, topo.NumLinks())) {
		if down&(1<<l) != 0 {
			net.Disable(l)
		}
	}
	eng := NewEngine(net, EngineConfig{})
	diagnose := func(l topology.LinkID, reseated bool) (Diagnostics, bool) {
		return Diagnostics{Link: l, HasOptics: l%3 != 0, NeighborCorrupting: l%7 == 0, RecentlyReseated: reseated}, l%5 != 0
	}
	loop, err := NewRepairLoop(eng, cfg, diagnose)
	if err != nil {
		t.Fatal(err)
	}
	return loop
}

// runRepairLoop runs ops on a fresh loop, checking it after every step, and
// returns the inputs it stepped and what each step returned.
func runRepairLoop(t *testing.T, topo *topology.Topology, cfg RepairConfig, down uint16, ops []byte) ([]Input, []stepResult) {
	loop := newFuzzLoop(t, topo, cfg, down)
	net := loop.net
	open := make(map[topology.LinkID]*tickets.Ticket) // from the steps' returns
	held := make(map[topology.LinkID]time.Duration)
	opened, resolved := 0, 0
	now := time.Duration(0)
	book := func(step int, os []Opened) {
		for _, o := range os {
			l := o.Ticket.Link
			if open[l] != nil {
				t.Fatalf("cfg %+v step %d: second open ticket for link %d", cfg, step, l)
			}
			if o.Done < now {
				t.Fatalf("cfg %+v step %d: ticket for link %d done at %v, before now %v", cfg, step, l, o.Done, now)
			}
			open[l] = o.Ticket
			opened++
		}
	}
	// Reset adopted every restored down link that is not a collateral hold.
	for l := range topology.LinkID(topo.NumLinks()) {
		if net.Disabled(l) && !loop.Collateral(l) {
			if open[l] = loop.queue.OpenTicket(l); open[l] == nil {
				t.Fatalf("cfg %+v: restored down link %d has no ticket", cfg, l)
			}
			opened++
		}
	}
	checkRepairLoop(t, cfg, -1, loop, open, held, opened, resolved)
	var inputs []Input
	var steps []stepResult
	do := func(in Input) (Decision, RepairStep, error) {
		d, step, err := loop.Step(in)
		inputs, steps = append(inputs, in), append(steps, stepOf(d, step, err))
		return d, step, err
	}
	for i := 0; i+1 < len(ops); i += 2 {
		b, a := ops[i], int(ops[i+1])
		now += time.Hour
		switch b % 4 {
		case 0:
			l := topology.LinkID(a % topo.NumLinks())
			d, step, err := do(Input{At: now, Link: l, Kind: InputReport, Rate: repairRates[int(b/4)%len(repairRates)]})
			if err != nil || d.Outcome == OutcomeDisabled && (len(step.Opened) != 1 || step.Opened[0].Ticket.Link != l) {
				t.Fatalf("cfg %+v step %d: report disabled link %d and opened %d tickets (%v)", cfg, i, l, len(step.Opened), err)
			}
			book(i, step.Opened)
		case 1:
			var l topology.LinkID
			switch {
			case a >= 0x80:
				l = topology.LinkID(a % topo.NumLinks())
			case len(open) == 0:
				continue
			default:
				l = sortedLinks(open)[a%len(open)]
			}
			ok := b&0x20 != 0
			rate := 1e-4 // a failed repair leaves the link corrupting
			if ok {
				rate = 0
			}
			wasDown := net.Disabled(l)
			_, step, err := do(Input{At: now, Link: l, Kind: InputRepaired, Rate: rate, Action: repairActions[int(b/4)%len(repairActions)]})
			switch {
			case open[l] == nil && !wasDown:
				if err != nil || step.Resolution != Cleared || len(step.Opened) != 0 || net.Disabled(l) || net.CorruptionRate(l) != rate {
					t.Fatalf("cfg %+v step %d: repaired up link %d: %+v, %v", cfg, i, l, step, err)
				}
				continue
			case open[l] == nil:
				if err == nil || !net.Disabled(l) {
					t.Fatalf("cfg %+v step %d: repaired unticketed down link %d: %+v, %v", cfg, i, l, step, err)
				}
				continue
			case err != nil:
				t.Fatalf("cfg %+v step %d: %v", cfg, i, err)
			}
			delete(open, l)
			resolved++
			switch step.Resolution {
			case Held:
				if cfg.Dampening == nil || step.Until <= now || !net.Disabled(l) {
					t.Fatalf("cfg %+v step %d: link %d held until %v at %v", cfg, i, l, step.Until, now)
				}
				held[l] = step.Until
			case Reenabled:
				if ok || cfg.DrainMode || net.Disabled(l) {
					t.Fatalf("cfg %+v step %d: link %d re-enabled after ok=%v", cfg, i, l, ok)
				}
			case Reticketed:
				if ok || !cfg.DrainMode {
					t.Fatalf("cfg %+v step %d: link %d re-ticketed after ok=%v", cfg, i, l, ok)
				}
			case Cleared:
				t.Fatalf("cfg %+v step %d: ticketed link %d cleared", cfg, i, l)
			}
			book(i, step.Opened)
		case 2:
			if len(held) == 0 {
				continue
			}
			l := sortedLinks(held)[a%len(held)]
			now = max(now, held[l])
			delete(held, l)
			_, step, err := do(Input{At: now, Link: l, Kind: InputRelease, Rate: repairRates[int(b/4)%len(repairRates)]})
			if err != nil {
				t.Fatalf("cfg %+v step %d: %v", cfg, i, err)
			}
			book(i, step.Opened)
		case 3:
			now += 24 * time.Hour
		}
		checkRepairLoop(t, cfg, i, loop, open, held, opened, resolved)
	}
	if _, _, err := loop.Step(Input{At: now, Kind: InputRelease + 1}); err == nil {
		t.Fatalf("cfg %+v: an input of unknown kind was accepted", cfg)
	}
	checkRepairLoop(t, cfg, len(ops), loop, open, held, opened, resolved)
	return inputs, steps
}

// sortedLinks returns m's links in ascending order.
func sortedLinks[V any](m map[topology.LinkID]V) []topology.LinkID {
	ls := make([]topology.LinkID, 0, len(m))
	for l := range m {
		ls = append(ls, l)
	}
	slices.Sort(ls)
	return ls
}

// checkRepairLoop holds the loop's state to the harness's record of the
// tickets its calls returned and the holds they announced.
func checkRepairLoop(t *testing.T, cfg RepairConfig, step int, loop *RepairLoop,
	open map[topology.LinkID]*tickets.Ticket, held map[topology.LinkID]time.Duration, opened, resolved int) {
	t.Helper()
	for l, tk := range open {
		if tk.Link != l || tk.Status != tickets.InRepair || loop.queue.OpenTicket(l) != tk {
			t.Fatalf("cfg %+v step %d: link %d's ticket %+v is not the loop's open ticket", cfg, step, l, tk)
		}
	}
	if n := loop.queue.OpenCount(); n != len(open) {
		t.Fatalf("cfg %+v step %d: queue has %d open tickets, calls returned %d", cfg, step, n, len(open))
	}
	net := loop.net
	for l := range topology.LinkID(net.Topology().NumLinks()) {
		_, isHeld := held[l]
		holds := 0
		for _, h := range []bool{open[l] != nil, loop.Collateral(l), isHeld} {
			if h {
				holds++
			}
		}
		if net.Disabled(l) && holds != 1 || !net.Disabled(l) && holds != 0 || (loop.queue.OpenTicket(l) != nil) != (open[l] != nil) {
			t.Fatalf("cfg %+v step %d: link %d disabled=%v, ticketed=%v, collateral=%v, held=%v",
				cfg, step, l, net.Disabled(l), open[l] != nil, loop.Collateral(l), isHeld)
		}
		if loop.Collateral(l) && !slices.ContainsFunc(net.Topology().SameBreakout(l), func(sib topology.LinkID) bool { return open[sib] != nil }) {
			t.Fatalf("cfg %+v step %d: link %d held as collateral with no sibling under repair", cfg, step, l)
		}
	}
	ts := loop.TicketStats()
	if ts.Resolved != resolved || ts.Open != len(open) || opened != resolved+len(open) {
		t.Fatalf("cfg %+v step %d: stats %+v, calls opened %d and resolved %d with %d open", cfg, step, ts, opened, resolved, len(open))
	}
}
