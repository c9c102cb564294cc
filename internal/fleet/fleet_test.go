package fleet

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"corropt/internal/core"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// testFleetTopos builds a small heterogeneous fleet: three Clos shapes, the
// first two sharing one *Topology to exercise the partition cache.
func testFleetTopos(t testing.TB) []DCN {
	shared, err := topology.NewClos(topology.ClosConfig{
		Pods: 3, ToRsPerPod: 4, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 2, BreakoutSize: 2,
	})
	if err != nil {
		t.Fatalf("NewClos: %v", err)
	}
	other, err := topology.NewClos(topology.ClosConfig{
		Pods: 4, ToRsPerPod: 3, AggsPerPod: 3, Spines: 6, SpineUplinksPerAgg: 3, BreakoutSize: 0,
	})
	if err != nil {
		t.Fatalf("NewClos: %v", err)
	}
	return []DCN{
		{Name: "east", Topo: shared},
		{Name: "west", Topo: shared},
		{Name: "north", Topo: other},
	}
}

// synthesizeEvents generates a deterministic corruption/repair stream over
// the fleet: monotonically increasing times, repairs drawn from the set of
// previously corrupted links, rates straddling the detection threshold.
func synthesizeEvents(dcns []DCN, seed uint64, n int) []Event {
	rng := rngutil.New(seed).Split("fleet-events")
	type key struct {
		dcn  int
		link topology.LinkID
	}
	var down []key
	evs := make([]Event, 0, n)
	at := time.Duration(0)
	for len(evs) < n {
		at += time.Duration(rng.Intn(900)+100) * time.Millisecond
		if len(down) > 0 && rng.Bool(0.45) {
			i := rng.Intn(len(down))
			k := down[i]
			down[i] = down[len(down)-1]
			down = down[:len(down)-1]
			evs = append(evs, Event{At: at, DCN: k.dcn, Link: k.link, Kind: Repair})
			continue
		}
		dcn := rng.Intn(len(dcns))
		link := topology.LinkID(rng.Intn(dcns[dcn].Topo.NumLinks()))
		rate := 1e-6 * rng.Range(0.2, 50)
		evs = append(evs, Event{At: at, DCN: dcn, Link: link, Kind: Corruption, Rate: rate})
		down = append(down, key{dcn, link})
	}
	return evs
}

func runFleet(t testing.TB, dcns []DCN, evs []Event, workers, batch int) (*Supervisor, Snapshot) {
	sup, err := New(dcns, Config{Workers: workers, Capacity: 0.5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for lo := 0; lo < len(evs); lo += batch {
		hi := min(lo+batch, len(evs))
		if err := sup.Ingest(evs[lo:hi]); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		if err := sup.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	return sup, sup.Snapshot()
}

// TestFleetMatchesSerial holds the supervisor's parallelism to a serial
// drain: for a fixed event stream, the snapshot — counters, tickets, floats,
// per-DCN rows — is byte-identical for every worker count and flush
// batching. TestFleetMatchesWholeDCNLoop holds the shards themselves to one
// loop per DCN.
func TestFleetMatchesSerial(t *testing.T) {
	dcns := testFleetTopos(t)
	evs := synthesizeEvents(dcns, 42, 4000)

	_, ref := runFleet(t, dcns, evs, 1, len(evs))
	if ref.Disabled == 0 || ref.Blocked == 0 || ref.ReoptDisabled == 0 || ref.Cleared == 0 {
		t.Fatalf("stream does not exercise all decision paths: %+v", ref)
	}
	refStr := ref.String()

	for _, tc := range []struct{ workers, batch int }{
		{1, 64},   // serial drain, small batches
		{8, 512},  // 8 workers
		{3, 4000}, // one flush
		{2, 1000},
		{4, 64},
	} {
		_, got := runFleet(t, dcns, evs, tc.workers, tc.batch)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d batch=%d: snapshot diverged\n got: %+v\nwant: %+v",
				tc.workers, tc.batch, got, ref)
		}
		if s := got.String(); s != refStr {
			t.Errorf("workers=%d batch=%d: rendering diverged\n got:\n%s\nwant:\n%s",
				tc.workers, tc.batch, s, refStr)
		}
	}
}

// wholeDCNLoop steps one core.RepairLoop over topo's whole topology — the
// loop sim and corroptd run — through evs, the events of one DCN, and
// tallies each outcome the way the supervisor counts them.
func wholeDCNLoop(t testing.TB, topo *topology.Topology, capacity float64, evs []Event) (*core.Network, *core.RepairLoop, DCNStat) {
	t.Helper()
	net, err := core.NewNetwork(topo, capacity)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewPolicyEngine(net, core.PolicyCorrOpt, core.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	loop, err := core.NewRepairLoop(eng, core.RepairConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st DCNStat
	for i, ev := range evs {
		d, step, err := loop.Step(core.Input{At: ev.At, Link: ev.Link, Kind: ev.Kind, Rate: ev.Rate})
		if err != nil {
			t.Fatalf("event %d %+v: %v", i, ev, err)
		}
		switch {
		case ev.Kind == Repair:
			st.Repairs++
			st.ReoptDisabled += len(step.Opened)
			if step.Resolution == core.Cleared {
				st.Cleared++
			}
		case d.Outcome == core.OutcomeDisabled:
			st.Corruptions++
			st.Disabled++
		case d.Outcome == core.OutcomeBlocked:
			st.Corruptions++
			st.Blocked++
		default:
			st.Corruptions++
		}
	}
	st.DisabledNow = net.NumDisabled()
	return net, loop, st
}

// linksOf lists a link set's members, ascending.
func linksOf(set topology.LinkSetView) []topology.LinkID {
	var out []topology.LinkID
	set.Each(func(l topology.LinkID) { out = append(out, l) })
	return out
}

// TestFleetMatchesWholeDCNLoop is the shards' differential: for each DCN of
// a replayed stream, the links the fleet has down, its decision tallies and
// its ticket counts equal those of one RepairLoop stepped over the DCN's
// whole topology with the DCN's events.
func TestFleetMatchesWholeDCNLoop(t *testing.T) {
	dcns := testFleetTopos(t)
	var reopt, cleared int
	for _, seed := range []uint64{42, 7, 1, 2, 3, 4, 5} {
		evs := synthesizeEvents(dcns, seed, 4000)
		sup, snap := runFleet(t, dcns, evs, 4, 700)
		for i, d := range dcns {
			var own []Event
			for _, ev := range evs {
				if ev.DCN == i {
					own = append(own, ev)
				}
			}
			net, loop, want := wholeDCNLoop(t, d.Topo, 0.5, own)
			if got := sup.Disabled(i); !slices.Equal(got, linksOf(net.DisabledLinks())) {
				t.Errorf("seed %d DCN %s: fleet has %v down, whole-DCN loop %v", seed, d.Name, got, linksOf(net.DisabledLinks()))
			}
			got := snap.PerDCN[i]
			got.Name, got.Links, got.Segments, got.ToRs, got.Penalty = "", 0, 0, 0, 0
			if got != want {
				t.Errorf("seed %d DCN %s: fleet tallies %+v, whole-DCN loop %+v", seed, d.Name, got, want)
			}
			var tickets core.TicketStats
			for _, sh := range sup.shards[sup.dcnShards[i][0]:sup.dcnShards[i][1]] {
				ts := sh.loop.TicketStats()
				tickets.Resolved += ts.Resolved
				tickets.Open += ts.Open
			}
			if ws := loop.TicketStats(); tickets.Resolved != ws.Resolved || tickets.Open != ws.Open {
				t.Errorf("seed %d DCN %s: fleet tickets %d resolved, %d open; whole-DCN loop %d, %d",
					seed, d.Name, tickets.Resolved, tickets.Open, ws.Resolved, ws.Open)
			}
			reopt += want.ReoptDisabled
			cleared += want.Cleared
		}
	}
	if reopt == 0 || cleared == 0 {
		t.Fatalf("streams re-optimized %d links and cleared %d: a decision path is not exercised", reopt, cleared)
	}
}

// TestFleetInvariants replays a stream and then checks the supervisor's
// cross-segment invariants against independent recomputation: the penalty
// sum against a from-scratch walk over the reported disabled/rate state —
// exactly, per DCN, since the supervisor sums it at read time too — and the
// capacity constraint against a fresh full-topology path counter per DCN.
func TestFleetInvariants(t *testing.T) {
	dcns := testFleetTopos(t)
	evs := synthesizeEvents(dcns, 7, 3000)
	sup, snap := runFleet(t, dcns, evs, 4, 700)

	// Shadow state from the event stream: last reported rate per link.
	rates := make([]map[topology.LinkID]float64, len(dcns))
	for i := range rates {
		rates[i] = make(map[topology.LinkID]float64)
	}
	for _, ev := range evs {
		if ev.Kind == Corruption {
			rates[ev.DCN][ev.Link] = ev.Rate
		} else {
			rates[ev.DCN][ev.Link] = 0
		}
	}

	const capacity = 0.5
	wantPenalty := 0.0
	totalDown := 0
	for i, d := range dcns {
		down := sup.Disabled(i)
		totalDown += len(down)
		isDown := make(map[topology.LinkID]bool, len(down))
		for _, l := range down {
			isDown[l] = true
		}
		// Penalty: corrupting links still enabled, summed per segment (a
		// Clos shard's unit) in ascending link order, segments added in
		// partition order.
		dcnPenalty := 0.0
		for _, seg := range d.Topo.Partition() {
			links := slices.Clone(seg.Links)
			slices.Sort(links)
			segPenalty := 0.0
			for _, l := range links {
				if r := rates[i][l]; r > 0 && !isDown[l] {
					segPenalty += r // LinearPenalty
				}
			}
			dcnPenalty += segPenalty
		}
		if got := snap.PerDCN[i].Penalty; got != dcnPenalty {
			t.Errorf("DCN %s penalty %.17g, from-scratch walk %.17g", d.Name, got, dcnPenalty)
		}
		wantPenalty += dcnPenalty
		// Capacity: every ToR keeps >= capacity of its paths on a fresh
		// full-topology counter with the fleet's disabled set applied.
		set := topology.NewLinkSet(d.Topo.NumLinks())
		for _, l := range down {
			set.Add(l)
		}
		pc := topology.NewPathCounter(d.Topo)
		counts := pc.Count(set.Func())
		total := pc.Total()
		for _, tor := range d.Topo.ToRs() {
			frac := 1.0
			if total[tor] > 0 {
				frac = float64(counts[tor]) / float64(total[tor])
			}
			if frac+1e-9 < capacity {
				t.Errorf("DCN %s ToR %d at %.4f < %.2f: fleet violated the capacity constraint",
					d.Name, tor, frac, capacity)
			}
		}
	}
	if snap.DisabledNow != totalDown {
		t.Errorf("snapshot reports %d links down, Disabled() lists %d", snap.DisabledNow, totalDown)
	}
	if wantPenalty == 0 || snap.PenaltySum != wantPenalty {
		t.Errorf("penalty sum %.17g, reference %.17g", snap.PenaltySum, wantPenalty)
	}
	if snap.ViolatedToRs != 0 {
		t.Errorf("%d ToRs violated; the controller must never violate capacity", snap.ViolatedToRs)
	}
	if snap.TicketsOpened != snap.Disabled+snap.ReoptDisabled {
		t.Errorf("tickets opened %d != disables %d", snap.TicketsOpened, snap.Disabled+snap.ReoptDisabled)
	}
	if snap.TicketsOpen != snap.TicketsOpened-snap.TicketsResolved {
		t.Errorf("open tickets inconsistent: %+v", snap)
	}
}

// TestFleetRouteErrors pins input validation.
func TestFleetRouteErrors(t *testing.T) {
	dcns := testFleetTopos(t)
	sup, err := New(dcns, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, ev := range []Event{
		{DCN: -1, Link: 0, Kind: Corruption, Rate: 1e-5},
		{DCN: 3, Link: 0, Kind: Corruption, Rate: 1e-5},
		{DCN: 0, Link: -1, Kind: Corruption, Rate: 1e-5},
		{DCN: 0, Link: topology.LinkID(dcns[0].Topo.NumLinks()), Kind: Corruption, Rate: 1e-5},
		{DCN: 0, Link: 0, Kind: EventKind(9), Rate: 1e-5},
		{DCN: 0, Link: 0, Kind: core.InputRelease}, // core's, but no fleet event
		{DCN: 0, Link: 0, Kind: Corruption, Rate: -1},
		{DCN: 0, Link: 0, Kind: Corruption, Rate: 2},
		{DCN: 0, Link: 0, Kind: Corruption, Rate: math.NaN()},
	} {
		if err := sup.Route(ev); err == nil {
			t.Errorf("Route(%+v) accepted, want error", ev)
		}
	}
	if sup.Pending() != 0 {
		t.Errorf("rejected events left %d pending", sup.Pending())
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Errorf("New(nil) accepted, want error")
	}
	if _, err := New([]DCN{{Name: "x"}}, Config{}); err == nil {
		t.Errorf("New with nil topology accepted, want error")
	}
}

// TestFleetShardPacking checks the cut into shards: one per ToR-bearing
// segment (a Clos has no orphans), never spanning DCNs, covering every link
// exactly once.
func TestFleetShardPacking(t *testing.T) {
	dcns := testFleetTopos(t)
	sup, err := New(dcns, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := len(sup.shards); got != sup.segments {
		t.Errorf("got %d shards, want one per segment (%d)", got, sup.segments)
	}
	for i, d := range dcns {
		lo, hi := sup.dcnShards[i][0], sup.dcnShards[i][1]
		covered := 0
		for _, sh := range sup.shards[lo:hi] {
			if sh.dcn != i {
				t.Fatalf("shard of DCN %d inside DCN %d's range", sh.dcn, i)
			}
			if sh.sub.Topo.NumSegments() != 1 || len(sh.sub.Topo.ToRs()) == 0 {
				t.Errorf("DCN %s: shard with %d segments and %d ToRs, want one segment with ToRs",
					d.Name, sh.sub.Topo.NumSegments(), len(sh.sub.Topo.ToRs()))
			}
			covered += sh.sub.Topo.NumLinks()
		}
		if covered != d.Topo.NumLinks() {
			t.Errorf("DCN %s: shards cover %d links, topology has %d", d.Name, covered, d.Topo.NumLinks())
		}
	}
}

// TestFleetOrphanSegments glues a ToR-less segment onto a neighbor so no
// shard is left without a ToR, and holds the glued unit to the whole-DCN
// loop: a repair re-checks the orphan segment too once something changed
// there. The orphan's failed repair puts it back up, corrupting; the repair
// of the ToR's uplink that follows must take it down again.
func TestFleetOrphanSegments(t *testing.T) {
	b := topology.NewBuilder()
	tor := b.AddSwitch("tor", 0, 0)
	agg1 := b.AddSwitch("agg1", 1, 0)
	agg2 := b.AddSwitch("agg2", 1, 0)
	orphan := b.AddSwitch("orphan-agg", 1, 1)
	spine := b.AddSwitch("spine", 2, -1)
	up := b.AddLink(tor, agg1, -1)
	b.AddLink(tor, agg2, -1)
	b.AddLink(agg1, spine, -1)
	b.AddLink(agg2, spine, -1)
	ol := b.AddLink(orphan, spine, -1)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sup, err := New([]DCN{{Name: "odd", Topo: topo}}, Config{Capacity: 0.5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if len(sup.shards) != 1 {
		t.Fatalf("got %d shards, want 1 (orphan glued to the ToR-bearing unit)", len(sup.shards))
	}
	step := func(ev Event, want ...topology.LinkID) {
		t.Helper()
		if err := sup.Route(ev); err != nil {
			t.Fatalf("Route: %v", err)
		}
		if err := sup.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if got := sup.Disabled(0); !slices.Equal(got, want) {
			t.Fatalf("after %+v: Disabled = %v, want %v", ev, got, want)
		}
	}
	evs := []Event{
		{At: 1 * time.Second, Link: up, Kind: Corruption, Rate: 1e-3},
		// No ToR depends on the orphan link: it goes.
		{At: 2 * time.Second, Link: ol, Kind: Corruption, Rate: 1e-3},
		{At: 3 * time.Second, Link: ol, Kind: Repair, Rate: 1e-3}, // failed: back up
		{At: 4 * time.Second, Link: up, Kind: Repair},
	}
	step(evs[0], up)
	step(evs[1], up, ol)
	step(evs[2], up)
	step(evs[3], ol)
	net, _, _ := wholeDCNLoop(t, topo, 0.5, evs)
	if want := linksOf(net.DisabledLinks()); !slices.Equal(want, []topology.LinkID{ol}) {
		t.Fatalf("whole-DCN loop ends with %v down, want [%d]", want, ol)
	}
}
