package fleet

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

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

func runFleet(t testing.TB, dcns []DCN, evs []Event, shards, workers, batch int) (*Supervisor, Snapshot) {
	sup, err := New(dcns, Config{Shards: shards, Workers: workers, Capacity: 0.5})
	if err != nil {
		t.Fatalf("New(shards=%d): %v", shards, err)
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

// TestFleetMatchesSerial is the headline differential: for a fixed event
// stream, the snapshot — counters, tickets, floats, per-DCN rows — is
// byte-identical for every shard count, worker count, and flush batching.
func TestFleetMatchesSerial(t *testing.T) {
	dcns := testFleetTopos(t)
	evs := synthesizeEvents(dcns, 42, 4000)

	_, ref := runFleet(t, dcns, evs, 1, 1, len(evs))
	if ref.Disabled == 0 || ref.Blocked == 0 || ref.ReoptDisabled == 0 || ref.Cleared == 0 {
		t.Fatalf("stream does not exercise all decision paths: %+v", ref)
	}
	refStr := ref.String()

	for _, tc := range []struct{ shards, workers, batch int }{
		{0, 1, 4000},  // one shard per segment, serial drain
		{0, 8, 512},   // max sharding, 8 workers, small batches
		{2, 3, 4000},  // fewer shards than DCNs is clamped to one per DCN
		{5, 2, 1000},  // mid packing
		{1000, 4, 64}, // over-asking degrades to per-segment
	} {
		_, got := runFleet(t, dcns, evs, tc.shards, tc.workers, tc.batch)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("shards=%d workers=%d batch=%d: snapshot diverged\n got: %+v\nwant: %+v",
				tc.shards, tc.workers, tc.batch, got, ref)
		}
		if s := got.String(); s != refStr {
			t.Errorf("shards=%d workers=%d batch=%d: rendering diverged\n got:\n%s\nwant:\n%s",
				tc.shards, tc.workers, tc.batch, s, refStr)
		}
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
	sup, snap := runFleet(t, dcns, evs, 0, 4, 700)

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
		// Penalty: corrupting links still enabled, summed per segment in
		// ascending link order, segments added in partition order.
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
	for _, th := range []float64{-1, math.NaN(), 1.5} {
		if _, err := New(dcns, Config{Threshold: th}); err == nil {
			t.Errorf("New with detection threshold %v accepted, want error", th)
		}
	}
}

// TestFleetShardPacking checks the packing layer directly: shards never
// span DCNs, cover every link exactly once, and respect the target roughly.
func TestFleetShardPacking(t *testing.T) {
	dcns := testFleetTopos(t)
	for _, shards := range []int{0, 1, 3, 5, 7, 100} {
		sup, err := New(dcns, Config{Shards: shards})
		if err != nil {
			t.Fatalf("New(shards=%d): %v", shards, err)
		}
		if shards <= 0 || shards >= sup.segments {
			if got := len(sup.shards); got != sup.segments {
				t.Errorf("shards=%d: got %d shards, want one per segment (%d)", shards, got, sup.segments)
			}
		}
		for i, d := range dcns {
			lo, hi := sup.dcnShards[i][0], sup.dcnShards[i][1]
			covered := 0
			for _, sh := range sup.shards[lo:hi] {
				if sh.dcn != i {
					t.Fatalf("shards=%d: shard of DCN %d inside DCN %d's range", shards, sh.dcn, i)
				}
				covered += sh.sub.Topo.NumLinks()
			}
			if covered != d.Topo.NumLinks() {
				t.Errorf("shards=%d DCN %s: shards cover %d links, topology has %d",
					shards, d.Name, covered, d.Topo.NumLinks())
			}
		}
	}
}

// TestFleetOrphanSegments glues a ToR-less segment onto a neighbor so no
// shard is left without a ToR.
func TestFleetOrphanSegments(t *testing.T) {
	b := topology.NewBuilder()
	tor := b.AddSwitch("tor", 0, 0)
	agg := b.AddSwitch("agg", 1, 0)
	orphan := b.AddSwitch("orphan-agg", 1, 1)
	spine := b.AddSwitch("spine", 2, -1)
	b.AddLink(tor, agg, -1)
	b.AddLink(agg, spine, -1)
	ol := b.AddLink(orphan, spine, -1)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sup, err := New([]DCN{{Name: "odd", Topo: topo}}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if len(sup.shards) != 1 {
		t.Fatalf("got %d shards, want 1 (orphan glued to the ToR-bearing unit)", len(sup.shards))
	}
	// Corrupting the orphan link must disable it (no ToR depends on it).
	if err := sup.Route(Event{At: time.Second, DCN: 0, Link: ol, Kind: Corruption, Rate: 1e-3}); err != nil {
		t.Fatalf("Route: %v", err)
	}
	if err := sup.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := sup.Disabled(0); !slices.Equal(got, []topology.LinkID{ol}) {
		t.Errorf("Disabled = %v, want [%d]", got, ol)
	}
}
