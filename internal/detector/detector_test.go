package detector

import (
	"errors"
	"strings"
	"testing"
	"time"

	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/snmplite"
	"corropt/internal/telemetry"
	"corropt/internal/topology"
)

// fakeSource serves scripted readings.
type fakeSource struct {
	readings map[topology.LinkID]Reading
	err      error
}

func (f *fakeSource) Read(l topology.LinkID) (Reading, error) {
	if f.err != nil {
		return Reading{}, f.err
	}
	return f.readings[l], nil
}

func (f *fakeSource) set(l topology.LinkID, packets, errs uint64) {
	r := f.readings[l]
	r.Link = l
	r.Packets[0] += packets
	r.Errors[0] += errs
	f.readings[l] = r
}

func TestDetectorTransitions(t *testing.T) {
	src := &fakeSource{readings: make(map[topology.LinkID]Reading)}
	d, err := New(src, []topology.LinkID{1}, Config{Threshold: 1e-3})
	if err != nil {
		t.Fatal(err)
	}

	// First poll: baseline only.
	src.set(1, 1e6, 0)
	ev, err := d.Poll()
	if err != nil || len(ev) != 0 {
		t.Fatalf("baseline poll: %v %v", ev, err)
	}

	// Healthy interval: no event.
	src.set(1, 1e6, 10) // rate 1e-5 < 1e-3
	if ev, _ = d.Poll(); len(ev) != 0 {
		t.Fatalf("healthy interval raised %v", ev)
	}

	// Corruption starts.
	src.set(1, 1e6, 5000) // rate 5e-3
	ev, _ = d.Poll()
	if len(ev) != 1 || !ev[0].Corrupting || ev[0].Link != 1 {
		t.Fatalf("corruption not detected: %v", ev)
	}
	if ev[0].Rate < 4e-3 || ev[0].Rate > 6e-3 {
		t.Fatalf("rate = %v", ev[0].Rate)
	}
	if !d.Flagged(1) {
		t.Fatal("state not flagged")
	}

	// Still corrupting: no duplicate event.
	src.set(1, 1e6, 5000)
	if ev, _ = d.Poll(); len(ev) != 0 {
		t.Fatalf("duplicate event: %v", ev)
	}

	// Hysteresis: a rate just below the threshold does NOT clear.
	src.set(1, 1e6, 500) // 5e-4, above 1e-3*0.1
	if ev, _ = d.Poll(); len(ev) != 0 {
		t.Fatalf("flapping link cleared prematurely: %v", ev)
	}
	if !d.Flagged(1) {
		t.Fatal("hysteresis lost the flag")
	}

	// True recovery.
	src.set(1, 1e6, 0)
	ev, _ = d.Poll()
	if len(ev) != 1 || ev[0].Corrupting {
		t.Fatalf("recovery not reported: %v", ev)
	}
	if d.Flagged(1) {
		t.Fatal("flag not cleared")
	}
}

func TestDetectorCounterReset(t *testing.T) {
	src := &fakeSource{readings: make(map[topology.LinkID]Reading)}
	d, err := New(src, []topology.LinkID{1}, Config{Threshold: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	src.set(1, 1e6, 100)
	d.Poll()
	// Switch reboot: counters go backwards. No bogus event.
	src.readings[1] = Reading{Link: 1, Packets: [2]uint64{500, 0}, Errors: [2]uint64{5, 0}}
	if ev, _ := d.Poll(); len(ev) != 0 {
		t.Fatalf("counter reset produced events: %v", ev)
	}
	// Normal operation resumes from the new baseline.
	src.set(1, 1e6, 5000)
	if ev, _ := d.Poll(); len(ev) != 1 || !ev[0].Corrupting {
		t.Fatalf("post-reset detection broken: %v", ev)
	}
}

func TestDetectorLowTrafficSkipped(t *testing.T) {
	src := &fakeSource{readings: make(map[topology.LinkID]Reading)}
	d, err := New(src, []topology.LinkID{1}, Config{Threshold: 1e-3, MinPackets: 1000})
	if err != nil {
		t.Fatal(err)
	}
	src.set(1, 100, 0)
	d.Poll()
	// 50 packets, 10 errors: 20% — but the sample is too thin to trust.
	src.set(1, 50, 10)
	if ev, _ := d.Poll(); len(ev) != 0 {
		t.Fatalf("thin sample raised events: %v", ev)
	}
}

func TestDetectorSourceError(t *testing.T) {
	src := &fakeSource{readings: make(map[topology.LinkID]Reading), err: errors.New("boom")}
	d, err := New(src, []topology.LinkID{1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Poll(); err == nil {
		t.Fatal("source error swallowed")
	}
	if _, err := New(nil, nil, Config{}); err == nil {
		t.Fatal("nil source accepted")
	}
}

// TestFailedSweepConsumesNothing: a sweep that dies on its third link must
// not keep the transitions of the first two or move their baselines — the
// caller got an error and no events — so the retry raises all of them, once.
func TestFailedSweepConsumesNothing(t *testing.T) {
	src := &fakeSource{readings: make(map[topology.LinkID]Reading)}
	failing := false
	flaky := SourceFunc(func(l topology.LinkID) (Reading, error) {
		if failing && l == 3 {
			return Reading{}, errors.New("boom")
		}
		return src.Read(l)
	})
	links := []topology.LinkID{1, 2, 3, 4}
	d, err := New(flaky, links, Config{Threshold: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range links {
		src.set(l, 1e6, 0)
	}
	if ev, err := d.Poll(); err != nil || len(ev) != 0 {
		t.Fatalf("baseline poll: %v %v", ev, err)
	}

	for _, l := range []topology.LinkID{1, 2, 4} {
		src.set(l, 1e6, 5000)
	}
	failing = true
	ev, err := d.Poll()
	if ev != nil || err == nil || !strings.Contains(err.Error(), "detector: link 3: boom") {
		t.Fatalf("failed sweep returned %v, %v; want no events and an error naming link 3", ev, err)
	}
	for _, l := range links {
		if d.Flagged(l) {
			t.Fatalf("failed sweep flagged link %d", l)
		}
	}

	failing = false
	ev, err = d.Poll()
	if err != nil || len(ev) != 3 {
		t.Fatalf("retry sweep returned %v, %v; want links 1, 2 and 4 raised", ev, err)
	}
	for i, l := range []topology.LinkID{1, 2, 4} {
		if ev[i].Link != l || !ev[i].Corrupting || ev[i].Rate != 5e-3 {
			t.Fatalf("retry sweep event %d = %+v; want link %d corrupting at 5e-3", i, ev[i], l)
		}
	}
	if ev, err = d.Poll(); err != nil || len(ev) != 0 {
		t.Fatalf("sweep after the retry returned %v, %v; want nothing new", ev, err)
	}
}

// TestDetectorOverSNMP runs the detection pipeline over a real UDP socket:
// ground truth → telemetry → snmplite server → SNMPSource → detector.
func TestDetectorOverSNMP(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2, SpineUplinksPerAgg: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tech := optics.Technology{Name: "t", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
	st := faults.NewState(topo, tech)
	col := telemetry.NewCollector(st, nil, nil, telemetry.Config{Seed: 3})
	srv, err := snmplite.NewServer("127.0.0.1:0", snmplite.CollectorProvider(col, topo.NumLinks()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	src, closeSrc, err := SNMPSource(srv.Addr().String(), time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSrc()

	var links []topology.LinkID
	for l := 0; l < topo.NumLinks(); l++ {
		links = append(links, topology.LinkID(l))
	}
	d, err := New(src, links, Config{Threshold: 1e-4})
	if err != nil {
		t.Fatal(err)
	}

	col.Poll(0)
	if _, err := d.Poll(); err != nil {
		t.Fatal(err)
	}
	// Healthy interval.
	col.Poll(15 * time.Minute)
	if ev, err := d.Poll(); err != nil || len(ev) != 0 {
		t.Fatalf("healthy: %v %v", ev, err)
	}
	// A fault strikes; the next counter interval shows it.
	st.Apply(&faults.Fault{ID: 1, Cause: faults.BadTransceiver,
		Effects: []faults.LinkEffect{{Link: 2, DirectRate: [2]float64{0.01, 0}}}})
	col.Poll(30 * time.Minute)
	ev, err := d.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Link != 2 || !ev[0].Corrupting {
		t.Fatalf("events over SNMP: %v", ev)
	}
	// Repair; the detector clears.
	st.Clear(1)
	col.Poll(45 * time.Minute)
	ev, err = d.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Corrupting {
		t.Fatalf("recovery over SNMP: %v", ev)
	}
}
