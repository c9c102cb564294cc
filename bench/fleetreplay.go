package main

import (
	"fmt"
	"time"

	"corropt"
	"corropt/internal/faults"
	"corropt/internal/fleet"
	"corropt/internal/rngutil"
	"corropt/internal/tickets"
	"corropt/internal/topology"
)

// fleetWorkload is fleet_replay: a million-link fleet of identical large
// DCNs ingesting a corruption/repair stream in batches. fleet, tickets and
// the per-shard core do all the work; no socket and no sim.
type fleetWorkload struct {
	sz    sizes
	large *corropt.Topology
	dcns  []fleet.DCN
	sup   *fleet.Supervisor
	evs   []fleet.Event
	span  time.Duration // virtual time one pass covers; At shifts by it per pass
	pass  int
	fed   int // passes sup has ingested, its warm-up included

	// afterWarm is the snapshot after the warm-up pass, compared byte for
	// byte with a Workers: 1 supervisor fed the same pass.
	afterWarm string
}

func newFleet(sz sizes, seed uint64, _ bool, out *outcome) (workload, error) {
	start := time.Now()
	large, err := corropt.NewClos(sz.large)
	if err != nil {
		return nil, err
	}
	out.layer("topology.build_large_ms", "ms", float64(time.Since(start))/1e6, 1)

	w := &fleetWorkload{sz: sz, large: large, dcns: make([]fleet.DCN, sz.dcns)}
	for i := range w.dcns {
		w.dcns[i] = fleet.DCN{Topo: large}
	}
	start = time.Now()
	w.sup, err = fleet.New(w.dcns, fleet.Config{})
	if err != nil {
		return nil, err
	}
	out.layer("fleet.new_ms", "ms", float64(time.Since(start))/1e6, 1)

	w.evs = synthesizeEvents(w.dcns, seed, sz.fleetEvents)
	w.span = w.evs[len(w.evs)-1].At + time.Second
	var warm outcome
	if _, err := w.runPass(w.sup, nil, &warm); err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		out.fail("warm-up: %v", warm.notes)
	}
	w.afterWarm = w.sup.Snapshot().String()
	w.fed = 1
	return w, nil
}

// synthesizeEvents draws one pass of the stream: 55 % corruption reports at
// 0.2–50 × 1e-6 on random links, 45 % repairs of a random corrupted link,
// At strictly increasing. The pass ends by repairing every link still
// corrupted, so the fleet is healthy again when it finishes and every pass
// over the same supervisor does the same work.
func synthesizeEvents(dcns []fleet.DCN, seed uint64, n int) []fleet.Event {
	rng := rngutil.New(seed).Split("fleet-replay")
	type key struct {
		dcn  int
		link topology.LinkID
	}
	var down []key
	evs := make([]fleet.Event, 0, n)
	at := time.Duration(0)
	for len(evs) < n {
		at += time.Duration(rng.Intn(900)+100) * time.Millisecond
		drain := len(down) >= n-len(evs)
		if drain || (len(down) > 0 && rng.Bool(0.45)) {
			i := rng.Intn(len(down))
			k := down[i]
			down[i] = down[len(down)-1]
			down = down[:len(down)-1]
			evs = append(evs, fleet.Event{At: at, DCN: k.dcn, Link: k.link, Kind: fleet.Repair})
			continue
		}
		dcn := rng.Intn(len(dcns))
		link := topology.LinkID(rng.Intn(dcns[dcn].Topo.NumLinks()))
		evs = append(evs, fleet.Event{At: at, DCN: dcn, Link: link, Kind: fleet.Corruption, Rate: 1e-6 * rng.Range(0.2, 50)})
		down = append(down, key{dcn, link})
	}
	return evs
}

// passTimes are the timed parts of one pass over the event stream.
type passTimes struct {
	batches        []time.Duration // Ingest+Flush per batch
	ingest, flush  time.Duration
	cpu            time.Duration
	mallocs, bytes uint64
}

func (p passTimes) wall() time.Duration { return p.ingest + p.flush }

// runPass feeds the whole stream to sup in fleetBatch-event Ingest+Flush
// batches and checks that every Flush leaves nothing pending. The stream's
// At values are shifted by one span afterwards (untimed), so the next pass
// continues in virtual time.
func (w *fleetWorkload) runPass(sup *fleet.Supervisor, tr *tracer, out *outcome) (passTimes, error) {
	var pt passTimes
	trace := int64(w.pass)
	var root int32
	if tr != nil {
		root = tr.add(trace, 0, "fleet.pass", now(), 0)
		pt.mallocs, pt.bytes = memCounters()
	}
	cpu0 := cpuTime()
	for lo := 0; lo < len(w.evs); lo += w.sz.fleetBatch {
		batch := w.evs[lo:min(lo+w.sz.fleetBatch, len(w.evs))]
		t0 := now()
		if err := sup.Ingest(batch); err != nil {
			return pt, fmt.Errorf("pass %d: %w", w.pass, err)
		}
		t1 := now()
		if err := sup.Flush(); err != nil {
			return pt, fmt.Errorf("pass %d: %w", w.pass, err)
		}
		t2 := now()
		pt.ingest += time.Duration(t1 - t0)
		pt.flush += time.Duration(t2 - t1)
		pt.batches = append(pt.batches, time.Duration(t2-t0))
		if tr != nil {
			tr.add(trace, root, "fleet.ingest", t0, t1)
			tr.add(trace, root, "fleet.flush", t1, t2)
		}
		out.attempted += len(batch)
		if p := sup.Pending(); p != 0 {
			out.failed += len(batch) - 1 // the whole batch counts as failed
			out.fail("pass %d: %d events pending after Flush", w.pass, p)
		}
	}
	pt.cpu = cpuTime() - cpu0
	if tr != nil {
		m, b := memCounters()
		pt.mallocs, pt.bytes = m-pt.mallocs, b-pt.bytes
		tr.spans[root-1].End = now()
		tr.count(trace, root, "allocs", int64(pt.mallocs))
		tr.count(trace, root, "bytes", int64(pt.bytes))
		tr.count(trace, root, "events", int64(len(w.evs)))
	}
	return pt, nil
}

// shift moves the stream one pass later in virtual time.
func (w *fleetWorkload) shift() {
	w.pass++
	for i := range w.evs {
		w.evs[i].At += w.span
	}
}

// renew replaces the supervisor with a fresh one and warms it with one
// untimed pass. A supervisor keeps every resolved ticket, about 13 MB more
// per pass, and a pass slows as that heap grows (232 ms at 0.5 GB, 333 ms at
// 2 GB on the reference host), so a faster program, fitting more passes into
// the window, would be charged for a bigger heap. Bounding a supervisor's
// life keeps every timed pass in the same regime.
func (w *fleetWorkload) renew(out *outcome) error {
	sup, err := fleet.New(w.dcns, fleet.Config{})
	if err != nil {
		return err
	}
	w.sup, w.fed = sup, 1
	w.shift()
	_, err = w.runPass(sup, nil, out)
	return err
}

func (w *fleetWorkload) window(d time.Duration, tr *tracer, out *outcome) error {
	var passes, batches []time.Duration
	var ingestNs, flushNs, allocs, bytes []float64
	var cpu time.Duration
	n := float64(len(w.evs))
	for start := time.Now(); time.Since(start) < d; {
		if w.fed > w.sz.fleetSupPasses {
			if err := w.renew(out); err != nil {
				return err
			}
		}
		w.shift()
		pt, err := w.runPass(w.sup, tr, out)
		if err != nil {
			return err
		}
		w.fed++
		passes = append(passes, pt.wall())
		batches = append(batches, pt.batches...)
		cpu += pt.cpu
		ingestNs, flushNs = append(ingestNs, float64(pt.ingest)/n), append(flushNs, float64(pt.flush)/n)
		allocs, bytes = append(allocs, float64(pt.mallocs)/n), append(bytes, float64(pt.bytes)/n)
	}
	out.throughput, out.throughN = n/(medianNs(passes)/1e9), len(passes)
	out.latencyUs, out.latencyN = medianNs(batches)/1e3, len(batches)
	out.cpuUsUnit = float64(cpu) / 1e3 / (n * float64(len(passes)))

	serial, err := w.verify(out)
	if err != nil || tr == nil {
		return err
	}

	out.layer("fleet.ingest_ns_per_event", "ns", medianF(ingestNs), len(ingestNs))
	out.layer("fleet.flush_ns_per_event", "ns", medianF(flushNs), len(flushNs))
	out.layer("fleet.allocs_per_event", "count", medianF(allocs), len(allocs))
	out.layer("fleet.bytes_per_event", "B", medianF(bytes), len(bytes))
	out.layer("fleet.serial_events_per_s", "1/s", n/serial.Seconds(), 1)
	start := time.Now()
	snap := w.sup.Snapshot()
	out.layer("fleet.snapshot_ms", "ms", float64(time.Since(start))/1e6, 1)
	out.layer("fleet.tickets_opened", "count", float64(snap.TicketsOpened)/float64(w.fed), w.fed)

	start = time.Now()
	segs := w.large.Partition()
	out.layer("topology.partition_large_ms", "ms", float64(time.Since(start))/1e6, 1)
	if len(segs) == 0 {
		out.fail("partition of the large DCN is empty")
	}

	q := tickets.NewQueue(tickets.QueueConfig{Quiet: true})
	failed := 0
	out.layer("tickets.open_resolve_ns", "ns", perCallNs(w.sz.probeN, func(i int) {
		t, done := q.Open(topology.LinkID(i), faults.ActionUnknown, time.Duration(i))
		if err := q.Resolve(t, done, faults.ActionUnknown, true); err != nil {
			failed++
		}
	}), w.sz.probeN)
	if failed > 0 {
		out.fail("tickets probe: %d resolves failed", failed)
	}
	return nil
}

// verify feeds the warm-up pass to a fresh Workers: 1 supervisor and
// requires the same snapshot, byte for byte. It returns that serial pass's
// wall time.
func (w *fleetWorkload) verify(out *outcome) (time.Duration, error) {
	ref, err := fleet.New(w.dcns, fleet.Config{Workers: 1})
	if err != nil {
		return 0, err
	}
	// Back to the warm-up pass's virtual time.
	for i := range w.evs {
		w.evs[i].At -= time.Duration(w.pass) * w.span
	}
	w.pass = 0
	var scratch outcome
	pt, err := w.runPass(ref, nil, &scratch)
	if err != nil {
		return 0, err
	}
	out.attempted++
	if got := ref.Snapshot().String(); got != w.afterWarm {
		out.fail("snapshot after pass 1 differs from the Workers: 1 reference:\n%s\nvs\n%s", w.afterWarm, got)
	}
	return pt.wall(), nil
}

func (w *fleetWorkload) close() error { return nil }
