package main

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"corropt"
	"corropt/internal/ctlplane"
	"corropt/internal/detector"
	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/snmplite"
	"corropt/internal/telemetry"
)

// benchTech has 7 dB of healthy optical margin, so 9.7–11.7 dB of extra
// loss yields corruption rates log-uniform in 1e-5…1e-2: far enough above
// the 1e-6 threshold that telemetry noise never hides a fault.
var benchTech = optics.Technology{Name: "bench-40G", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}

// journeyWorkload is fig13_journey: ground-truth fault → counter bump →
// SNMP sweep over loopback UDP → detection → report over loopback TCP →
// decision. snmplite, detector and telemetry do nearly all the work and
// ctlplane/core almost none: the mirror image of ctl_lifecycle.
type journeyWorkload struct {
	sz   sizes
	topo *corropt.Topology

	state     *faults.State
	collector *telemetry.Collector
	snmpSrv   *snmplite.Server
	snmpCli   *snmplite.Client
	udp       *connStats // nil when untraced
	det       *detector.Detector
	ctl       *ctlplane.Controller
	agent     *ctlplane.Client
	watched   []corropt.LinkID

	// Pre-drawn fault placements, cycled through.
	picks []int // index into watched
	loss  []optics.DB
	side  []optics.Side
	draw  int

	cycle     int
	busyUntil []int              // per watched link: first cycle it may be faulted again
	pending   [][]corropt.LinkID // ring by cycle%repairLag: links to repair
	nextFault faults.ID

	// Span state of the sweep in progress; read by tracedSource.
	tr        *tracer
	sweepSpan int32
	getSum    time.Duration // time inside the sweep's Get spans
}

func newJourney(sz sizes, seed uint64, traced bool, out *outcome) (workload, error) {
	topo, err := corropt.NewClos(sz.medium)
	if err != nil {
		return nil, err
	}
	w := &journeyWorkload{sz: sz, topo: topo, state: faults.NewState(topo, benchTech)}
	engine, err := newEngine(topo)
	if err != nil {
		return nil, err
	}
	w.collector = telemetry.NewCollector(w.state, nil, engine.Network().DisabledFunc(), telemetry.Config{Seed: seed})

	w.snmpSrv, err = snmplite.NewServer("127.0.0.1:0", snmplite.CollectorProvider(w.collector, topo.NumLinks()))
	if err != nil {
		return nil, err
	}
	if traced {
		w.udp = &connStats{}
	}
	w.snmpCli, err = snmplite.DialConfig(w.snmpSrv.Addr().String(), snmplite.ClientConfig{
		Dial: func(network, addr string) (net.Conn, error) {
			c, err := net.Dial(network, addr)
			if err != nil || w.udp == nil {
				return c, err
			}
			return probeConn{Conn: c, s: w.udp}, nil
		},
	})
	if err != nil {
		return nil, errors.Join(err, w.close())
	}

	for i := 0; i < sz.watched; i++ {
		w.watched = append(w.watched, corropt.LinkID(i*topo.NumLinks()/sz.watched))
	}
	var src detector.Source = detector.SNMPSourceClient(w.snmpCli)
	if traced {
		src = tracedSource{inner: src, w: w}
	}
	w.det, err = detector.New(src, w.watched, detector.Config{})
	if err != nil {
		return nil, errors.Join(err, w.close())
	}

	w.ctl, err = ctlplane.NewController("127.0.0.1:0", engine)
	if err != nil {
		return nil, errors.Join(err, w.close())
	}
	w.agent, err = ctlplane.DialConfig(w.ctl.Addr().String(), ctlplane.ClientConfig{AgentID: "bench"})
	if err != nil {
		return nil, errors.Join(err, w.close())
	}

	const draws = 1 << 14
	rng := rngutil.New(seed).Split("fig13-journey")
	for i := 0; i < draws; i++ {
		w.picks = append(w.picks, rng.Intn(sz.watched))
		w.loss = append(w.loss, optics.DB(rng.Range(9.7, 11.7)))
		w.side = append(w.side, optics.Side(rng.Intn(2)))
	}
	w.busyUntil = make([]int, sz.watched)
	w.pending = make([][]corropt.LinkID, sz.repairLag)

	// The first sweep only sets the detector's baselines.
	w.collector.Poll(0)
	if _, err := w.det.Poll(); err != nil {
		return nil, errors.Join(err, w.close())
	}
	var warm outcome
	for i := 0; i < sz.journeyWarm; i++ {
		if _, err := w.runCycle(&warm); err != nil {
			return nil, errors.Join(err, w.close())
		}
	}
	if warm.failed > 0 {
		out.fail("warm-up: %v", warm.notes)
	}
	return w, nil
}

// tracedSource records one snmplite.get span per counter read, under the
// sweep in progress.
type tracedSource struct {
	inner detector.Source
	w     *journeyWorkload
}

func (s tracedSource) Read(l corropt.LinkID) (detector.Reading, error) {
	start := now()
	r, err := s.inner.Read(l)
	end := now()
	if w := s.w; w.tr != nil {
		w.tr.add(int64(w.cycle), w.sweepSpan, "snmplite.get", start, end)
		w.getSum += time.Duration(end - start)
	}
	return r, err
}

// cycleTimes are the timed parts of one cycle.
type cycleTimes struct {
	poll, sweep time.Duration
	journeys    []time.Duration // per corrupting event: poll start → report return
	events      int
	cpu         time.Duration
}

// runCycle is one turn of the loop. Untimed: repair the faults applied
// repairLag cycles ago and apply faultsPer new ones. Timed: Collector.Poll →
// Detector.Poll → Client.Report per corrupting event. Then the check: every
// applied fault yields exactly one corrupting event, on its own link.
func (w *journeyWorkload) runCycle(out *outcome) (cycleTimes, error) {
	w.cycle++
	slot := w.cycle % w.sz.repairLag
	for _, l := range w.pending[slot] {
		w.state.RepairLink(l)
		out.attempted++
		if _, err := w.agent.Activate(l); err != nil {
			out.fail("cycle %d: activate link %d: %v", w.cycle, l, err)
		}
	}
	want := w.pending[slot][:0]
	for len(want) < w.sz.faultsPer {
		i := w.draw % len(w.picks)
		w.draw++
		p := w.picks[i]
		if w.busyUntil[p] > w.cycle {
			continue
		}
		// Two cycles beyond the repair: one for the detector to see the
		// link clean and clear its flag.
		w.busyUntil[p] = w.cycle + w.sz.repairLag + 2
		effect := faults.LinkEffect{Link: w.watched[p]}
		effect.ExtraLossFrom[w.side[i]] = w.loss[i]
		w.nextFault++
		w.state.Apply(&faults.Fault{ID: w.nextFault, Cause: faults.ConnectorContamination, Effects: []faults.LinkEffect{effect}})
		want = append(want, w.watched[p])
	}
	w.pending[slot] = want

	var ct cycleTimes
	trace := int64(w.cycle)
	cpu0, t0 := cpuTime(), now()
	w.collector.Poll(time.Duration(w.cycle) * telemetry.DefaultInterval)
	t1 := now()
	var root int32
	if w.tr != nil {
		// The root's end is patched once the last report returns.
		root = w.tr.add(trace, 0, "journey", t0, t0)
		w.tr.add(trace, root, "telemetry.poll", t0, t1)
		w.sweepSpan = w.tr.add(trace, root, "detector.sweep", t1, t1)
	}
	events, err := w.det.Poll()
	t2 := now()
	if err != nil {
		return ct, fmt.Errorf("cycle %d: %w", w.cycle, err)
	}
	var got []corropt.LinkID
	for _, ev := range events {
		if !ev.Corrupting {
			continue
		}
		got = append(got, ev.Link)
		r0 := now()
		_, err := w.agent.Report(ev.Link, ev.Rate)
		r1 := now()
		if err != nil {
			out.fail("cycle %d: report link %d: %v", w.cycle, ev.Link, err)
		}
		ct.journeys = append(ct.journeys, time.Duration(r1-t0))
		if w.tr != nil {
			w.tr.add(trace, root, "ctlplane.report", r0, r1)
		}
	}
	t3 := now()
	ct.cpu = cpuTime() - cpu0
	ct.poll, ct.sweep, ct.events = time.Duration(t1-t0), time.Duration(t2-t1), len(events)
	if w.tr != nil {
		w.tr.spans[root-1].End = t3
		w.tr.spans[w.sweepSpan-1].End = t2
		w.tr.count(trace, root, "events", int64(len(events)))
	}

	out.attempted += len(want)
	slices.Sort(got)
	sorted := slices.Clone(want)
	slices.Sort(sorted)
	if !slices.Equal(got, sorted) {
		out.fail("cycle %d: faults applied on %v, corrupting events on %v", w.cycle, sorted, got)
	}
	return ct, nil
}

func (w *journeyWorkload) window(d time.Duration, tr *tracer, out *outcome) error {
	w.tr = tr
	var polls, sweeps, journeys, selfs []time.Duration
	var cpu time.Duration
	var sweepAllocs []float64
	events, cycles := 0, 0
	var sent0, bytes0 int64
	if tr != nil {
		sent0, bytes0 = w.udp.writes.Load(), w.udp.bytesOut.Load()+w.udp.bytesIn.Load()
	}
	for start := time.Now(); time.Since(start) < d; cycles++ {
		var mallocs0 uint64
		if tr != nil {
			w.getSum = 0
			mallocs0, _ = memCounters()
		}
		ct, err := w.runCycle(out)
		if err != nil {
			return err
		}
		polls, sweeps = append(polls, ct.poll), append(sweeps, ct.sweep)
		journeys = append(journeys, ct.journeys...)
		cpu += ct.cpu
		events += ct.events
		if tr != nil {
			mallocs1, _ := memCounters()
			sweepAllocs = append(sweepAllocs, float64(mallocs1-mallocs0))
			selfs = append(selfs, ct.sweep-w.getSum)
		}
	}

	out.attempted++
	st, err := w.agent.Status()
	if err != nil {
		out.fail("final status: %v", err)
	} else if st.WorstToRFraction < capacity {
		out.fail("final status: worst ToR fraction %g below the %g constraint", st.WorstToRFraction, capacity)
	}

	swept := float64(cycles * w.sz.watched)
	out.throughput, out.throughN = float64(w.sz.watched)/(medianNs(sweeps)/1e9), len(sweeps)
	out.latencyUs, out.latencyN = medianNs(journeys)/1e3, len(journeys)
	out.cpuUsUnit = float64(cpu) / 1e3 / swept
	if tr == nil {
		return nil
	}

	out.layer("bench.journey_p50_ms", "ms", medianNs(journeys)/1e6, len(journeys))
	out.layer("telemetry.poll_ms", "ms", medianNs(polls)/1e6, len(polls))
	out.layer("detector.sweep_ms", "ms", medianNs(sweeps)/1e6, len(sweeps))
	out.layer("detector.sweep_self_us", "us", medianNs(selfs)/1e3, len(selfs))
	out.layer("detector.events_per_cycle", "count", float64(events)/float64(cycles), cycles)
	// Process-wide, so the snmplite server's share of each Get is included.
	out.layer("detector.allocs_per_sweep", "count", medianF(sweepAllocs), len(sweepAllocs))
	var gets []time.Duration
	for _, s := range tr.spans {
		if s.Name == "snmplite.get" {
			gets = append(gets, time.Duration(s.End-s.Start))
		}
	}
	out.layer("snmplite.get_rtt_p50_us", "us", medianNs(gets)/1e3, len(gets))
	out.layer("snmplite.get_rtt_p99_us", "us", quantile(gets, 0.99)/1e3, len(gets))
	sent := w.udp.writes.Load() - sent0
	out.layer("snmplite.bytes_per_get", "B", float64(w.udp.bytesOut.Load()+w.udp.bytesIn.Load()-bytes0)/float64(len(gets)), len(gets))
	// Every datagram beyond one per Get is a retransmission.
	out.layer("snmplite.retransmits", "count", float64(sent-int64(len(gets))), len(gets))
	w.tr = nil
	return w.probes(out)
}

// probes measures the drivers in isolation: the detector without the wire,
// one Get without the detector, and the snmplite codec without a socket.
func (w *journeyWorkload) probes(out *outcome) error {
	inproc, err := detector.New(detector.CollectorSource(w.collector), w.watched, detector.Config{})
	if err != nil {
		return err
	}
	var sweeps []time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := inproc.Poll(); err != nil {
			return err
		}
		sweeps = append(sweeps, time.Since(start))
	}
	out.layer("detector.inproc_sweep_us", "us", medianNs(sweeps)/1e3, len(sweeps))

	n := w.sz.probeN
	queries := []snmplite.Query{
		{Link: uint32(w.watched[0]), Counter: snmplite.CounterPacketsUp},
		{Link: uint32(w.watched[0]), Counter: snmplite.CounterPacketsDown},
		{Link: uint32(w.watched[0]), Counter: snmplite.CounterErrorsUp},
		{Link: uint32(w.watched[0]), Counter: snmplite.CounterErrorsDown},
	}
	failed := 0
	allocs := allocsOf(func() {
		for i := 0; i < n; i++ {
			if _, err := w.snmpCli.Get(queries); err != nil {
				failed++
			}
		}
	})
	out.layer("snmplite.allocs_per_get", "count", allocs/float64(n), n)

	values := make([]snmplite.Value, len(queries))
	for i, q := range queries {
		values[i] = snmplite.Value{Query: q, Value: uint64(i) << 20}
	}
	out.layer("snmplite.codec_ns", "ns", perCallNs(n, func(i int) {
		req, err := snmplite.EncodeRequest(uint32(i), queries)
		if err != nil {
			failed++
		}
		if _, _, err := snmplite.DecodeRequest(req); err != nil {
			failed++
		}
		resp, err := snmplite.EncodeResponse(uint32(i), values)
		if err != nil {
			failed++
		}
		if _, _, err := snmplite.DecodeResponse(resp); err != nil {
			failed++
		}
	}), n)
	if failed > 0 {
		out.fail("snmplite probes: %d calls failed", failed)
	}
	return nil
}

func (w *journeyWorkload) close() error {
	var errs []error
	if w.agent != nil {
		errs = append(errs, w.agent.Close())
	}
	if w.ctl != nil {
		errs = append(errs, w.ctl.Close())
	}
	if w.snmpCli != nil {
		errs = append(errs, w.snmpCli.Close())
	}
	errs = append(errs, w.snmpSrv.Close())
	return errors.Join(errs...)
}
