package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"time"

	"corropt"
	"corropt/internal/ctlplane"
	"corropt/internal/rngutil"
)

const capacity = 0.75

type ctlKind uint8

const (
	ctlReport ctlKind = iota
	ctlActivate
	ctlStatus
)

// ctlOp is one request of the closed loop and the reply it got. It holds no
// pointers, so the log costs the collector nothing: an Activate's reply is
// newly[lo:hi] and a Status's is statuses[lo] of the workload.
type ctlOp struct {
	kind     ctlKind
	err      bool // transport error, error envelope or retry
	disabled bool // Report: Decision.Disabled
	link     corropt.LinkID
	rate     float64
	lo, hi   int32
}

// ctlWorkload is ctl_lifecycle: one agent, one controller, loopback TCP.
// The wire layer does nearly all the work (four JSON codec passes and two
// socket hops per round trip against a sub-microsecond decision); sim and
// fleet do none.
type ctlWorkload struct {
	sz   sizes
	topo *corropt.Topology

	ctl    *ctlplane.Controller
	cli    *ctlplane.Client
	dials  int
	client *connStats // nil when untraced
	server *connStats

	// Pre-drawn inputs, cycled through; drawing them costs nothing inside
	// the window.
	picks []corropt.LinkID
	rates []float64
	draw  int

	// Closed-loop state the next op depends on.
	busy      []bool           // link is down or capacity-blocked: not reportable
	down      []corropt.LinkID // disabled links, oldest first
	issued    int
	activated bool // the previous op was the activation paired with the next report
	threshold float64

	// The ops since the last check and their replies; buffers are reused.
	log      []ctlOp
	newly    []corropt.LinkID
	statuses []ctlplane.StatusResult
	replay   ctlReplay
}

func newCtl(sz sizes, seed uint64, traced bool, out *outcome) (workload, error) {
	start := time.Now()
	topo, err := corropt.NewClos(sz.medium)
	if err != nil {
		return nil, err
	}
	out.layer("topology.build_medium_ms", "ms", float64(time.Since(start))/1e6, 1)

	w := &ctlWorkload{sz: sz, topo: topo, busy: make([]bool, topo.NumLinks())}
	engine, err := newEngine(topo)
	if err != nil {
		return nil, err
	}
	w.threshold = engine.Threshold()
	w.replay.timed = traced

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if traced {
		w.client, w.server = &connStats{}, &connStats{}
		ln = probeListener{Listener: ln, s: w.server}
	}
	w.ctl, err = ctlplane.ServeListener(ln, engine, nil)
	if err != nil {
		_ = ln.Close() // constructor failed; nothing else owns the listener
		return nil, err
	}
	start = time.Now()
	w.cli, err = ctlplane.DialConfig(w.ctl.Addr().String(), ctlplane.ClientConfig{
		AgentID: "bench",
		Dial: func(network, addr string) (net.Conn, error) {
			w.dials++
			c, err := net.Dial(network, addr)
			if err != nil || w.client == nil {
				return c, err
			}
			return probeConn{Conn: c, s: w.client}, nil
		},
	})
	if err != nil {
		_ = w.ctl.Close() // the dial error is the one reported
		return nil, err
	}
	out.layer("ctlplane.dial_us", "us", float64(time.Since(start))/1e3, 1)

	// Rates are log-uniform in 1e-7…1e-2, so the below-threshold, disabled
	// and capacity-blocked reply paths all occur.
	const draws = 1 << 14
	rng := rngutil.New(seed).Split("ctl-lifecycle")
	w.picks = make([]corropt.LinkID, draws)
	w.rates = make([]float64, draws)
	for i := range w.picks {
		w.picks[i] = corropt.LinkID(rng.Intn(topo.NumLinks()))
		w.rates[i] = math.Pow(10, rng.Range(-7, -2))
	}

	// The warm-up's ops stay in the log until the window's first check.
	w.log = make([]ctlOp, 0, max(sz.ctlWarm, sz.ctlSlice))
	for i := 0; i < sz.ctlWarm; i++ {
		w.do(w.next())
	}
	return w, nil
}

func newEngine(topo *corropt.Topology) (*corropt.Engine, error) {
	net, err := corropt.NewNetwork(topo, capacity)
	if err != nil {
		return nil, err
	}
	return corropt.NewEngine(net, corropt.EngineConfig{}), nil
}

// next decides the following request: every 20th is a Status; once ctlDown
// links are down each report is preceded by activating the oldest; otherwise
// report the next pre-drawn link that is not already down or blocked.
func (w *ctlWorkload) next() ctlOp {
	w.issued++
	if w.issued%20 == 0 {
		return ctlOp{kind: ctlStatus}
	}
	if len(w.down) >= w.sz.ctlDown && !w.activated {
		w.activated = true
		l := w.down[0]
		w.down = w.down[1:]
		w.busy[l] = false
		return ctlOp{kind: ctlActivate, link: l}
	}
	w.activated = false
	for {
		i := w.draw % len(w.picks)
		w.draw++
		if l := w.picks[i]; !w.busy[l] {
			return ctlOp{kind: ctlReport, link: l, rate: w.rates[i]}
		}
	}
}

// do sends op, folds the reply into the closed-loop state, logs both, and
// returns the round-trip time.
func (w *ctlWorkload) do(op ctlOp) time.Duration {
	start := time.Now()
	var err error
	switch op.kind {
	case ctlReport:
		var d *ctlplane.Decision
		if d, err = w.cli.Report(op.link, op.rate); err == nil {
			op.disabled = d.Disabled
		}
	case ctlActivate:
		var newly []corropt.LinkID
		newly, err = w.cli.Activate(op.link)
		op.lo = int32(len(w.newly))
		w.newly = append(w.newly, newly...)
		op.hi = int32(len(w.newly))
	case ctlStatus:
		var st *ctlplane.StatusResult
		if st, err = w.cli.Status(); err == nil {
			op.lo = int32(len(w.statuses))
			w.statuses = append(w.statuses, *st)
		}
	}
	rtt := time.Since(start)
	op.err = err != nil
	switch {
	case op.kind == ctlReport && op.disabled:
		w.busy[op.link] = true
		w.down = append(w.down, op.link)
	case op.kind == ctlReport && op.rate >= w.threshold:
		w.busy[op.link] = true // blocked: stays corrupting until the optimizer takes it
	case op.kind == ctlActivate:
		w.down = append(w.down, w.newly[op.lo:op.hi]...)
	}
	w.log = append(w.log, op)
	return rtt
}

func (w *ctlWorkload) window(d time.Duration, tr *tracer, out *outcome) error {
	rtts := map[ctlKind][]time.Duration{}
	var rates []float64
	var send, handle, recv, transit []time.Duration
	var writes0, bytes0 int64
	if tr != nil {
		writes0, bytes0 = wire(w.client, w.server)
	}
	if err := w.check(out); err != nil {
		return err
	}
	var cpu time.Duration
	var mallocs uint64
	ops := 0
	// Whether a slice is the last is decided once, when it ends: the check
	// after it takes tens of milliseconds in a traced run, and a deadline that
	// fell inside it must not end the window before the codec probe has run.
	for start, last := time.Now(), false; !last; {
		var mallocs0 uint64
		if tr != nil {
			mallocs0, _ = memCounters()
		}
		cpu0, sliceStart := cpuTime(), time.Now()
		for i := 0; i < w.sz.ctlSlice; i++ {
			op := w.next()
			if tr == nil {
				rtts[op.kind] = append(rtts[op.kind], w.do(op))
				continue
			}
			w.client.reset()
			w.server.reset()
			opWrites0, opBytes0 := wire(w.client, w.server)
			opStart := now()
			rtt := w.do(op)
			rtts[op.kind] = append(rtts[op.kind], rtt)
			opEnd := opStart + int64(rtt)
			trace := int64(ops + i)
			root := tr.add(trace, 0, "ctl.op", opStart, opEnd)
			sent, arrived := w.client.lastWriteEnd.Load(), w.server.firstReadEnd.Load()
			replied, back := w.server.lastWriteEnd.Load(), w.client.firstReadEnd.Load()
			tr.add(trace, root, "client.send", opStart, sent)
			tr.add(trace, root, "server.handle", arrived, replied)
			tr.add(trace, root, "client.recv", back, opEnd)
			opWrites, opBytes := wire(w.client, w.server)
			tr.count(trace, root, "writes", opWrites-opWrites0)
			tr.count(trace, root, "bytes", opBytes-opBytes0)
			if op.kind == ctlReport {
				send = append(send, time.Duration(sent-opStart))
				handle = append(handle, time.Duration(replied-arrived))
				recv = append(recv, time.Duration(opEnd-back))
				transit = append(transit, time.Duration((arrived-sent)+(back-replied)))
			}
		}
		rates = append(rates, float64(w.sz.ctlSlice)/time.Since(sliceStart).Seconds())
		cpu += cpuTime() - cpu0
		ops += w.sz.ctlSlice
		last = time.Since(start) >= d
		if tr != nil {
			mallocs1, _ := memCounters()
			mallocs += mallocs1 - mallocs0
			if last {
				w.codecProbe(out) // over the last slice's envelopes, before check drops them
			}
		}
		if err := w.check(out); err != nil {
			return err
		}
	}
	if w.dials != 1 {
		out.fail("client dialled %d times: a retry happened", w.dials)
	}

	out.attempted = ops
	out.throughput, out.throughN = medianF(rates), len(rates)
	out.latencyUs, out.latencyN = medianNs(rtts[ctlReport])/1e3, len(rtts[ctlReport])
	out.cpuUsUnit = float64(cpu) / 1e3 / float64(ops)
	if tr == nil {
		return nil
	}

	out.layer("ctlplane.report_rtt_p50_us", "us", medianNs(rtts[ctlReport])/1e3, len(rtts[ctlReport]))
	out.layer("ctlplane.activate_rtt_p50_us", "us", medianNs(rtts[ctlActivate])/1e3, len(rtts[ctlActivate]))
	out.layer("ctlplane.status_rtt_p50_us", "us", medianNs(rtts[ctlStatus])/1e3, len(rtts[ctlStatus]))
	out.layer("ctlplane.report_rtt_p99_us", "us", quantile(rtts[ctlReport], 0.99)/1e3, len(rtts[ctlReport]))
	out.layer("ctlplane.activate_rtt_p99_us", "us", quantile(rtts[ctlActivate], 0.99)/1e3, len(rtts[ctlActivate]))
	out.layer("ctlplane.status_rtt_p99_us", "us", quantile(rtts[ctlStatus], 0.99)/1e3, len(rtts[ctlStatus]))
	out.layer("ctlplane.client_send_us", "us", medianNs(send)/1e3, len(send))
	out.layer("ctlplane.server_handle_us", "us", medianNs(handle)/1e3, len(handle))
	out.layer("ctlplane.client_recv_us", "us", medianNs(recv)/1e3, len(recv))
	out.layer("ctlplane.transit_us", "us", medianNs(transit)/1e3, len(transit))
	writes, sent := wire(w.client, w.server)
	out.layer("ctlplane.writes_per_rtt", "count", float64(writes-writes0)/float64(ops), ops)
	out.layer("ctlplane.bytes_per_rtt", "B", float64(sent-bytes0)/float64(ops), ops)
	out.layer("ctlplane.allocs_per_rtt", "count", float64(mallocs)/float64(ops), ops)
	out.layer("ctlplane.retries", "count", float64(w.dials-1), 1)
	r := &w.replay
	out.layer("ctlplane.error_replies", "count", float64(r.errs), r.ops)
	out.layer("core.report_ns", "ns", medianNs(r.reports), len(r.reports))
	out.layer("core.repair_us", "us", medianNs(r.repairs)/1e3, len(r.repairs))
	out.layer("core.penalty_rescan_us", "us", medianNs(r.rescans)/1e3, len(r.rescans))
	return w.coreProbes(out)
}

// ctlReplay is the in-process rerun of the op log: the reference the wire
// replies are checked against and, in a traced run, the timing of core
// alone (each call timed by itself, so ≈ 40 ns of clock reads are included).
type ctlReplay struct {
	engine    *corropt.Engine
	timed     bool
	ops, errs int

	reports, repairs, rescans []time.Duration
}

// check replays the logged ops on the shadow engine, fails each op whose wire
// reply differs, and empties the log. With one client the op order is
// deterministic, so the socket must change nothing. It runs between slices,
// outside every timed interval; the shadow engine is built on the first call
// so that live_heap_mb, read before the window, holds one engine and not two.
func (w *ctlWorkload) check(out *outcome) error {
	r := &w.replay
	if r.engine == nil {
		var err error
		if r.engine, err = newEngine(w.topo); err != nil {
			return err
		}
	}
	net := r.engine.Network()
	for _, op := range w.log {
		r.ops++
		if op.err {
			r.errs++
			out.fail("op %d: transport error, error reply or retry", r.ops)
			continue
		}
		var start time.Time
		if r.timed {
			start = time.Now()
		}
		switch op.kind {
		case ctlReport:
			d := r.engine.ReportCorruption(op.link, op.rate)
			if r.timed {
				r.reports = append(r.reports, time.Since(start))
			}
			if d.Disabled != op.disabled {
				out.fail("op %d: report link %d rate %g: wire disabled=%v, in-process %v", r.ops, op.link, op.rate, op.disabled, d.Disabled)
			}
		case ctlActivate:
			newly := r.engine.LinkRepaired(op.link)
			if r.timed {
				r.repairs = append(r.repairs, time.Since(start))
			}
			if got := w.newly[op.lo:op.hi]; !slices.Equal(newly, got) {
				out.fail("op %d: activate link %d: wire disabled %v, in-process %v", r.ops, op.link, got, newly)
			}
		case ctlStatus:
			penalty := net.TotalPenalty(corropt.LinearPenalty)
			if r.timed {
				r.rescans = append(r.rescans, time.Since(start))
			}
			s := w.statuses[op.lo]
			if s.Links != w.topo.NumLinks() || s.Disabled != net.NumDisabled() ||
				s.ActiveCorrupting != net.NumActiveCorrupting(w.threshold) ||
				s.WorstToRFraction != net.WorstToRFraction() || s.TotalPenalty != penalty {
				out.fail("op %d: status %+v differs from the in-process network", r.ops, s)
			}
		}
	}
	w.log, w.newly, w.statuses = w.log[:0], w.newly[:0], w.statuses[:0]
	return nil
}

// codecProbe times WriteMsg and ReadMsg over the workload's own envelopes
// into memory: one request and one reply per logged op.
func (w *ctlWorkload) codecProbe(out *outcome) {
	var envs []*ctlplane.Envelope
	for i, op := range w.log {
		if len(envs) >= 2*w.sz.probeN {
			break
		}
		seq := uint64(i + 1)
		switch op.kind {
		case ctlReport:
			envs = append(envs,
				&ctlplane.Envelope{Type: ctlplane.TypeReport, Agent: "bench", Seq: seq, Report: &ctlplane.Report{Link: op.link, Rate: op.rate}},
				&ctlplane.Envelope{Type: ctlplane.TypeDecision, Seq: seq, Decision: &ctlplane.Decision{Link: op.link, Disabled: op.disabled}})
		case ctlActivate:
			envs = append(envs,
				&ctlplane.Envelope{Type: ctlplane.TypeActivate, Agent: "bench", Seq: seq, Activate: &ctlplane.Activate{Link: op.link}},
				&ctlplane.Envelope{Type: ctlplane.TypeActivateResult, Seq: seq, ActivateResult: &ctlplane.ActivateResult{Disabled: slices.Clone(w.newly[op.lo:op.hi])}})
		case ctlStatus:
			envs = append(envs,
				&ctlplane.Envelope{Type: ctlplane.TypeStatus, Agent: "bench", Seq: seq},
				&ctlplane.Envelope{Type: ctlplane.TypeStatusResult, Seq: seq, Status: &w.statuses[op.lo]})
		}
	}
	var buf bytes.Buffer
	failed := 0
	enc := perCallNs(len(envs), func(i int) {
		if err := ctlplane.WriteMsg(&buf, envs[i]); err != nil {
			failed++
		}
	})
	rd := bytes.NewReader(buf.Bytes())
	dec := perCallNs(len(envs), func(int) {
		if _, err := ctlplane.ReadMsg(rd); err != nil {
			failed++
		}
	})
	if failed > 0 {
		out.fail("codec probe: %d of %d envelopes failed to round-trip", failed, 2*len(envs))
	}
	out.layer("ctlplane.encode_ns", "ns", enc, len(envs))
	out.layer("ctlplane.decode_ns", "ns", dec, len(envs))
}

// coreProbes measures what the replay cannot: allocations per decision, and
// the path counter's Apply+Revert pair that every decision is built from.
func (w *ctlWorkload) coreProbes(out *outcome) error {
	engine, err := newEngine(w.topo)
	if err != nil {
		return err
	}
	n := w.sz.probeN
	var reportAllocs, repairAllocs float64
	for i := 0; i < n; i++ {
		l, rate := w.picks[i%len(w.picks)], 1e-3
		reportAllocs += allocsOf(func() { engine.ReportCorruption(l, rate) })
		repairAllocs += allocsOf(func() { engine.LinkRepaired(l) })
	}
	out.layer("core.allocs_per_report", "count", reportAllocs/float64(n), n)
	out.layer("core.allocs_per_repair", "count", repairAllocs/float64(n), n)

	pc := corropt.NewPathCounter(w.topo)
	out.layer("topology.apply_revert_ns", "ns", perCallNs(n, func(i int) {
		l := w.picks[i%len(w.picks)]
		pc.Apply(l)
		pc.Revert(l)
	}), n)
	return nil
}

func (w *ctlWorkload) close() error {
	return errors.Join(w.cli.Close(), w.ctl.Close())
}
