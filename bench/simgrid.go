package main

import (
	"fmt"
	"math"
	"time"

	"corropt"
	"corropt/internal/sim"
)

// simCell is one (trace, policy, capacity) simulation of the grid.
type simCell struct {
	trace    int
	policy   corropt.PolicyKind
	capacity float64
}

// simGridWorkload is sim_grid: 90 simulated days of a medium DCN under three
// policies. sim and the core optimizer do the work, through the simulator's
// own copy of the policies, which ctl_lifecycle never touches.
//
// c = 0.9 and switch-local at c = 0.75 are left out: single cells there take
// 1.5–110 s and would be the whole benchmark.
type simGridWorkload struct {
	sz      sizes
	topo    *corropt.Topology
	tech    corropt.Technology
	traces  [][]*corropt.Fault
	horizon time.Duration
	cells   []simCell
	seed    uint64
	scratch *sim.Scratch

	// first holds each cell's result from its first run; later runs must
	// reproduce it exactly.
	first []*corropt.SimResult
	// lastCorrOpt is the pooled network as of the most recent corropt c=0.75
	// cell, for the optimizer probe.
	lastCorrOpt *corropt.Network
}

func newSimGrid(sz sizes, seed uint64, _ bool, out *outcome) (workload, error) {
	topo, err := corropt.NewClos(sz.medium)
	if err != nil {
		return nil, err
	}
	w := &simGridWorkload{
		sz: sz, topo: topo, tech: corropt.DefaultTechnologies()[0], seed: seed,
		horizon: time.Duration(sz.simDays) * 24 * time.Hour,
		scratch: sim.NewScratch(),
	}
	var gen []float64
	for t := 0; t < sz.simTraces; t++ {
		inj, err := corropt.NewInjector(topo, w.tech, corropt.InjectorConfig{FaultsPerLinkPerDay: 10.0 / 3000}, seed*1000+uint64(t))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		w.traces = append(w.traces, inj.Generate(w.horizon))
		gen = append(gen, float64(time.Since(start))/1e6)
		w.cells = append(w.cells,
			simCell{t, corropt.PolicySwitchLocal, 0.5},
			simCell{t, corropt.PolicyFastOnly, 0.5},
			simCell{t, corropt.PolicyFastOnly, 0.75},
			simCell{t, corropt.PolicyCorrOpt, 0.5},
			simCell{t, corropt.PolicyCorrOpt, 0.75},
		)
	}
	out.layer("faults.generate_ms", "ms", medianF(gen), len(gen))
	w.first = make([]*corropt.SimResult, len(w.cells))

	// Warm-up: one trace's cells, which fills the scratch's pooled network
	// and fault state and touches all three policies.
	var warm outcome
	for i := range w.cells {
		if w.cells[i].trace != 0 {
			break
		}
		if _, err := w.runCell(i, nil, 0, 0, &warm); err != nil {
			return nil, err
		}
	}
	if warm.failed > 0 {
		out.fail("warm-up: %v", warm.notes)
	}
	return w, nil
}

// cellTimes are the timed parts of one cell.
type cellTimes struct {
	build, run time.Duration
	mallocs    uint64
}

// runCell builds and runs cell i on the pooled scratch and checks its result
// against the cell's first run.
func (w *simGridWorkload) runCell(i int, tr *tracer, trace int64, parent int32, out *outcome) (cellTimes, error) {
	c := w.cells[i]
	var ct cellTimes
	if tr != nil {
		ct.mallocs, _ = memCounters()
	}
	t0 := now()
	s, err := sim.NewWithScratch(w.topo, w.tech, corropt.SimConfig{
		Capacity: c.capacity, Policy: c.policy, Seed: w.seed,
	}, w.scratch)
	if err != nil {
		return ct, fmt.Errorf("cell %d: %w", i, err)
	}
	t1 := now()
	res, err := s.Run(w.traces[c.trace], w.horizon)
	t2 := now()
	if err != nil {
		return ct, fmt.Errorf("cell %d: %w", i, err)
	}
	ct.build, ct.run = time.Duration(t1-t0), time.Duration(t2-t1)
	if tr != nil {
		m, _ := memCounters()
		ct.mallocs = m - ct.mallocs
		tr.add(trace, parent, "sim.new", t0, t1)
		id := tr.add(trace, parent, "sim.run", t1, t2)
		tr.count(trace, id, "allocs", int64(ct.mallocs))
	}
	if c.policy == corropt.PolicyCorrOpt && c.capacity == capacity {
		w.lastCorrOpt = s.Network()
	}

	out.attempted++
	switch ref := w.first[i]; {
	case ref == nil:
		w.first[i] = res
	case res.CorruptionReports != ref.CorruptionReports || res.UndisabledEvents != ref.UndisabledEvents ||
		res.TicketsOpened != ref.TicketsOpened ||
		math.Float64bits(res.IntegratedPenalty) != math.Float64bits(ref.IntegratedPenalty):
		out.fail("cell %d (%v c=%g trace %d): result changed between passes", i, c.policy, c.capacity, c.trace)
	}
	return ct, nil
}

func (w *simGridWorkload) window(d time.Duration, tr *tracer, out *outcome) error {
	n := len(w.cells)
	walls := make([][]time.Duration, n) // per cell, one entry per pass
	var builds []time.Duration
	var allocs []float64
	var cpu time.Duration
	ran := 0
	// Whole passes until the window closes; then stop at the next cell,
	// since a pass is a large share of the window.
	for start, pass := time.Now(), int64(1); time.Since(start) < d; pass++ {
		var root int32
		if tr != nil {
			root = tr.add(pass, 0, "sim.pass", now(), 0)
		}
		cpu0 := cpuTime()
		for i := 0; i < n && (pass == 1 || time.Since(start) < d); i++ {
			ct, err := w.runCell(i, tr, pass, root, out)
			if err != nil {
				return err
			}
			walls[i] = append(walls[i], ct.build+ct.run)
			builds = append(builds, ct.build)
			allocs = append(allocs, float64(ct.mallocs))
			ran++
		}
		cpu += cpuTime() - cpu0
		if tr != nil {
			tr.spans[root-1].End = now()
		}
	}

	// A pass costs the sum of its cells; each cell's cost is its median
	// over the passes that reached it. The headline latency is the corropt
	// c=0.75 cell, averaged over the traces so no one trace decides it.
	passNs, headlineNs, headlineN := 0.0, 0.0, 0
	byPolicy := map[corropt.PolicyKind][]time.Duration{}
	minRuns := len(walls[0])
	for i, c := range w.cells {
		passNs += medianNs(walls[i])
		minRuns = min(minRuns, len(walls[i]))
		byPolicy[c.policy] = append(byPolicy[c.policy], walls[i]...)
		if c.policy == corropt.PolicyCorrOpt && c.capacity == capacity {
			headlineNs += medianNs(walls[i]) / float64(w.sz.simTraces)
			headlineN += len(walls[i])
		}
	}
	days := float64(n * w.sz.simDays)
	out.throughput, out.throughN = days/(passNs/1e9), minRuns
	out.latencyUs, out.latencyN = headlineNs/1e3, headlineN
	out.cpuUsUnit = float64(cpu) / 1e3 / (float64(ran) * float64(w.sz.simDays))

	w.verify(out)
	if tr == nil {
		return nil
	}

	out.layer("sim.new_us", "us", medianNs(builds)/1e3, len(builds))
	out.layer("sim.run_ms_switchlocal", "ms", medianNs(byPolicy[corropt.PolicySwitchLocal])/1e6, len(byPolicy[corropt.PolicySwitchLocal]))
	out.layer("sim.run_ms_fastonly", "ms", medianNs(byPolicy[corropt.PolicyFastOnly])/1e6, len(byPolicy[corropt.PolicyFastOnly]))
	out.layer("sim.run_ms_corropt", "ms", medianNs(byPolicy[corropt.PolicyCorrOpt])/1e6, len(byPolicy[corropt.PolicyCorrOpt]))
	out.layer("sim.allocs_per_run", "count", medianF(allocs), len(allocs))
	// Exact counts of simulated behaviour, so drift shows in a diff rather
	// than hiding in a timing.
	var reports, ticketsOpened, undisabled int
	penalty := 0.0
	for i, c := range w.cells {
		r := w.first[i]
		reports += r.CorruptionReports
		ticketsOpened += r.TicketsOpened
		undisabled += r.UndisabledEvents
		if c.policy == corropt.PolicyCorrOpt {
			penalty += r.IntegratedPenalty
		}
	}
	out.layer("sim.reports_per_pass", "count", float64(reports), 1)
	out.layer("sim.tickets_per_pass", "count", float64(ticketsOpened), 1)
	out.layer("sim.undisabled_per_pass", "count", float64(undisabled), 1)
	out.layer("sim.penalty_corropt", "penalty.s", penalty, 1)

	// The optimizer alone, on the state a headline cell ends in. The cell is
	// rerun first: the scratch pools one network per topology, so it holds
	// whatever cell ran last.
	for i, c := range w.cells {
		if c.policy == corropt.PolicyCorrOpt && c.capacity == capacity {
			if _, err := w.runCell(i, nil, 0, 0, out); err != nil {
				return err
			}
			break
		}
	}
	opt := corropt.NewOptimizer(w.lastCorrOpt, corropt.LinearPenalty, corropt.OptimizerConfig{})
	var runs []time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		opt.Run(corropt.DefaultDetectionThreshold)
		runs = append(runs, time.Since(start))
	}
	out.layer("core.optimize_us", "us", medianNs(runs)/1e3, len(runs))
	return nil
}

// verify requires every cell to have simulated something: reports seen,
// tickets opened, and no more reports left undisabled than were made.
//
// It does not require corropt's penalty to stay below fast-only's. Once the
// two policies' decisions diverge so do their repair-outcome draws, and on
// real seeds corropt ends a trace up to 29 % worse (seed 10: by 0.002 %), so
// that is not an invariant of the program. sim.penalty_corropt and the
// sim.*_per_pass counts expose the same behaviour as exact numbers instead.
func (w *simGridWorkload) verify(out *outcome) {
	for i, c := range w.cells {
		out.attempted++
		r := w.first[i]
		if r.CorruptionReports == 0 || r.TicketsOpened == 0 || r.UndisabledEvents > r.CorruptionReports {
			out.fail("cell %d (%v c=%g trace %d): degenerate result: %d reports, %d tickets, %d undisabled",
				i, c.policy, c.capacity, c.trace, r.CorruptionReports, r.TicketsOpened, r.UndisabledEvents)
		}
	}
}

func (w *simGridWorkload) close() error { return nil }
