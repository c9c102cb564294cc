package scenario

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"time"

	"corropt/internal/optics"
	"corropt/internal/sim"
)

// Options parameterizes Execute.
type Options struct {
	// Workers sizes the worker pool; <=0 means 1. The transcript is
	// byte-identical for every worker count.
	Workers int
}

// AssertionResult is one evaluated assertion.
type AssertionResult struct {
	// Desc is the rendered form, e.g. "integrated_penalty[corropt] <= 200".
	Desc string
	// Value is the observed metric value.
	Value float64
	// Pass reports whether the bounds held.
	Pass bool
}

// Outcome is one executed scenario: per-run results in declaration order
// plus the evaluated assertions.
type Outcome struct {
	Compiled   *Compiled
	Results    []*sim.Result
	Assertions []AssertionResult
	// Passed is true when every assertion held.
	Passed bool
}

// Execute replays every run of the compiled scenario against the shared
// trace through sim.RunAll and evaluates the assertions. Results land
// in run-declaration order regardless of worker scheduling, and each run's
// randomness comes only from its own seed's substreams, so the outcome —
// and the transcript derived from it — is deterministic for any Workers.
func Execute(c *Compiled, opt Options) (*Outcome, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	replays := make([]sim.Replay, len(c.Runs))
	for i, r := range c.Runs {
		replays[i] = sim.Replay{Topo: c.Topo, Tech: optics.EvalTech(), Config: r.Config,
			Trace: c.Trace, Clears: c.Clears, Horizon: c.Scenario.Horizon}
	}
	results, err := sim.RunAll(workers, replays)
	var re *sim.ReplayError
	if errors.As(err, &re) {
		return nil, fmt.Errorf("scenario %q: run %q: %w", c.Scenario.Name, c.Runs[re.Index].Name, re.Err)
	}
	if err != nil {
		return nil, err
	}
	o := &Outcome{Compiled: c, Results: results, Passed: true}
	byName := make(map[string]*sim.Result, len(results))
	for i, r := range c.Runs {
		byName[r.Name] = results[i]
	}
	for i := range c.Scenario.Assertions {
		ar := evalAssertion(&c.Scenario.Assertions[i], byName)
		if !ar.Pass {
			o.Passed = false
		}
		o.Assertions = append(o.Assertions, ar)
	}
	return o, nil
}

// metric is one assertion metric: its value on a run's result, or, for a
// ratio, of(numerator run) / of(denominator run).
type metric struct {
	of    func(*sim.Result) float64
	ratio bool
}

// metrics names every assertion metric; DESIGN.md §7.6 describes them.
var metrics = map[string]metric{
	"integrated_penalty":         {of: integratedPenalty},
	"corruption_reports":         {of: func(r *sim.Result) float64 { return float64(r.CorruptionReports) }},
	"tickets_opened":             {of: ticketsOpened},
	"links_disabled":             {of: func(r *sim.Result) float64 { return float64(r.LinksDisabled) }},
	"undisabled_events":          {of: func(r *sim.Result) float64 { return float64(r.UndisabledEvents) }},
	"dampened_holds":             {of: func(r *sim.Result) float64 { return float64(r.DampenedHolds) }},
	"first_attempt_success_rate": {of: func(r *sim.Result) float64 { return r.FirstAttemptSuccessRate }},
	"mean_attempts":              {of: func(r *sim.Result) float64 { return r.MeanAttempts }},
	"min_worst_tor_fraction": {of: func(r *sim.Result) float64 {
		minFrac := math.Inf(1)
		for i := range r.Samples {
			minFrac = math.Min(minFrac, r.Samples[i].WorstToRFraction)
		}
		return minFrac
	}},
	"mean_tor_fraction": {of: func(r *sim.Result) float64 {
		sum := 0.0
		for i := range r.Samples {
			sum += r.Samples[i].MeanToRFraction
		}
		return sum / float64(len(r.Samples))
	}},
	"final_disabled":          {of: func(r *sim.Result) float64 { return float64(r.Samples[len(r.Samples)-1].Disabled) }},
	"final_active_corrupting": {of: func(r *sim.Result) float64 { return float64(r.Samples[len(r.Samples)-1].ActiveCorrupting) }},
	"max_disabled": {of: func(r *sim.Result) float64 {
		maxD := 0
		for i := range r.Samples {
			maxD = max(maxD, r.Samples[i].Disabled)
		}
		return float64(maxD)
	}},
	"max_active_corrupting": {of: func(r *sim.Result) float64 {
		maxA := 0
		for i := range r.Samples {
			maxA = max(maxA, r.Samples[i].ActiveCorrupting)
		}
		return float64(maxA)
	}},
	"samples":       {of: func(r *sim.Result) float64 { return float64(len(r.Samples)) }},
	"penalty_ratio": {of: integratedPenalty, ratio: true},
	"tickets_ratio": {of: ticketsOpened, ratio: true},
}

func integratedPenalty(r *sim.Result) float64 { return r.IntegratedPenalty }
func ticketsOpened(r *sim.Result) float64     { return float64(r.TicketsOpened) }

// evalAssertion reads a's metric off the named runs' results; a metric
// Parse would have rejected reads NaN, which fails every bound.
func evalAssertion(a *Assertion, byName map[string]*sim.Result) AssertionResult {
	m, known := metrics[a.Metric]
	value, subject := math.NaN(), fmt.Sprintf("%s[%s]", a.Metric, a.Run)
	switch {
	case m.ratio:
		n, d := m.of(byName[a.Runs[0]]), m.of(byName[a.Runs[1]])
		switch {
		case d != 0:
			value = n / d
		case n == 0:
			value = 1 // 0/0: equal, by convention
		default:
			value = math.Inf(1)
		}
		subject = fmt.Sprintf("%s[%s/%s]", a.Metric, a.Runs[0], a.Runs[1])
	case known:
		value = m.of(byName[a.Run])
	}
	var desc string
	switch {
	case a.Min != nil && a.Max != nil:
		desc = fmt.Sprintf("%s in [%.6g, %.6g]", subject, *a.Min, *a.Max)
	case a.Min != nil:
		desc = fmt.Sprintf("%s >= %.6g", subject, *a.Min)
	default:
		desc = fmt.Sprintf("%s <= %.6g", subject, *a.Max)
	}
	pass := !math.IsNaN(value)
	if a.Min != nil && value < *a.Min {
		pass = false
	}
	if a.Max != nil && value > *a.Max {
		pass = false
	}
	return AssertionResult{Desc: desc, Value: value, Pass: pass}
}

// Transcript renders the outcome as the canonical golden text: scenario
// header, one block per run in declaration order, assertion verdicts, and
// the overall result. Every number is either integer, %.6g, or a hash of
// the full sample series, so the transcript is a compact but byte-exact
// fingerprint of the simulation.
func (o *Outcome) Transcript() string {
	var b strings.Builder
	c := o.Compiled
	s := c.Scenario
	fmt.Fprintf(&b, "corropt scenario transcript v%d\n", s.Version)
	fmt.Fprintf(&b, "scenario: %s\n", s.Name)
	if s.Description != "" {
		fmt.Fprintf(&b, "description: %s\n", s.Description)
	}
	fmt.Fprintf(&b, "seed: %d\n", s.Seed)
	fmt.Fprintf(&b, "horizon: %s\n", formatDur(s.Horizon))
	fmt.Fprintf(&b, "sample_interval: %s\n", formatDur(s.SampleInterval))
	switch s.Topology.Kind {
	case "clos":
		fmt.Fprintf(&b, "topology: clos pods=%d tors_per_pod=%d aggs_per_pod=%d spines=%d spine_uplinks_per_agg=%d breakout_size=%d",
			s.Topology.Pods, s.Topology.ToRsPerPod, s.Topology.AggsPerPod,
			s.Topology.Spines, s.Topology.SpineUplinksPerAgg, s.Topology.BreakoutSize)
	case "fattree":
		fmt.Fprintf(&b, "topology: fattree k=%d", s.Topology.K)
	}
	fmt.Fprintf(&b, " (%d links, %d switches, %d tors)\n",
		c.Topo.NumLinks(), c.Topo.NumSwitches(), len(c.Topo.ToRs()))
	if s.Chaos != nil {
		fmt.Fprintf(&b, "chaos: stream=%s faults_per_link_per_day=%.6g faults=%d\n",
			s.Chaos.Stream, s.Chaos.FaultsPerLinkPerDay, c.ChaosFaults)
	}
	fmt.Fprintf(&b, "schedule: %d faults (%d chaos + %d event), %d clears\n",
		len(c.Trace), c.ChaosFaults, c.EventFaults, len(c.Clears))
	for i, r := range c.Runs {
		res := o.Results[i]
		run := &s.Runs[i]
		fmt.Fprintf(&b, "run %s:\n", r.Name)
		fmt.Fprintf(&b, "  policy=%s capacity=%.6g detection_threshold=%.6g detection_delay=%s repair=%s accuracy=%.6g service_time=%s technicians=%d seed=%d\n",
			run.Policy, run.Capacity, run.DetectionThreshold, formatDur(run.DetectionDelay),
			run.RepairMode, run.Accuracy, formatDur(run.ServiceTime), run.Technicians, run.Seed)
		if run.Dampening != nil {
			fmt.Fprintf(&b, "  dampening: window=%s flaps=%d holddown=%s\n",
				formatDur(run.Dampening.Window), run.Dampening.Flaps, formatDur(run.Dampening.Holddown))
		}
		fmt.Fprintf(&b, "  corruption_reports=%d tickets_opened=%d links_disabled=%d undisabled_events=%d dampened_holds=%d\n",
			res.CorruptionReports, res.TicketsOpened, res.LinksDisabled, res.UndisabledEvents, res.DampenedHolds)
		fmt.Fprintf(&b, "  first_attempt_success_rate=%.6g mean_attempts=%.6g\n",
			res.FirstAttemptSuccessRate, res.MeanAttempts)
		fmt.Fprintf(&b, "  integrated_penalty=%.6g\n", res.IntegratedPenalty)
		fmt.Fprintf(&b, "  min_worst_tor_fraction=%.6g mean_tor_fraction=%.6g\n",
			metrics["min_worst_tor_fraction"].of(res), metrics["mean_tor_fraction"].of(res))
		fmt.Fprintf(&b, "  final_disabled=%d final_active_corrupting=%d max_disabled=%d max_active_corrupting=%d\n",
			int(metrics["final_disabled"].of(res)), int(metrics["final_active_corrupting"].of(res)),
			int(metrics["max_disabled"].of(res)), int(metrics["max_active_corrupting"].of(res)))
		fmt.Fprintf(&b, "  samples=%d series_hash=%016x\n", len(res.Samples), seriesHash(res))
	}
	for _, ar := range o.Assertions {
		verdict := "PASS"
		if !ar.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "assert %s: %s (%.6g)\n", ar.Desc, verdict, ar.Value)
	}
	if o.Passed {
		b.WriteString("result: PASS\n")
	} else {
		b.WriteString("result: FAIL\n")
	}
	return b.String()
}

// formatDur renders a duration for the transcript: whole days as "Nd",
// everything else in Go's time.Duration syntax — both forms parseDur reads.
func formatDur(d time.Duration) string {
	const day = 24 * time.Hour
	if d > 0 && d%day == 0 {
		return strconv.FormatInt(int64(d/day), 10) + "d"
	}
	return d.String()
}

// seriesHash is FNV-64a over the full sample series and per-day penalty
// buckets (exact float bits), pinning the whole output series to the
// golden without printing thousands of lines.
func seriesHash(res *sim.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for i := range res.Samples {
		smp := &res.Samples[i]
		put(uint64(smp.At))
		put(math.Float64bits(smp.Penalty))
		put(math.Float64bits(smp.WorstToRFraction))
		put(math.Float64bits(smp.MeanToRFraction))
		put(uint64(smp.ActiveCorrupting))
		put(uint64(smp.Disabled))
	}
	for _, p := range res.PenaltyPerDay {
		put(math.Float64bits(p))
	}
	return h.Sum64()
}
