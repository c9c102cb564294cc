package main

import (
	"fmt"
	"math"
	"time"

	"corropt"
)

// sizes fixes how much work each workload does per slice, pass and warm-up.
// Everything is an operation count, never a duration, so two commits
// measured with the same sizes do identical work per sample; only the number
// of samples that fit in the window differs.
type sizes struct {
	medium, large corropt.ClosConfig

	setups int // set-ups per run; setup_s is their median

	ctlWarm  int // untimed ops before the window (also fills the 128-down steady state)
	ctlSlice int // ops per throughput sample
	ctlDown  int // links kept down before every report is preceded by an activation

	watched     int // links the detector sweeps
	journeyWarm int // untimed cycles before the window
	faultsPer   int // faults applied per cycle
	repairLag   int // cycles a fault lives before it is repaired

	dcns, fleetEvents, fleetBatch int
	fleetSupPasses                int // timed passes a supervisor serves before it is replaced

	simDays   int
	simTraces int

	probeN int // iterations of each isolated per-layer probe
}

var fullSizes = sizes{
	medium: corropt.ClosConfig{Pods: 45, ToRsPerPod: 40, AggsPerPod: 6, Spines: 96, SpineUplinksPerAgg: 16, BreakoutSize: 4},
	large:  corropt.ClosConfig{Pods: 72, ToRsPerPod: 56, AggsPerPod: 6, Spines: 144, SpineUplinksPerAgg: 24, BreakoutSize: 4},
	setups: 5,

	ctlWarm: 4000, ctlSlice: 5000, ctlDown: 128,

	watched: 2048, journeyWarm: 7, faultsPer: 4, repairLag: 8,

	dcns: 30, fleetEvents: 200_000, fleetBatch: 20_000, fleetSupPasses: 5,

	simDays: 90, simTraces: 3,

	probeN: 2000,
}

// smokeSizes is the same program at about a hundredth of the work, for the
// smoke test.
var smokeSizes = sizes{
	medium: corropt.ClosConfig{Pods: 4, ToRsPerPod: 8, AggsPerPod: 4, Spines: 16, SpineUplinksPerAgg: 8, BreakoutSize: 4},
	large:  corropt.ClosConfig{Pods: 6, ToRsPerPod: 8, AggsPerPod: 4, Spines: 16, SpineUplinksPerAgg: 8, BreakoutSize: 4},
	setups: 1,

	ctlWarm: 200, ctlSlice: 200, ctlDown: 8,

	watched: 64, journeyWarm: 2, faultsPer: 2, repairLag: 4,

	dcns: 3, fleetEvents: 2000, fleetBatch: 200, fleetSupPasses: 2,

	simDays: 30, simTraces: 2,

	probeN: 50,
}

// metric is one reported number. N is the sample count behind a percentile
// or median, 1 for a single reading.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// outcome is what one workload instance measured.
type outcome struct {
	attempted, failed int
	// notes are failed output checks, in the order they were seen.
	notes []string

	// The five end-to-end readings; setup and heap are filled by the
	// harness, the rest by the workload's window.
	throughput float64 // work units per second
	latencyUs  float64 // median latency of the workload's unit of waiting
	latencyN   int
	throughN   int
	cpuUsUnit  float64 // process CPU microseconds per work unit

	layers []metric // per-layer metrics this workload is the home of
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 8 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) layer(name, unit string, v float64, n int) {
	o.layers = append(o.layers, metric{Name: name, Value: v, Unit: unit, N: n})
}

// workload is one of the four named input sets. A value is one set-up
// instance: construct it (that is the set-up), run one window, close it.
type workload interface {
	// window measures for about d, recording spans when tr is non-nil, and
	// checks the program's outputs.
	window(d time.Duration, tr *tracer, out *outcome) error
	// close stops every goroutine and socket the instance started.
	close() error
}

// builder constructs a workload instance from a seed: topology, program
// state, listeners, dial, input synthesis and the untimed warm-up. traced
// selects probed sockets; out receives set-up-time layer metrics.
type builder func(sz sizes, seed uint64, traced bool, out *outcome) (workload, error)

var workloadNames = []string{"ctl_lifecycle", "fig13_journey", "fleet_replay", "sim_grid"}

var builders = map[string]builder{
	"ctl_lifecycle": newCtl,
	"fig13_journey": newJourney,
	"fleet_replay":  newFleet,
	"sim_grid":      newSimGrid,
}

// measured is one complete run of a workload: set-ups, window, checks.
type measured struct {
	outcome
	setupS     float64
	setupN     int
	liveHeapMB float64
}

// measure sets the workload up sz.setups times (closing all but the last),
// reads the live heap of the last instance, and runs one window on it.
func measure(name string, sz sizes, seed uint64, d time.Duration, tr *tracer) (*measured, error) {
	build := builders[name]
	m := &measured{}
	var setups []float64
	var w workload
	for i := 0; i < sz.setups; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("bench: %s: closing set-up %d: %w", name, i, err)
			}
		}
		m.outcome = outcome{}
		start := time.Now()
		var err error
		w, err = build(sz, seed, tr != nil, &m.outcome)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	m.setupS, m.setupN = medianF(setups), len(setups)
	m.liveHeapMB = liveHeapMB()
	if err := w.window(d, tr, &m.outcome); err != nil {
		_ = w.close() // the window's error is the one reported
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("bench: %s: close: %w", name, err)
	}
	for _, v := range []float64{m.throughput, m.latencyUs, m.cpuUsUnit} {
		if math.IsNaN(v) || v <= 0 {
			return nil, fmt.Errorf("bench: %s: window too short to take one sample of every metric", name)
		}
	}
	return m, nil
}

func (m *measured) endToEnd() []metric {
	return []metric{
		{"setup_s", m.setupS, "s", m.setupN},
		{"live_heap_mb", m.liveHeapMB, "MB", 1},
		{"throughput_per_s", m.throughput, "1/s", m.throughN},
		{"latency_p50_us", m.latencyUs, "us", m.latencyN},
		{"cpu_us_per_unit", m.cpuUsUnit, "us", 1},
	}
}
