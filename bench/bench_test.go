package main

import (
	"testing"
	"time"
)

// TestSmoke runs all four workloads at about a hundredth of the work and
// requires exactly the metric names and units BENCHMARK.json promises, all
// finite, with every output check passing: a refactor that breaks an API the
// benchmark calls, or a metric the contract lists, fails here first.
func TestSmoke(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(workloadNames))
	}
	for _, w := range c.Workloads {
		m, err := measure(w.Name, smokeSizes, 1, 100*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.failed != 0 || m.attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, m.attempted, m.failed, m.notes)
		}
		for _, e := range checkMetrics(c.EndToEnd, m.endToEnd()) {
			t.Errorf("%s: %s", w.Name, e)
		}
	}

	metrics, out, err := tracedRun("fig13_journey", smokeSizes, 1, 200*time.Millisecond, 50*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Errorf("traced run: failed %d: %v", out.failed, out.notes)
	}
	for _, e := range checkMetrics(c.PerLayer, metrics) {
		t.Errorf("traced run: %s", e)
	}
}
