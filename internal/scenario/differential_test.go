package scenario

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"corropt/internal/experiments"
)

// TestFig14ScenarioMatchesDriver pins the DSL against the hard-coded
// experiments driver: scenarios/fig14_small.json declares the same
// topology, chaos stream, and policy pair the fig14 driver builds at
// ScaleSmall with Seed 1, so executing it and re-deriving the driver's
// report rows from the scenario results must reproduce the driver's
// report byte for byte. Any drift in the compiler's topology, injector
// wiring, or run-config mapping shows up here as a row diff.
func TestFig14ScenarioMatchesDriver(t *testing.T) {
	rep, err := experiments.Run("fig14", experiments.Config{Scale: experiments.ScaleSmall, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatalf("experiments fig14: %v", err)
	}

	data, err := os.ReadFile("../../scenarios/fig14_small.json")
	if err != nil {
		t.Fatalf("read scenario: %v", err)
	}
	s, err := Parse(data, "fig14_small.json")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out, err := Execute(c, Options{Workers: 1})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(out.Results) != 2 || c.Runs[0].Name != "switch_local" || c.Runs[1].Name != "corropt" {
		t.Fatalf("unexpected run set in fig14_small.json")
	}
	sl, co := out.Results[0], out.Results[1]

	// Re-derive the driver's rows with its exact sampling and formatting.
	step := len(co.Samples) / 120
	if step == 0 {
		step = 1
	}
	var rows [][]string
	for i := 0; i < len(co.Samples) && i < len(sl.Samples); i += step {
		rows = append(rows, []string{
			"small",
			fmt.Sprintf("%d", int(co.Samples[i].At/time.Hour)),
			fmt.Sprintf("%.6g", sl.Samples[i].Penalty),
			fmt.Sprintf("%.6g", co.Samples[i].Penalty),
		})
	}
	if !reflect.DeepEqual(rows, rep.Rows) {
		max := len(rows)
		if len(rep.Rows) > max {
			max = len(rep.Rows)
		}
		for i := 0; i < max; i++ {
			var a, b []string
			if i < len(rows) {
				a = rows[i]
			}
			if i < len(rep.Rows) {
				b = rep.Rows[i]
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("row %d: scenario %v, driver %v", i, a, b)
			}
		}
		t.Fatalf("scenario-derived rows (%d) differ from driver report rows (%d)", len(rows), len(rep.Rows))
	}

	// The driver's first note embeds both integrated penalties at %.4g;
	// rebuilding it from the scenario results pins the integrals too.
	wantNote := fmt.Sprintf("%s DCN (%d links): integrated penalty switch-local %.4g vs corropt %.4g",
		"small", c.Topo.NumLinks(), sl.IntegratedPenalty, co.IntegratedPenalty)
	if len(rep.Notes) == 0 || rep.Notes[0] != wantNote {
		t.Fatalf("driver note mismatch:\n  want %q\n  got  %q", wantNote, rep.Notes)
	}
}
