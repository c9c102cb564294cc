package experiments

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

func TestListCoversAllRegistered(t *testing.T) {
	list := List()
	want := []string{"fig1", "tab1", "fig2", "fig3", "fig4", "fig5", "tab2",
		"fig7912", "fig10", "fig11", "fig13", "fig14", "fig1516", "fig17",
		"fig18", "fig19", "sec72", "sec73", "thm51", "ext8", "hotspot", "hetero", "frames", "ticketq", "tiers", "fleet", "sec2"}
	got := make(map[string]bool)
	for _, e := range list {
		got[e[0]] = true
		if e[1] == "" {
			t.Errorf("experiment %s has no description", e[0])
		}
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(list) != len(want) {
		t.Errorf("registered %d experiments, index lists %d", len(list), len(want))
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", Config{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestAllExperimentsRunSmall smoke-runs every experiment at small scale and
// checks the reports are well-formed.
func TestAllExperimentsRunSmall(t *testing.T) {
	for _, e := range List() {
		id := e[0]
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, Config{Scale: ScaleSmall, Seed: 1})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if rep.ID != id {
				t.Fatalf("report id %q for experiment %q", rep.ID, id)
			}
			if len(rep.Rows) == 0 {
				t.Fatalf("%s produced no rows", id)
			}
			for _, row := range rep.Rows {
				if len(row) != len(rep.Header) {
					t.Fatalf("%s: row width %d != header width %d: %v", id, len(row), len(rep.Header), row)
				}
			}
			var buf bytes.Buffer
			if err := rep.WriteTSV(&buf); err != nil {
				t.Fatalf("%s: WriteTSV: %v", id, err)
			}
			if !strings.HasPrefix(buf.String(), "# "+id) {
				t.Fatalf("%s: TSV preamble missing", id)
			}
		})
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"tab1", "fig4", "fig10", "thm51"} {
		a, err := Run(id, Config{Scale: ScaleSmall, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(id, Config{Scale: ScaleSmall, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var ba, bb bytes.Buffer
		a.WriteTSV(&ba)
		b.WriteTSV(&bb)
		if ba.String() != bb.String() {
			t.Fatalf("%s not deterministic", id)
		}
	}
}

// TestFig10Numbers pins the exact Figure 10 results.
func TestFig10Numbers(t *testing.T) {
	rep, err := Run("fig10", Config{Scale: ScaleSmall, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows: %v", rep.Rows)
	}
	naive, conservative, optimal := rep.Rows[0], rep.Rows[1], rep.Rows[2]
	if naive[3] != "false" {
		t.Fatalf("naive switch-local should violate the constraint: %v", naive)
	}
	if conservative[3] != "true" {
		t.Fatalf("conservative switch-local should meet the constraint: %v", conservative)
	}
	if optimal[1] != "12" || optimal[3] != "true" {
		t.Fatalf("optimal should disable 12: %v", optimal)
	}
	nc, _ := strconv.Atoi(conservative[1])
	if nc >= 12 {
		t.Fatalf("conservative disabled %d, expected far fewer than 12", nc)
	}
}

// TestTab1Shape checks the Table 1 reproduction keeps the published shape:
// corruption heavy-tailed, congestion concentrated in the lightest bucket.
func TestTab1Shape(t *testing.T) {
	rep, err := Run("tab1", Config{Scale: ScaleSmall, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	lightCong := parse(rep.Rows[0][2])
	heavyCorr := parse(rep.Rows[3][1])
	heavyCong := parse(rep.Rows[3][2])
	if lightCong < 70 {
		t.Fatalf("lightest congestion bucket = %v%%, want dominant", lightCong)
	}
	if heavyCorr < 5 {
		t.Fatalf("heaviest corruption bucket = %v%%, want ≈12.7%%", heavyCorr)
	}
	if heavyCong > heavyCorr {
		t.Fatalf("congestion tail %v%% exceeds corruption tail %v%%", heavyCong, heavyCorr)
	}
}

// TestSec72Ordering checks legacy < deployed < followed accuracy.
func TestSec72Ordering(t *testing.T) {
	rep, err := Run("sec72", Config{Scale: ScaleSmall, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	parse := func(s string) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		return v
	}
	legacy := parse(rep.Rows[0][1])
	deployed := parse(rep.Rows[1][1])
	followed := parse(rep.Rows[2][1])
	if !(legacy < followed) {
		t.Fatalf("legacy %v should be below followed %v", legacy, followed)
	}
	if deployed < legacy-10 || deployed > followed+10 {
		t.Fatalf("deployed %v should sit between legacy %v and followed %v", deployed, legacy, followed)
	}
	if followed < 65 {
		t.Fatalf("followed accuracy %v%%, want ≳80%%", followed)
	}
}

func TestWriteJSON(t *testing.T) {
	rep, err := Run("fig11", Config{Scale: ScaleSmall, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID   string     `json:"id"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.ID != "fig11" || len(doc.Rows) == 0 {
		t.Fatalf("doc: %+v", doc)
	}
}
