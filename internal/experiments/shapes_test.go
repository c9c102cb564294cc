package experiments

import (
	"strconv"
	"testing"
)

func cellF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad numeric cell %q", s)
	}
	return v
}

// TestHotspotShape pins the §5.1 motivation numbers: blind disabling
// concentrates load and partitions; CorrOpt bounds both; switch-local
// freezes.
func TestHotspotShape(t *testing.T) {
	rep, err := Run("hotspot", Config{Scale: ScaleSmall, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows: %v", rep.Rows)
	}
	healthy, blind, corropt, switchLocal := rep.Rows[0], rep.Rows[1], rep.Rows[2], rep.Rows[3]
	if cellF(t, healthy[2]) != 1 {
		t.Fatalf("healthy max load %v, want 1", healthy[2])
	}
	if cellF(t, blind[2]) < 2 {
		t.Fatalf("blind disabling max load %v, want ≥2x", blind[2])
	}
	if cellF(t, blind[3]) == 0 {
		t.Fatal("blind disabling should partition some demand in this scenario")
	}
	if cellF(t, corropt[2]) >= cellF(t, blind[2]) {
		t.Fatal("CorrOpt should bound load concentration below blind disabling")
	}
	if cellF(t, corropt[3]) != 0 {
		t.Fatal("CorrOpt must not partition")
	}
	if cellF(t, corropt[4]) < 0.75 {
		t.Fatalf("CorrOpt violated the constraint: %v", corropt[4])
	}
	if switchLocal[1] != "0" {
		t.Fatalf("switch-local should be frozen at ToR radix 4: %v", switchLocal)
	}
}

// TestHeteroShape pins §5.1's heterogeneous-requirement limitation.
func TestHeteroShape(t *testing.T) {
	rep, err := Run("hetero", Config{Scale: ScaleSmall, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	strict, lax, fast, optimal := rep.Rows[0], rep.Rows[1], rep.Rows[2], rep.Rows[3]
	strictDisabled := cellF(t, strict[1])
	if strictDisabled > 2 {
		t.Fatalf("globally-strict switch-local disabled %v links; the paper's point is ~none", strict[1])
	}
	if lax[3] != "VIOLATED" {
		t.Fatalf("lax switch-local should violate the hot ToRs: %v", lax)
	}
	for _, row := range [][]string{fast, optimal} {
		if row[3] != "true" {
			t.Fatalf("CorrOpt violated constraints: %v", row)
		}
		if cellF(t, row[1]) < strictDisabled+10 {
			t.Fatalf("CorrOpt should disable far more than strict switch-local: %v", row)
		}
	}
	if cellF(t, optimal[2]) > cellF(t, strict[2]) {
		t.Fatal("CorrOpt's remaining penalty should be below strict switch-local's")
	}
}

// TestFramesAgreement: the bit-level channel and the abstract loss model
// agree within sampling error wherever the sample is meaningful.
func TestFramesAgreement(t *testing.T) {
	rep, err := Run("frames", Config{Scale: ScaleSmall, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 3 {
		t.Fatalf("too few margins sampled: %v", rep.Rows)
	}
	for _, row := range rep.Rows {
		ratio := cellF(t, row[5])
		if ratio < 0.5 || ratio > 2 {
			t.Fatalf("margin %s: observed/model ratio %v out of band", row[0], ratio)
		}
	}
}

// TestTicketqMonotone: more technicians and better accuracy never hurt.
func TestTicketqMonotone(t *testing.T) {
	rep, err := Run("ticketq", Config{Scale: ScaleSmall, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Rows alternate (tech, 50%), (tech, 80%) for tech in {1,2,4,unlimited}.
	if len(rep.Rows) != 8 {
		t.Fatalf("rows: %d", len(rep.Rows))
	}
	for i := 0; i < 8; i += 2 {
		low, high := rep.Rows[i], rep.Rows[i+1]
		if cellF(t, high[3]) > cellF(t, low[3]) {
			t.Fatalf("better accuracy should not need more attempts: %v vs %v", high, low)
		}
	}
	// Unlimited technicians at 80% beats one technician at 50% on every
	// axis.
	worst, best := rep.Rows[0], rep.Rows[7]
	if cellF(t, best[4]) > cellF(t, worst[4]) {
		t.Fatalf("best staffing should lower penalty: %v vs %v", best[4], worst[4])
	}
	if cellF(t, best[5]) > cellF(t, worst[5]) {
		t.Fatalf("best staffing should lower mean links down: %v vs %v", best[5], worst[5])
	}
}
