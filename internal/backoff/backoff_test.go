package backoff

import (
	"testing"
	"time"

	"corropt/internal/rngutil"
)

func TestDelayGrowsAndCaps(t *testing.T) {
	want := []time.Duration{10, 20, 40, 80, 160, 320, 640, 1000, 1000}
	for i, w := range want {
		if got := Delay(i, nil); got != w*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestDelayJitterBoundsAndDeterminism(t *testing.T) {
	a := rngutil.New(42).Split("retry")
	b := rngutil.New(42).Split("retry")
	for i := 0; i < 10; i++ {
		da := Delay(i, a)
		db := Delay(i, b)
		if da != db {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i, da, db)
		}
		center := float64(Delay(i, nil))
		lo, hi := time.Duration(center*0.8), time.Duration(center*1.2)
		if da < lo || da > hi {
			t.Fatalf("retry %d delay %v outside [%v, %v]", i, da, lo, hi)
		}
	}
	// A different seed must produce a different schedule somewhere.
	c := rngutil.New(43).Split("retry")
	d := rngutil.New(42).Split("retry")
	same := true
	for i := 0; i < 10; i++ {
		if Delay(i, c) != Delay(i, d) {
			same = false
		}
	}
	if same {
		t.Fatal("distinct seeds produced identical jittered schedules")
	}
}
