package linkmap

import (
	"testing"

	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// TestTableMatchesMap drives one Table through seeded random writes, a
// third of them zeros that delete, over enough links to grow it several
// times and wrap its probe runs, and holds every value, the count and the
// load bound to a map after each write.
func TestTableMatchesMap(t *testing.T) {
	const numLinks = 700
	var s Table[float64]
	ref := map[topology.LinkID]float64{}
	rng := rngutil.New(1)
	for step := 0; step < 20000; step++ {
		l := topology.LinkID(rng.Intn(numLinks))
		v := 0.0
		if rng.Intn(3) > 0 {
			v = float64(rng.Intn(5) + 1)
		}
		if got, want := s.Set(l, v), ref[l]; got != want {
			t.Fatalf("step %d: set(%d, %v) replaced %v, want %v", step, l, v, got, want)
		}
		if v == 0 {
			delete(ref, l)
		} else {
			ref[l] = v
		}
		if s.n != len(ref) || 4*s.n > 3*len(s.slots) {
			t.Fatalf("step %d: %d values in %d slots, want %d values at most 3/4 full", step, s.n, len(s.slots), len(ref))
		}
		if step%97 == 0 {
			for m := topology.LinkID(0); m < numLinks; m++ {
				if got := s.Get(m); got != ref[m] {
					t.Fatalf("step %d: get(%d) = %v, want %v", step, m, got, ref[m])
				}
			}
		}
	}
}
