package netstate

import (
	"math"
	"slices"
	"testing"

	"corropt/internal/topology"
)

// FuzzLinksDifferential drives Links through random Set, Toggle, Key,
// Rebuild and Reset steps, with a Penalty registered, updated and refreshed
// the way core.Network does, against a dense reference: one rate per link
// and a scan over every link. After every step the sparse index must agree
// with it on every link's rate, the corrupting set, the live list, the
// active set at random thresholds and each link's penalty contribution, and
// an exact rebuild of the penalty sum must equal the in-order dense scan
// bit for bit.
func FuzzLinksDifferential(f *testing.F) {
	f.Add([]byte{5, 0, 2, 0, 3, 4, 0, 7, 5, 1, 3, 0, 0, 3, 6, 6, 2, 1, 0, 3, 7})
	f.Add([]byte{0, 1, 4, 0, 2, 4, 0, 1, 0, 1, 1, 0, 3, 0, 2, 4, 0, 0, 0, 2, 0})
	f.Add([]byte{5, 0, 1, 0, 64, 5, 0, 127, 6, 0, 65, 6, 3, 60, 15, 5, 0, 2, 0, 64, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const numLinks = 150 // three bitset words
		rates := []float64{0, 1e-9, 1e-8, 1e-6, 3e-6, 1e-3, 0.5, 1, -1, math.NaN()}
		thresholds := []float64{1e-6, 0, -1, 1e-8, 1e-3, 1}
		impacts := []func(float64) float64{
			nil,
			func(r float64) float64 { return r },
			func(r float64) float64 { return math.Sqrt(r) },
		}
		x := NewLinks(numLinks, thresholds[0])
		var pen Penalty
		disabled := topology.NewLinkSet(numLinks)
		ref := make([]float64, numLinks)
		threshold := thresholds[0]
		var fn func(float64) float64

		for step := 0; step+2 < len(ops); step += 3 {
			a, b := ops[step+1], ops[step+2]
			l := topology.LinkID(int(a) % numLinks)
			switch ops[step] % 7 {
			case 0, 6:
				r := rates[int(b)%len(rates)]
				if !(r > 0) {
					r = 0
				}
				changed := x.Set(l, rates[int(b)%len(rates)], disabled.Has(l))
				if want := ref[l] != r; changed != want {
					t.Fatalf("step %d: Set(%d, %v) reported change %v, want %v", step/3, l, r, changed, want)
				}
				ref[l] = r
				if changed {
					pen.Update(l, x.Rate(l), disabled.Has(l))
				}
			case 1:
				down := !disabled.Has(l)
				pen.Update(l, x.Rate(l), down)
				x.Toggle(l, down)
				if down {
					disabled.Add(l)
				} else {
					disabled.Remove(l)
				}
			case 2:
				threshold = thresholds[int(b)%len(thresholds)]
				x.Key(threshold, disabled.View())
			case 3:
				// A wholesale change of the disabled set, as a loaded state makes.
				for i := 0; i <= int(b)%9; i++ {
					if m := topology.LinkID((int(a) + 17*i) % numLinks); disabled.Has(m) {
						disabled.Remove(m)
					} else {
						disabled.Add(m)
					}
				}
				x.Rebuild(disabled.View())
				pen.Refresh(&x, disabled.View())
			case 4:
				threshold = thresholds[int(b)%len(thresholds)]
				x.Reset(threshold)
				disabled.Clear()
				clear(ref)
				fn = nil
				pen.Register(nil, &x, disabled.View())
			case 5:
				fn = impacts[int(b)%len(impacts)]
				pen.Register(fn, &x, disabled.View())
			}
			checkLinks(t, step/3, &x, ref, disabled, threshold, float64(a)/64-1)
			checkPenalty(t, step/3, &pen, &x, ref, disabled, fn)
		}
	})
}

// checkLinks holds x to the dense rates ref: every rate, the corrupting
// set, the live list keyed to threshold and the active set at threshold and
// at probe.
func checkLinks(t *testing.T, step int, x *Links, ref []float64, disabled *topology.LinkSet, threshold, probe float64) {
	t.Helper()
	var corrupting []topology.LinkID
	for i, r := range ref {
		l := topology.LinkID(i)
		if got := x.Rate(l); math.Float64bits(got) != math.Float64bits(r) {
			t.Fatalf("step %d: Rate(%d) = %v, reference %v", step, l, got, r)
		}
		if r > 0 {
			corrupting = append(corrupting, l)
		}
	}
	if x.rates.Len() != len(corrupting) {
		t.Fatalf("step %d: %d rates stored for %d corrupting links", step, x.rates.Len(), len(corrupting))
	}
	var got []topology.LinkID
	it := x.Corrupting()
	for l := it.Next(); l != topology.NoLink; l = it.Next() {
		got = append(got, l)
	}
	if !slices.Equal(got, corrupting) {
		t.Fatalf("step %d: corrupting set %v, reference %v", step, got, corrupting)
	}
	active := func(th float64) []topology.LinkID {
		var out []topology.LinkID
		for i, r := range ref {
			if r > 0 && r >= th && !disabled.Has(topology.LinkID(i)) {
				out = append(out, topology.LinkID(i))
			}
		}
		return out
	}
	if x.Threshold() != threshold {
		t.Fatalf("step %d: keyed to %v, reference %v", step, x.Threshold(), threshold)
	}
	if live, want := x.AppendLive(nil), active(threshold); !slices.Equal(live, want) || x.NumLive() != len(want) {
		t.Fatalf("step %d: live list %v (%d), reference %v", step, live, x.NumLive(), want)
	}
	for _, th := range []float64{threshold, probe, 0} {
		got = got[:0]
		it := x.Active(th, disabled.View())
		for l := it.Next(); l != topology.NoLink; l = it.Next() {
			if it.Rate() != ref[l] {
				t.Fatalf("step %d: active walk at %v reads rate %v for link %d, reference %v", step, th, it.Rate(), l, ref[l])
			}
			got = append(got, l)
		}
		if want := active(th); !slices.Equal(got, want) {
			t.Fatalf("step %d: active set at %v is %v, reference %v", step, th, got, want)
		}
	}
}

// checkPenalty holds pen, with impact function fn, to the dense scan over
// ref: each link's cached contribution, the running sum within drift, and,
// every fourth step, an exact rebuild bit for bit.
func checkPenalty(t *testing.T, step int, pen *Penalty, x *Links, ref []float64, disabled *topology.LinkSet, fn func(float64) float64) {
	t.Helper()
	if fn == nil {
		if pen.Func() != nil {
			t.Fatalf("step %d: an impact function is registered, want none", step)
		}
		return
	}
	want := 0.0
	for i, r := range ref {
		l := topology.LinkID(i)
		c := 0.0
		if r > 0 && !disabled.Has(l) {
			c = fn(r)
		}
		if got := pen.contribs.Get(l); got != c {
			t.Fatalf("step %d: link %d contributes %v, reference %v", step, l, got, c)
		}
		want += c
	}
	if got := pen.Sum(x); math.Abs(got-want) > 1e-9 {
		t.Fatalf("step %d: running penalty %v, reference %v", step, got, want)
	}
	if step%4 != 3 {
		return // let drift build up between exact rebuilds
	}
	pen.Rebuild(x)
	if got := pen.Sum(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: rebuilt penalty %v, in-order dense scan %v", step, got, want)
	}
}
