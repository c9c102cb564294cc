// Package netstate holds core.Network's derived state: the caches its
// figures and decisions read, which must change together with the recorded
// rates and the path counter's disabled set. Each of the three types owns
// one invariant behind unexported fields, so only its own methods can write
// it, and core.Network calls them in order on every mutation:
//
//   - Links indexes the recorded corruption rates (the corrupting set and
//     the live list of active corrupting links at the keyed threshold);
//   - Penalty accumulates §5.1's objective Σ (1-d_l)·I(f_l) incrementally;
//   - ToRs keeps each ToR's constraint status and the cached per-ToR
//     available-path fractions.
//
// None of them is safe for concurrent use.
package netstate

import (
	"slices"

	"corropt/internal/linkmap"
	"corropt/internal/topology"
)

// Links indexes the per-link corruption rates: the invariants are
// corrupting == {l : rate(l) > 0} and live == {l : rate(l) > 0 ∧ rate(l) >=
// threshold ∧ l enabled}, ascending.
type Links struct {
	// rates holds the worst-direction corruption rate per link; zero for
	// healthy links. Disabled links keep their rate so that re-enabling a
	// still-broken link is visible to the caller.
	rates linkmap.Table[float64]
	// corrupting indexes the links with a recorded rate. They are a few dozen
	// among tens of thousands, so every read that needs them walks this set
	// word by word, and it is the O(1) check for a healthy link.
	corrupting *topology.LinkSet
	// threshold is the detection threshold the live list is keyed to. Most
	// recorded rates sit between the 1e-8 lossy floor and the 1e-6 operators
	// act on (§2).
	threshold float64
	// live lists the enabled links at or above threshold: the active
	// corrupting set every simulator sample, optimizer run and baseline
	// sweep reads, so those reads are a length or a copy of a few dozen
	// links.
	live []topology.LinkID
}

// NewLinks returns an index of numLinks healthy links keyed to threshold.
func NewLinks(numLinks int, threshold float64) Links {
	return Links{
		corrupting: topology.NewLinkSet(numLinks),
		threshold:  threshold,
	}
}

// Reset makes every link healthy and keys the index to threshold, reusing
// its storage.
func (x *Links) Reset(threshold float64) {
	x.rates.Reset()
	x.corrupting.Clear()
	x.live = x.live[:0]
	x.threshold = threshold
}

// Rate reports the recorded corruption rate of link l. The corrupting set
// answers for a healthy link, whose search of rates would run to an empty
// slot.
func (x *Links) Rate(l topology.LinkID) float64 {
	if !x.corrupting.Has(l) {
		return 0
	}
	return x.rates.Get(l)
}

// Threshold reports the detection threshold the live list is keyed to.
func (x *Links) Threshold() float64 { return x.threshold }

// reportable reports whether a link recording rate is in the live list when
// enabled.
func (x *Links) reportable(rate float64) bool { return rate > 0 && rate >= x.threshold }

// Set records rate for link l, whose disabled state is given; anything that
// is not a positive number (NaN included) clears it. It reports whether the
// recorded rate changed.
func (x *Links) Set(l topology.LinkID, rate float64, disabled bool) bool {
	if !(rate > 0) {
		if !x.corrupting.Has(l) {
			return false
		}
		rate = 0
	}
	old := x.rates.Set(l, rate)
	if old == rate {
		return false
	}
	if rate > 0 {
		x.corrupting.Add(l)
	} else {
		x.corrupting.Remove(l)
	}
	if now := x.reportable(rate); !disabled && now != x.reportable(old) {
		x.setLive(l, now)
	}
	return true
}

// Toggle updates the live list as link l goes down (disabled) or up.
func (x *Links) Toggle(l topology.LinkID, disabled bool) {
	if x.reportable(x.Rate(l)) {
		x.setLive(l, !disabled)
	}
}

// Key keys the live list to threshold, rebuilding it when the key changes.
// An Engine calls it at construction: rates may already be recorded by then
// (a state loaded before the engine exists, a pooled network re-used at
// another threshold).
func (x *Links) Key(threshold float64, disabled topology.LinkSetView) {
	if threshold != x.threshold {
		x.threshold = threshold
		x.Rebuild(disabled)
	}
}

// Rebuild refills the live list after the disabled set changed wholesale.
func (x *Links) Rebuild(disabled topology.LinkSetView) {
	x.live = x.live[:0]
	it := x.corrupting.Iter(disabled)
	for l := it.Next(); l != topology.NoLink; l = it.Next() {
		if x.reportable(x.rates.Get(l)) {
			x.live = append(x.live, l)
		}
	}
}

// setLive adds link l to the live list (on) or removes it, keeping the list
// sorted.
func (x *Links) setLive(l topology.LinkID, on bool) {
	i, found := slices.BinarySearch(x.live, l)
	switch {
	case on && !found:
		x.live = slices.Insert(x.live, i, l)
	case !on && found:
		x.live = slices.Delete(x.live, i, i+1)
	}
}

// AppendLive appends the live list to dst.
func (x *Links) AppendLive(dst []topology.LinkID) []topology.LinkID {
	return append(dst, x.live...)
}

// NumLive reports the live list's length.
func (x *Links) NumLive() int { return len(x.live) }

// Corrupting returns an iterator over the links with a recorded rate, in
// ascending order. Clearing a link the walk already returned is allowed.
func (x *Links) Corrupting() topology.LinkIter {
	return x.corrupting.Iter(topology.LinkSetView{})
}

// ActiveIter walks the active corrupting links at one threshold in
// ascending link order; see Links.Active.
type ActiveIter struct {
	links     topology.LinkIter
	rates     *linkmap.Table[float64]
	threshold float64
	rate      float64 // the rate of the link Next last returned
}

// Active returns an iterator over the active corrupting links at threshold:
// the links with a recorded rate (rate > 0) at or above threshold that are
// not disabled. Healthy links are never active, whatever the threshold. It
// walks corrupting &^ disabled in ascending link order — the order, and so
// the float-addition order, of a scan over every link — at a cost of
// O(#links/64 + #corrupting), not O(#links).
func (x *Links) Active(threshold float64, disabled topology.LinkSetView) ActiveIter {
	return ActiveIter{links: x.corrupting.Iter(disabled), rates: &x.rates, threshold: threshold}
}

// Next returns the next active corrupting link, or topology.NoLink.
func (it *ActiveIter) Next() topology.LinkID {
	for {
		l := it.links.Next()
		if l == topology.NoLink {
			return l
		}
		if it.rate = it.rates.Get(l); it.rate >= it.threshold {
			return l
		}
	}
}

// Rate returns the recorded rate of the link Next last returned.
func (it *ActiveIter) Rate() float64 { return it.rate }
