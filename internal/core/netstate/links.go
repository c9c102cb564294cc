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
	"math/bits"
	"slices"

	"corropt/internal/topology"
)

// Links indexes the per-link corruption rates: the invariants are
// corrupting == {l : rate(l) > 0} and live == {l : rate(l) > 0 ∧ rate(l) >=
// threshold ∧ l enabled}, ascending.
type Links struct {
	// rates holds the worst-direction corruption rate per link; zero for
	// healthy links. Disabled links keep their rate so that re-enabling a
	// still-broken link is visible to the caller.
	rates sparse
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

// sparse maps links to float64 values, zero by default, storing only the
// non-zero ones: an open-addressing hash table with linear probing, grown
// to the most values it has held at once and kept at that size, so memory
// follows the corrupting links, not the fabric, and a steady state
// allocates nothing. Reads and writes are O(1) expected. The table's order
// is no order: every walk in link order goes through a LinkSet.
type sparse struct {
	slots []slot // empty, or a power of two of them
	shift uint8  // 64 - log2(len(slots)): home keeps a hash's top bits
	n     int    // occupied slots
}

// slot is one entry of a sparse table; key is the link plus one, and zero
// marks an empty slot.
type slot struct {
	key int32
	v   float64
}

// home is the slot where link l's probe starts (Fibonacci hashing).
func (s *sparse) home(l topology.LinkID) int {
	return int((uint64(l) * 0x9E3779B97F4A7C15) >> s.shift)
}

// find returns the slot holding link l, or the empty slot that ends its
// probe, and whether l is there. The table must not be empty.
func (s *sparse) find(l topology.LinkID) (int, bool) {
	mask := len(s.slots) - 1
	for i := s.home(l); ; i = (i + 1) & mask {
		switch s.slots[i].key {
		case int32(l) + 1:
			return i, true
		case 0:
			return i, false
		}
	}
}

// get returns link l's value.
func (s *sparse) get(l topology.LinkID) float64 {
	if s.n == 0 {
		return 0
	}
	if i, ok := s.find(l); ok {
		return s.slots[i].v
	}
	return 0
}

// set stores v as link l's value and returns the value it replaced.
func (s *sparse) set(l topology.LinkID, v float64) (old float64) {
	if s.n == 0 && v == 0 {
		return 0
	}
	if len(s.slots) == 0 {
		s.resize(8)
	}
	i, ok := s.find(l)
	switch {
	case ok && v == 0:
		old = s.slots[i].v
		s.remove(i)
	case ok:
		old, s.slots[i].v = s.slots[i].v, v
	case v != 0:
		if 4*(s.n+1) > 3*len(s.slots) {
			s.resize(2 * len(s.slots))
			i, _ = s.find(l)
		}
		s.slots[i] = slot{int32(l) + 1, v}
		s.n++
	}
	return old
}

// remove empties slot i, moving back each later entry of its probe run
// that an empty slot at i would hide from its home.
func (s *sparse) remove(i int) {
	mask := len(s.slots) - 1
	for j := (i + 1) & mask; s.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j stays unless its home lies cyclically outside
		// (i, j].
		h := s.home(topology.LinkID(s.slots[j].key - 1))
		if (i < j && i < h && h <= j) || (j < i && (i < h || h <= j)) {
			continue
		}
		s.slots[i] = s.slots[j]
		i = j
	}
	s.slots[i] = slot{}
	s.n--
}

// resize rehashes the table into size slots.
func (s *sparse) resize(size int) {
	old := s.slots
	//lint:allow escapes the table grows only past the most values it has held at once
	s.slots = make([]slot, size)
	s.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e.key != 0 {
			i, _ := s.find(topology.LinkID(e.key - 1))
			s.slots[i] = e
		}
	}
}

// reset makes every value zero, keeping the table.
func (s *sparse) reset() {
	clear(s.slots)
	s.n = 0
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
	x.rates.reset()
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
	return x.rates.get(l)
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
	old := x.rates.set(l, rate)
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
		if x.reportable(x.rates.get(l)) {
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
	rates     *sparse
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
		if it.rate = it.rates.get(l); it.rate >= it.threshold {
			return l
		}
	}
}

// Rate returns the recorded rate of the link Next last returned.
func (it *ActiveIter) Rate() float64 { return it.rate }
