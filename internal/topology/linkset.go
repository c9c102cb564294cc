package topology

import "math/bits"

// LinkSet is a fixed-capacity bitset over LinkIDs. It replaces
// map[LinkID]bool and DisabledFunc closures on the hot feasibility-check
// paths: membership is a single word load plus a shift, with no hashing, no
// pointer chasing, and no per-call closure allocation.
//
// The zero value is an empty set with zero capacity; use NewLinkSet (or
// Reset) to size it for a topology. All methods are nil-safe for reads: a
// nil *LinkSet behaves as the empty set.
type LinkSet struct {
	words []uint64
}

// NewLinkSet returns an empty set with capacity for links 0..numLinks-1.
func NewLinkSet(numLinks int) *LinkSet {
	return &LinkSet{words: make([]uint64, (numLinks+63)/64)}
}

// Reset re-sizes the set for numLinks links and clears it, reusing the
// existing storage when large enough.
func (s *LinkSet) Reset(numLinks int) {
	n := (numLinks + 63) / 64
	if cap(s.words) < n {
		s.words = make([]uint64, n)
		return
	}
	s.words = s.words[:n]
	for i := range s.words {
		s.words[i] = 0
	}
}

// Has reports whether l is in the set. Out-of-range and negative ids are
// reported as absent, so a set built for one topology never panics when
// probed with a sentinel NoLink.
func (s *LinkSet) Has(l LinkID) bool {
	if s == nil || l < 0 {
		return false
	}
	w := uint(l) >> 6
	if w >= uint(len(s.words)) {
		return false
	}
	return s.words[w]>>(uint(l)&63)&1 != 0
}

// Add inserts l. Adding beyond the constructed capacity grows the set; hot
// paths (PathCounter.Apply on the incremental disabled set) always add
// within the capacity NewLinkSet sized for the topology, so the growth loop
// body never runs there.
func (s *LinkSet) Add(l LinkID) {
	w := int(uint(l) >> 6)
	for w >= len(s.words) {
		//lint:allow hotalloc growth only when adding past constructed capacity; hot paths stay within it
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (uint(l) & 63)
}

// Remove deletes l; removing an absent link is a no-op.
func (s *LinkSet) Remove(l LinkID) {
	w := int(uint(l) >> 6)
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(l) & 63)
	}
}

// Clear empties the set, keeping its capacity.
func (s *LinkSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Len reports the number of links in the set (a popcount over the words).
func (s *LinkSet) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// CopyFrom makes s an exact copy of other (nil other clears s).
func (s *LinkSet) CopyFrom(other *LinkSet) {
	if other == nil {
		s.Clear()
		return
	}
	if cap(s.words) < len(other.words) {
		s.words = make([]uint64, len(other.words))
	}
	s.words = s.words[:len(other.words)]
	copy(s.words, other.words)
}

// Union adds every link of other to s (growing s if needed).
func (s *LinkSet) Union(other *LinkSet) {
	if other == nil {
		return
	}
	for len(s.words) < len(other.words) {
		s.words = append(s.words, 0)
	}
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// Clone returns an independent copy of the set.
func (s *LinkSet) Clone() *LinkSet {
	c := &LinkSet{}
	c.CopyFrom(s)
	return c
}

// Each calls fn for every link in the set in increasing id order.
func (s *LinkSet) Each(fn func(LinkID)) {
	if s == nil {
		return
	}
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(LinkID(wi*64 + b))
			w &= w - 1
		}
	}
}

// LinkIter walks a LinkSet in increasing id order without the Each closure,
// so hot paths can iterate a sparse set with zero captures; see Iter.
type LinkIter struct {
	words, skip []uint64
	wi          int    // the word w was taken from
	w           uint64 // links of word wi not yet returned
}

// Iter returns an iterator over the links that are in s and not in except; a
// nil except excludes nothing. The whole walk costs O(words + links
// returned). The iterator reads each word once, on reaching it, so removing
// a link it has already returned does not disturb the walk.
func (s *LinkSet) Iter(except *LinkSet) LinkIter {
	it := LinkIter{wi: -1}
	if s != nil {
		it.words = s.words
	}
	if except != nil {
		it.skip = except.words
	}
	return it
}

// Next returns the next link, or NoLink once the walk is over. The sets it
// walks are sparse, so the scan for the next non-empty word keeps its state
// in locals and reads except only where s has a link.
func (it *LinkIter) Next() LinkID {
	w, wi := it.w, it.wi
	for w == 0 {
		wi++
		if wi >= len(it.words) {
			it.wi = len(it.words)
			return NoLink
		}
		if w = it.words[wi]; w != 0 && wi < len(it.skip) {
			w &^= it.skip[wi]
		}
	}
	it.wi, it.w = wi, w&(w-1)
	return LinkID(wi<<6 | bits.TrailingZeros64(w))
}

// Func adapts the set to the DisabledFunc interface for callers that still
// take a predicate.
func (s *LinkSet) Func() DisabledFunc {
	return func(l LinkID) bool { return s.Has(l) }
}
