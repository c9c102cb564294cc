// Package linkmap keeps per-link values for the few links that have one.
// Corruption strikes a small minority of links (§2–3), so the state that
// follows it — recorded rates, penalty contributions, ticket tallies — is
// held in a Table sized to those links, not to the fabric.
package linkmap

import (
	"math/bits"

	"corropt/internal/topology"
)

// Table maps links to values of type V, the zero value by default, storing
// only the non-zero ones: an open-addressing hash table with linear probing
// and backward-shift deletion, grown to the most values it has held at once
// and kept at that size, so memory follows the links with a value and a
// steady state allocates nothing. A Go map would leave a tombstone for each
// deleted value and grow again under steady insert/delete churn. Reads and
// writes are O(1) expected. The table's order is no order: every walk in
// link order goes through a LinkSet. Link ids must be non-negative.
type Table[V comparable] struct {
	slots []slot[V] // empty, or a power of two of them
	shift uint8     // 64 - log2(len(slots)): home keeps a hash's top bits
	n     int       // occupied slots
}

// slot is one entry of a Table; key is the link plus one, and zero marks an
// empty slot.
type slot[V comparable] struct {
	key int32
	v   V
}

// home is the slot where link l's probe starts (Fibonacci hashing).
func (s *Table[V]) home(l topology.LinkID) int {
	return int((uint64(l) * 0x9E3779B97F4A7C15) >> s.shift)
}

// find returns the slot holding link l, or the empty slot that ends its
// probe, and whether l is there. The table must not be empty.
func (s *Table[V]) find(l topology.LinkID) (int, bool) {
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

// Len reports how many links have a non-zero value.
func (s *Table[V]) Len() int { return s.n }

// Get returns link l's value. It walks the probe itself instead of calling
// find, which keeps it inside the compiler's inlining budget: the rate
// reads on the decision path inline it.
func (s *Table[V]) Get(l topology.LinkID) (v V) {
	if s.n == 0 {
		return v
	}
	mask := len(s.slots) - 1
	for i := s.home(l); s.slots[i].key != 0; i = (i + 1) & mask {
		if s.slots[i].key == int32(l)+1 {
			return s.slots[i].v
		}
	}
	return v
}

// Set stores v as link l's value, the zero value removing it, and returns
// the value it replaced.
func (s *Table[V]) Set(l topology.LinkID, v V) (old V) {
	var zero V
	if s.n == 0 && v == zero {
		return zero
	}
	if len(s.slots) == 0 {
		s.resize(8)
	}
	i, ok := s.find(l)
	switch {
	case ok && v == zero:
		old = s.slots[i].v
		s.remove(i)
	case ok:
		old, s.slots[i].v = s.slots[i].v, v
	case v != zero:
		if 4*(s.n+1) > 3*len(s.slots) {
			s.resize(2 * len(s.slots))
			i, _ = s.find(l)
		}
		s.slots[i] = slot[V]{int32(l) + 1, v}
		s.n++
	}
	return old
}

// remove empties slot i, moving back each later entry of its probe run
// that an empty slot at i would hide from its home.
func (s *Table[V]) remove(i int) {
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
	s.slots[i] = slot[V]{}
	s.n--
}

// resize rehashes the table into size slots.
func (s *Table[V]) resize(size int) {
	old := s.slots
	//lint:allow escapes the table grows only past the most values it has held at once
	s.slots = make([]slot[V], size)
	s.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e.key != 0 {
			i, _ := s.find(topology.LinkID(e.key - 1))
			s.slots[i] = e
		}
	}
}

// Reset makes every value zero, keeping the table.
func (s *Table[V]) Reset() {
	clear(s.slots)
	s.n = 0
}
