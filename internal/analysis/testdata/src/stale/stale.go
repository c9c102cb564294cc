// Package stale is the golden for mutexheld's alias rule: writes that reach
// guarded Netw state through local aliases are flagged outside the
// sanctioned writers — they are not syntactic n.field writes, but they land
// in the same backing storage.
package stale

// LinkSet mirrors the repository's bitset shape.
type LinkSet struct{ bits []uint64 }

// Add inserts l.
func (s *LinkSet) Add(l int) { s.bits[l>>6] |= 1 << (uint(l) & 63) }

// Clear empties the set.
func (s *LinkSet) Clear() {
	for i := range s.bits {
		s.bits[i] = 0
	}
}

// Netw models core.Network: incremental caches that must only change
// together, inside the sanctioned writers.
type Netw struct {
	contrib  []float64
	disabled *LinkSet
	sum      float64
	count    int
}

// New is a sanctioned writer.
func New(n int) *Netw {
	return &Netw{contrib: make([]float64, n), disabled: &LinkSet{bits: make([]uint64, (n+63)/64)}}
}

// Disable is a sanctioned writer: aliasing the caches inside it is fine.
func (n *Netw) Disable(l int) {
	c := n.contrib
	n.sum -= c[l]
	c[l] = 0
	n.disabled.Add(l)
	n.count++
}

// Sum is a read-only accessor.
func (n *Netw) Sum() float64 { return n.sum }

// badElem desynchronizes contrib from sum through a local alias.
func badElem(n *Netw) {
	c := n.contrib
	c[0] = 1 // want "write through \"c\" to guarded field Netw.contrib"
}

// badSet mutates the guarded disabled set through an alias.
func badSet(n *Netw) {
	d := n.disabled
	d.Add(1) // want "Add\\(\\) call through \"d\" to guarded field Netw.disabled"
}

// badChain launders the alias through a second local.
func badChain(n *Netw) {
	c := n.contrib
	d := c
	d[2] = 3 // want "write through \"d\" to guarded field Netw.contrib"
}

// badAddr writes a scalar field through its address.
func badAddr(n *Netw) {
	p := &n.sum
	*p = 0 // want "write through \"p\" to guarded field Netw.sum"
}

// valueCopies copy scalars: no aliasing, no finding.
func valueCopies(n *Netw) float64 {
	s := n.sum
	s++
	k := n.count
	k++
	return s + float64(k)
}

// freshSlice writes into an independent slice: fine.
func freshSlice(n *Netw) []float64 {
	out := make([]float64, len(n.contrib))
	copy(out, n.contrib)
	out[0] = 9
	return out
}

// reads may alias without writing: fine.
func reads(n *Netw) float64 {
	c := n.contrib
	return c[0]
}

// allowedAlias documents a sanctioned out-of-band write.
func allowedAlias(n *Netw) {
	c := n.contrib
	c[1] = 0 //lint:allow mutexheld test fixture resets contrib before reload
}
