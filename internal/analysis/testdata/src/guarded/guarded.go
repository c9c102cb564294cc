// Package guarded is the mutexheld golden package: Net's fields may only be
// written by the sanctioned writers (New, Add, Apply) configured in the
// test.
package guarded

// LinkSet mirrors the repository's bitset shape.
type LinkSet struct{ bits []uint64 }

// Add inserts l.
func (s *LinkSet) Add(l int) { s.bits[l>>6] |= 1 << (uint(l) & 63) }

// Clear empties the set.
func (s *LinkSet) Clear() { clear(s.bits) }

// Has reports whether l is in the set.
func (s *LinkSet) Has(l int) bool { return s.bits[l>>6]&(1<<(uint(l)&63)) != 0 }

// Net mimics core.Network: cached aggregate state that must only change
// through methods that update every piece together.
type Net struct {
	sum   float64
	items []int
	count int
	set   LinkSet
	// Pub is exported so cross-package writes can be exercised (guardedx).
	Pub int
}

// New is a sanctioned constructor.
func New() *Net {
	n := &Net{set: LinkSet{bits: make([]uint64, 1)}}
	n.count = 0
	return n
}

// Add is a sanctioned writer.
func (n *Net) Add(v int) {
	n.items = append(n.items, v)
	n.count++
	n.sum += float64(v)
	n.set.Add(v)
}

// dropSet is NOT sanctioned: a LinkSet mutator called on a guarded field
// is a write, while a read-only method is not.
func (n *Net) dropSet() bool {
	n.set.Clear() // want `Clear\(\) call to guarded field Net\.set outside its sanctioned mutation methods \(dropSet\)`
	return n.set.Has(0)
}

// Apply is sanctioned; its closure inherits the sanction.
func (n *Net) Apply(vs []int) {
	each(vs, func(v int) {
		n.sum += float64(v)
		n.items = append(n.items, v)
	})
	n.count += len(vs)
}

func each(vs []int, f func(int)) {
	for _, v := range vs {
		f(v)
	}
}

// Reset is NOT sanctioned: every write is a finding.
func (n *Net) Reset() {
	n.count = 0 // want `guarded field Net\.count`
	n.sum = 0   // want `guarded field Net\.sum`
}

// bump is NOT sanctioned.
func (n *Net) bump() {
	n.count++ // want `guarded field Net\.count`
}

// setItem writes through the field: element writes count as field writes.
func (n *Net) setItem(i, v int) {
	n.items[i] = v // want `guarded field Net\.items`
}

// Sum only reads: reads are always fine.
func (n *Net) Sum() float64 { return n.sum }

// allowedWrite documents its exception.
func (n *Net) allowedWrite() {
	n.count = 7 //lint:allow mutexheld golden negative case: test-only reset
}

// other has a same-named Add method on an unrelated type: its writes to its
// own fields must not be flagged.
type other struct {
	count int
}

func (o *other) Add(v int) { o.count += v }
func (o *other) Reset()    { o.count = 0 }
