package netstate

import (
	"corropt/internal/linkmap"
	"corropt/internal/topology"
)

// RebuildEvery bounds floating-point drift of the incremental penalty sum:
// after this many O(1) delta updates, the next Sum re-sums the cached
// contributions exactly. Rebuilds cost O(#corrupting links) and amortize to
// O(1) per update.
const RebuildEvery = 1024

// Penalty accumulates §5.1's objective Σ (1-d_l)·I(f_l) once Register
// installs an impact function: contribs caches each link's current
// contribution (I(rate) when the link is enabled and corrupting, else 0),
// and sum is Σ contribs, maintained in O(1) per rate change or toggle.
type Penalty struct {
	fn       func(rate float64) float64
	contribs linkmap.Table[float64]
	sum      float64
	// ops counts updates folded into sum since the last exact rebuild.
	ops int
}

// Func returns the registered impact function, nil when none is.
func (p *Penalty) Func() func(rate float64) float64 { return p.fn }

// Register installs fn as the impact function and computes the sum from
// scratch over links' active corrupting set; a nil fn turns accounting off.
// The contribution table is kept across registrations, so a pooled
// network's per-scenario Register allocates nothing once it has grown.
func (p *Penalty) Register(fn func(rate float64) float64, links *Links, disabled topology.LinkSetView) {
	p.fn = fn
	if fn == nil {
		p.sum, p.ops = 0, 0
		return
	}
	p.contribs.Reset()
	p.Refresh(links, disabled)
}

// Update folds link l's contribution at rate, enabled or not, into the sum.
// Network.Disable and Enable call it before the disabled set flips, so the
// new state is passed explicitly.
//
//lint:hotpath runs on every SetCorruption/Disable/Enable event
func (p *Penalty) Update(l topology.LinkID, rate float64, disabled bool) {
	if p.fn == nil {
		return
	}
	var c float64
	if rate > 0 && !disabled {
		c = p.fn(rate)
	}
	if old := p.contribs.Set(l, c); old != c {
		p.sum += c - old
		p.ops++
	}
}

// panicUnregistered is pre-converted to an interface at package scope: a
// literal panic("...") performs a string-to-interface conversion whose
// operand the compiler heap-allocates at every call site, and every
// hot-path settle reads Sum — the escapes analyzer holds those frames to
// zero compiler-reported escapes.
var panicUnregistered any = "core: PenaltySum called without RegisterPenalty"

// Sum returns the running sum, re-summed exactly once every RebuildEvery
// updates so incremental drift never outlives one epoch. It panics if no
// impact function is registered.
//
//lint:hotpath every Sim.settle and control-plane status read lands here
func (p *Penalty) Sum(links *Links) float64 {
	if p.fn == nil {
		panic(panicUnregistered)
	}
	if p.ops >= RebuildEvery {
		p.Rebuild(links)
	}
	return p.sum
}

// Refresh recomputes every corrupting link's contribution after the
// disabled set changed wholesale, then re-sums exactly.
func (p *Penalty) Refresh(links *Links, disabled topology.LinkSetView) {
	if p.fn == nil {
		return
	}
	it := links.Corrupting()
	for l := it.Next(); l != topology.NoLink; l = it.Next() {
		var c float64
		if !disabled.Has(l) {
			c = p.fn(links.rates.Get(l))
		}
		p.contribs.Set(l, c)
	}
	p.Rebuild(links)
}

// Rebuild re-sums the cached contributions exactly, over the corrupting set
// in ascending link order: term for term the additions of a fresh scan over
// every link, so the result is bit-identical to it.
func (p *Penalty) Rebuild(links *Links) {
	sum := 0.0
	it := links.Corrupting()
	for l := it.Next(); l != topology.NoLink; l = it.Next() {
		sum += p.contribs.Get(l)
	}
	p.sum, p.ops = sum, 0
}
