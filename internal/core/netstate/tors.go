package netstate

import (
	"math"
	"math/bits"
	"slices"

	"corropt/internal/topology"
)

// constraintSlack absorbs float64 rounding when comparing exact integer
// path-count ratios against fractional constraints.
const constraintSlack = 1e-9

// ToRs keeps, per ToR, the capacity constraint, whether the path counter's
// incremental counts meet it, and — once Fractions is first read — the
// cached available-path fraction. Refresh and Recompute update both halves
// for each changed ToR; RefreshFractions only the second. Every per-ToR
// slice is indexed by the ToR's position in topo.ToRs()
// (topology.ToRIndex), so no slot is kept for a switch above the ToRs.
type ToRs struct {
	topo *topology.Topology
	// uniform is every ToR's minimum fraction of valley-free spine paths
	// that must remain available, until SetConstraint gives one ToR its
	// own; from then on own holds each ToR's. Most networks never do, and
	// keep no per-ToR slot for it.
	uniform float64
	own     []float64
	// meetsNow caches whether each ToR meets its constraint under the
	// incremental counts; numViolated counts the ToRs that do not.
	meetsNow    []bool
	numViolated int

	// The fraction cache. The first read builds it (fleet shards never read
	// it, so they never pay for it); after that each changed ToR's fraction
	// is stored and dirty lowered to the lowest changed position, and a read
	// re-sums only from the checkpoint at or below dirty.
	//   - frac holds count/total per position, 0 for a ToR with no paths;
	//     nil until built.
	//   - notOne has bit p set iff frac[p] != 1.0: about half the ToRs of a
	//     running simulation sit at exactly 1.0, and a run of them is summed
	//     without visiting each (AddOnes).
	//   - sum[k] and low[k] are the in-order running sum and minimum of
	//     frac[:64k]; the last entry holds the whole list's.
	frac   []float64
	notOne []uint64
	sum    []float64
	low    []float64
	dirty  int
}

// NewToRs returns the status of topo's ToRs, each constrained to c, under
// pc's incremental counts.
func NewToRs(topo *topology.Topology, c float64, pc *topology.PathCounter) ToRs {
	s := ToRs{topo: topo, meetsNow: make([]bool, len(topo.ToRs()))}
	s.Reset(c, pc)
	return s
}

// Reset constrains every ToR to c and rebuilds the status from pc. The
// per-ToR constraints are dropped, their storage kept for the next
// SetConstraint.
func (s *ToRs) Reset(c float64, pc *topology.PathCounter) {
	s.uniform, s.own = c, s.own[:0]
	s.Recompute(pc)
}

// constraint reports the capacity constraint of the ToR at position p.
func (s *ToRs) constraint(p int) float64 {
	if p < len(s.own) {
		return s.own[p]
	}
	return s.uniform
}

// Constraint reports the capacity constraint of a ToR.
func (s *ToRs) Constraint(tor topology.SwitchID) float64 {
	p := s.topo.ToRIndex(tor)
	_ = s.meetsNow[p] // a switch that is not a ToR panics
	return s.constraint(p)
}

// SetConstraint sets one ToR's constraint and re-evaluates it. The first
// call gives every ToR its own slot, holding the uniform constraint.
func (s *ToRs) SetConstraint(tor topology.SwitchID, c float64, pc *topology.PathCounter) {
	p := s.topo.ToRIndex(tor)
	if len(s.own) == 0 {
		s.own = slices.Grow(s.own, len(s.meetsNow))[:len(s.meetsNow)]
		for i := range s.own {
			s.own[i] = s.uniform
		}
	}
	s.own[p] = c
	s.refresh(tor, pc.IncCounts(), pc.Total())
}

// Met reports whether ToR tor meets its constraint under the incremental
// counts.
func (s *ToRs) Met(tor topology.SwitchID) bool { return s.meetsNow[s.topo.ToRIndex(tor)] }

// NumViolated counts the ToRs that do not meet their constraints.
func (s *ToRs) NumViolated() int { return s.numViolated }

// panicToRRange is pre-converted at package scope: a literal panic("...")
// performs a string-to-interface conversion whose operand the compiler
// heap-allocates at every call site, and Meets and ProbeMeets run on the
// fast check's decision path.
var panicToRRange any = "netstate: Meets: ToR index out of range"

// Meets reports whether ToR tor meets its constraint given per-ToR counts
// and totals. The up-front range guards replace the implicit bounds checks
// the indexed reads would otherwise each carry inside the decision loops;
// out-of-range ToRs still panic.
func (s *ToRs) Meets(tor topology.SwitchID, counts, total []int64) bool {
	i := int(tor)
	if i < 0 || i >= len(counts) {
		panic(panicToRRange)
	}
	return s.meetsCount(tor, counts[i], total)
}

// meetsCount reports whether ToR tor meets its constraint with count paths.
func (s *ToRs) meetsCount(tor topology.SwitchID, count int64, total []int64) bool {
	i, p := int(tor), s.topo.ToRIndex(tor)
	if i < 0 || i >= len(total) || p < 0 || p >= len(s.meetsNow) {
		panic(panicToRRange)
	}
	if total[i] == 0 {
		return s.constraint(p) <= 0
	}
	frac := float64(count) / float64(total[i])
	return frac+constraintSlack >= s.constraint(p)
}

// ProbeMeets reports whether every ToR in tors would meet its constraint at
// the counts pc's pending probe would leave (topology.PathCounter.Probed).
func (s *ToRs) ProbeMeets(tors []topology.SwitchID, pc *topology.PathCounter) bool {
	total := pc.Total()
	for _, tor := range tors {
		if !s.meetsCount(tor, pc.Probed(tor), total) {
			return false
		}
	}
	return true
}

// refresh re-evaluates one ToR against counts, maintaining numViolated and,
// once built, the fraction cache.
func (s *ToRs) refresh(tor topology.SwitchID, counts, total []int64) {
	now, p := s.Meets(tor, counts, total), s.topo.ToRIndex(tor)
	if now != s.meetsNow[p] {
		s.meetsNow[p] = now
		if now {
			s.numViolated--
		} else {
			s.numViolated++
		}
	}
	if s.frac != nil {
		s.setFraction(p, Fraction(counts[tor], total[tor]))
	}
}

// Refresh re-evaluates the given ToRs (typically the changed set of an
// incremental toggle) against pc.
func (s *ToRs) Refresh(changed []topology.SwitchID, pc *topology.PathCounter) {
	counts, total := pc.IncCounts(), pc.Total()
	for _, tor := range changed {
		s.refresh(tor, counts, total)
	}
}

// RefreshFractions is Refresh for a toggle that cannot have changed any
// ToR's met status: it stores the changed ToRs' fractions, and only once the
// fraction cache is built.
func (s *ToRs) RefreshFractions(changed []topology.SwitchID, pc *topology.PathCounter) {
	if s.frac == nil {
		return
	}
	counts, total := pc.IncCounts(), pc.Total()
	for _, tor := range changed {
		s.setFraction(s.topo.ToRIndex(tor), Fraction(counts[tor], total[tor]))
	}
}

// Recompute rebuilds every ToR's status from pc.
func (s *ToRs) Recompute(pc *topology.PathCounter) {
	s.numViolated = 0
	counts, total := pc.IncCounts(), pc.Total()
	for p, tor := range s.topo.ToRs() {
		ok := s.Meets(tor, counts, total)
		s.meetsNow[p] = ok
		if !ok {
			s.numViolated++
		}
	}
	if s.frac != nil {
		s.fill(pc)
	}
}

// Fraction is a ToR's available-path fraction: count/total, or 0 for a ToR
// with no paths to the spine at all.
func Fraction(count, total int64) float64 {
	if total > 0 {
		return float64(count) / float64(total)
	}
	return 0
}

// Fractions reports the minimum and the average per-ToR available-path
// fraction under pc's incremental counts, bit-identical to one in-order
// pass over the ToRs; see core.Network.ToRFractions. The first read builds
// the cache: O(|ToRs|) once.
func (s *ToRs) Fractions(pc *topology.PathCounter) (worst, mean float64) {
	if len(s.meetsNow) == 0 {
		return 1.0, 0
	}
	if s.frac == nil {
		//lint:allow escapes builds the fraction cache once per Network, on its first read
		s.build(pc)
	}
	sum, worst := s.sumFractions()
	return worst, sum / float64(len(s.meetsNow))
}

// build allocates the fraction cache and fills it.
func (s *ToRs) build(pc *topology.PathCounter) {
	blocks := (len(s.meetsNow) + 63) / 64
	s.frac = make([]float64, len(s.meetsNow))
	s.notOne = make([]uint64, blocks)
	s.sum = make([]float64, blocks+1)
	s.low = make([]float64, blocks+1)
	s.low[0] = 1.0
	s.fill(pc)
}

// fill recomputes every cached fraction from pc's incremental counts; the
// next read re-sums from the first ToR.
func (s *ToRs) fill(pc *topology.PathCounter) {
	counts, total := pc.IncCounts(), pc.Total()
	clear(s.notOne)
	for p, tor := range s.topo.ToRs() {
		f := Fraction(counts[tor], total[tor])
		s.frac[p] = f
		if f != 1.0 {
			s.notOne[p>>6] |= 1 << (uint(p) & 63)
		}
	}
	s.dirty = 0
}

// setFraction stores the fraction of the ToR at position p.
func (s *ToRs) setFraction(p int, f float64) {
	if s.frac[p] == f {
		return
	}
	s.frac[p] = f
	if f != 1.0 {
		s.notOne[p>>6] |= 1 << (uint(p) & 63)
	} else {
		s.notOne[p>>6] &^= 1 << (uint(p) & 63)
	}
	s.dirty = min(s.dirty, p)
}

// sumFractions resumes the in-order pass over the cached fractions at the
// checkpoint of dirty's block, re-recording each later checkpoint, and
// returns the running sum and minimum of the whole list.
func (s *ToRs) sumFractions() (sum, worst float64) {
	blocks := len(s.notOne)
	if s.dirty == len(s.frac) {
		return s.sum[blocks], s.low[blocks]
	}
	k := s.dirty >> 6
	sum, worst = s.sum[k], s.low[k]
	for ; k < blocks; k++ {
		s.sum[k], s.low[k] = sum, worst
		next, end := k<<6, min(k<<6+64, len(s.frac))
		for w := s.notOne[k]; w != 0; w &= w - 1 {
			p := k<<6 + bits.TrailingZeros64(w)
			if p > next {
				sum = AddOnes(sum, p-next)
			}
			f := s.frac[p]
			sum += f
			if f < worst { // not min(): with its NaN and signed-zero handling this loop ran 2.7× slower on amd64
				worst = f
			}
			next = p + 1
		}
		if end > next {
			sum = AddOnes(sum, end-next)
		}
	}
	s.sum[blocks], s.low[blocks] = sum, worst
	s.dirty = len(s.frac)
	return sum, worst
}

// AddOnes returns s after k sequential s += 1 — the in-order sum over a run
// of k fractions equal to 1.0 — bit for bit, in one addition per power of
// two the sum crosses. For 1 <= s < 2^53, s and every integer are multiples
// of the unit in the last place of s's binade [b/2, b), so s + j is exact
// while it stays below b and equals j single additions; only the addition
// that reaches b rounds, and it is done as the loop does it. Outside that
// range the loop is run as written.
func AddOnes(s float64, k int) float64 {
	for k > 0 {
		if !(s >= 1 && s < 1<<53) {
			s++
			k--
			continue
		}
		b := math.Float64frombits((math.Float64bits(s)>>52 + 1) << 52) // next power of two above s
		j := int(math.Ceil(b-s)) - 1                                   // b-s is exact (Sterbenz)
		if k <= j {
			return s + float64(k)
		}
		s += float64(j)
		s++
		k -= j + 1
	}
	return s
}
