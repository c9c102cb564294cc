// Package traffic models link utilization and congestion loss, the foil
// against which the paper contrasts corruption (§2–§3):
//
//   - congestion loss is strongly correlated with outgoing utilization
//     (mean Pearson ≈ 0.62 on the log of loss rate),
//   - it varies by orders of magnitude over a day (high coefficient of
//     variation),
//   - it affects many links but almost always mildly (Table 1: 92.44% of
//     congested links lose under 1e-5),
//   - it exhibits strong spatial locality (Figure 4: the affected-switch
//     fraction is ~20% of a random spread) because congestion clusters on
//     hotspot switches,
//   - and it is usually bidirectional (Figure 5: 72.7% of congested links
//     lose in both directions).
//
// Utilization follows a diurnal pattern; loss is a convex function of
// utilization above a knee, with multiplicative sampling noise. All draws
// are deterministic in (seed, link, direction, time) so experiments
// reproduce exactly.
package traffic

import (
	"hash/fnv"
	"math"
	"time"

	"corropt/internal/rngutil"
	"corropt/internal/stats"
	"corropt/internal/topology"
)

// The model's parameters. They are typed float64 so that an expression
// over them rounds at each operation, as run-time float64 arithmetic does:
// untyped, `1 - knee` would fold exactly and shift every loss rate.
const (
	// congestedLinkFraction is the fraction of link-directions that are
	// congestion-prone.
	congestedLinkFraction float64 = 0.10
	// bidirectionalProb is the probability that a congestion-prone link
	// is prone in both directions (Figure 5b).
	bidirectionalProb float64 = 0.727
	// knee is the utilization above which loss begins.
	knee float64 = 0.7
	// noiseSigma is the standard deviation of the multiplicative
	// log-normal sampling noise on loss rates.
	noiseSigma float64 = 0.8
)

// severityBucketWeights distributes congested links' mean loss rates over
// the Table 1 buckets: the congestion column, 92.44/6.35/0.99/0.22%.
var severityBucketWeights = [4]float64{0.9244, 0.0635, 0.0099, 0.0022}

// linkDirParams holds the per-direction traffic parameters of one link.
type linkDirParams struct {
	baseUtil float64 // mean utilization
	amp      float64 // diurnal amplitude
	phase    float64 // diurnal phase in radians
	severity float64 // peak loss scale; 0 for non-congested directions
}

// Model generates utilization and congestion loss time series.
type Model struct {
	topo  *topology.Topology
	seed  uint64
	par   [2][]linkDirParams // indexed by direction, link
	prone [2][]bool
}

// New builds a traffic model over the topology, deriving all randomness
// from rng.
func New(topo *topology.Topology, rng *rngutil.Source) *Model {
	m := &Model{topo: topo, seed: rng.Seed()}
	n := topo.NumLinks()
	for d := 0; d < 2; d++ {
		m.par[d] = make([]linkDirParams, n)
		m.prone[d] = make([]bool, n)
	}

	// Congestion clusters in hotspot regions: a link failure or a traffic
	// surge congests a whole neighborhood, not isolated links (this is
	// what gives congestion its strong spatial locality in Figure 4 and
	// its high bidirectionality in Figure 5). We model a hotspot as a
	// pod whose bottom-stage (ToR↔aggregation) links all become prone;
	// a small scattered remainder is spread uniformly.
	targetDirs := int(congestedLinkFraction * float64(2*n))
	assigned := 0
	mark := func(l topology.LinkID, d topology.Direction) {
		if !m.prone[d][l] {
			m.prone[d][l] = true
			assigned++
		}
	}
	markLink := func(l topology.LinkID) {
		d := topology.Direction(rng.Intn(2))
		mark(l, d)
		if rng.Bool(bidirectionalProb) {
			mark(l, 1-d)
		}
	}

	// Group bottom-stage links by the pod of their lower endpoint.
	podLinks := make(map[int][]topology.LinkID)
	var pods []int
	topo.Links(func(l *topology.Link) {
		low := topo.Switch(l.Lower)
		if low.Stage != 0 {
			return
		}
		if _, seen := podLinks[low.Pod]; !seen {
			pods = append(pods, low.Pod)
		}
		podLinks[low.Pod] = append(podLinks[low.Pod], l.ID)
	})
	rng.Shuffle(len(pods), func(i, j int) { pods[i], pods[j] = pods[j], pods[i] })
	clustered := int(0.85 * float64(targetDirs))
	for _, pod := range pods {
		if assigned >= clustered {
			break
		}
		for _, l := range podLinks[pod] {
			if assigned >= clustered {
				break
			}
			markLink(l)
		}
	}
	for attempt := 0; assigned < targetDirs && attempt < 10*targetDirs; attempt++ {
		markLink(topology.LinkID(rng.Intn(n)))
	}

	// Per-direction parameters.
	day := make([]float64, 96) // 15-minute grid for severity calibration
	for li := 0; li < n; li++ {
		for d := 0; d < 2; d++ {
			p := &m.par[d][li]
			p.phase = rng.Range(0, 2*math.Pi)
			if m.prone[d][li] {
				// Congested directions ride near the knee so the diurnal
				// peak pushes them over it for part of the day.
				p.baseUtil = rng.Range(knee-0.1, knee+0.05)
				p.amp = rng.Range(0.15, 0.3)
				meanShape := m.meanShape(p, day)
				if meanShape <= 0 {
					meanShape = 1e-3
				}
				target := m.sampleSeverity(rng)
				p.severity = target / meanShape
			} else {
				p.baseUtil = rng.Range(0.05, knee-0.15)
				p.amp = rng.Range(0.05, 0.15)
			}
		}
	}
	return m
}

// sampleSeverity draws a congested link's target mean loss rate from the
// configured Table 1 bucket weights.
func (m *Model) sampleSeverity(rng *rngutil.Source) float64 {
	buckets := stats.Table1Buckets()
	u := rng.Float64()
	acc := 0.0
	idx := len(buckets) - 1
	for i, w := range severityBucketWeights {
		acc += w
		if u < acc {
			idx = i
			break
		}
	}
	b := buckets[idx]
	hi := b.Hi
	if math.IsInf(hi, 1) {
		hi = 1e-2
	}
	return stats.LogUniform(rng.Float64(), b.Lo, hi)
}

// meanShape numerically averages the loss shape over one day for severity
// calibration.
func (m *Model) meanShape(p *linkDirParams, grid []float64) float64 {
	sum := 0.0
	for i := range grid {
		t := time.Duration(i) * 15 * time.Minute
		u := m.utilAt(p, t, 0) // noiseless
		sum += m.shape(u)
	}
	return sum / float64(len(grid))
}

// shape is the loss fraction of severity at utilization u.
func (m *Model) shape(u float64) float64 {
	if u <= knee {
		return 0
	}
	x := (u - knee) / (1 - knee)
	return x * x
}

func (m *Model) utilAt(p *linkDirParams, at time.Duration, noise float64) float64 {
	day := float64(24 * time.Hour)
	u := p.baseUtil + p.amp*math.Sin(2*math.Pi*float64(at)/day+p.phase) + noise
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// hashNoise produces two deterministic uniform draws in (0,1) for a
// (link, direction, time) sample.
func (m *Model) hashNoise(l topology.LinkID, d topology.Direction, at time.Duration) (float64, float64) {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []uint64{m.seed, uint64(l), uint64(d), uint64(at / time.Second)} {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	x := h.Sum64()
	// Split into two 32-bit halves, avoid exact 0.
	u1 := (float64(x>>32) + 1) / float64(1<<32+1)
	u2 := (float64(x&0xffffffff) + 1) / float64(1<<32+1)
	return u1, u2
}

// normal converts two uniforms into a standard normal via Box-Muller.
func normal(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Utilization reports the utilization of link l in direction d at virtual
// time at, in [0, 1].
func (m *Model) Utilization(l topology.LinkID, d topology.Direction, at time.Duration) float64 {
	u1, u2 := m.hashNoise(l, d, at)
	n := normal(u1, u2) * 0.02
	return m.utilAt(&m.par[d][l], at, n)
}

// LossRate reports the congestion loss rate of link l in direction d at
// virtual time at. Non-congested directions lose essentially nothing; prone
// directions lose as a convex function of utilization above the knee, with
// heavy multiplicative noise (this is what makes congestion's coefficient
// of variation large).
func (m *Model) LossRate(l topology.LinkID, d topology.Direction, at time.Duration) float64 {
	p := &m.par[d][l]
	if p.severity == 0 {
		return 0
	}
	u1, u2 := m.hashNoise(l, d, at)
	util := m.utilAt(p, at, normal(u1, u2)*0.02)
	s := m.shape(util)
	if s == 0 {
		return 0
	}
	noise := math.Exp(normal(u2, u1) * noiseSigma)
	rate := p.severity * s * noise
	if rate > 1 {
		return 1
	}
	return rate
}

// Prone reports whether direction d of link l is congestion-prone.
func (m *Model) Prone(l topology.LinkID, d topology.Direction) bool { return m.prone[d][l] }

// CongestedLinks returns the links with at least one congestion-prone
// direction.
func (m *Model) CongestedLinks() []topology.LinkID {
	var out []topology.LinkID
	for l := 0; l < m.topo.NumLinks(); l++ {
		if m.prone[0][l] || m.prone[1][l] {
			out = append(out, topology.LinkID(l))
		}
	}
	return out
}
