// Package telemetry emulates the monitoring pipeline the paper's operators
// run: every 15 minutes, SNMP queries collect each link's packet totals,
// packet errors (CRC failures — corruption), packet drops (congestion), and
// the transceivers' optical transmit/receive power levels.
//
// A Collector polls ground truth (the fault state and the traffic model) and
// maintains cumulative counters plus, for watched links, an observation time
// series. Counter readings carry multiplicative measurement noise so that
// derived corruption-rate series have a small but non-zero coefficient of
// variation, as in Figure 2.
//
// The noise is log-normal with median 1 and log-standard-deviation
// Config.NoiseSigma, and it is a pure function of (seed, link, direction,
// time): a counter-based draw — one 64-bit mix of the four — picks one of
// noiseQuantiles equiprobable quantiles from a table built once per
// Collector. §3's finding is that a corrupting link's loss rate is stable,
// so a poll of a 15,120-link fabric should cost a read per link, not a
// logarithm, a cosine, a square root and an exponential per link and
// direction; the table pays for those once.
package telemetry

import (
	"math"
	"sync"
	"time"

	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/topology"
	"corropt/internal/traffic"
)

// DefaultInterval is the polling cadence used in the paper's data centers.
const DefaultInterval = 15 * time.Minute

// Observation is one polled snapshot of a link.
type Observation struct {
	At time.Duration
	// Disabled records that the link was administratively down at poll
	// time; disabled links carry no traffic and report no optics (§8
	// notes monitoring stops when a link is disabled).
	Disabled bool
	// Util is the link utilization per direction.
	Util [2]float64
	// CorruptionRate is errors/packets per direction over the interval.
	CorruptionRate [2]float64
	// CongestionRate is drops/packets per direction over the interval.
	CongestionRate [2]float64
	// TxPower and RxPower are the optical power readings per side
	// (indexed by optics.Side).
	TxPower [2]optics.DBm
	RxPower [2]optics.DBm
}

// Counters are the cumulative per-link SNMP counters, per direction.
type Counters struct {
	Packets [2]uint64
	Errors  [2]uint64
	Drops   [2]uint64
}

// Config parameterizes a Collector.
type Config struct {
	// Interval between polls; default DefaultInterval.
	Interval time.Duration
	// LineRatePPS is the packet throughput of a fully utilized direction;
	// default 1e6 packets/s (small frames at 10G would be higher; the
	// absolute value only scales counters).
	LineRatePPS float64
	// NoiseSigma is the log-normal measurement noise applied to error
	// counts; default 0.25, giving corruption-rate series a CV well under
	// congestion's.
	NoiseSigma float64
	// Seed makes the measurement noise reproducible.
	Seed uint64
}

func (c *Config) fillDefaults() {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.LineRatePPS == 0 {
		c.LineRatePPS = 1e6
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 0.25
	}
}

// Collector polls link state into counters and observation series.
//
// A Collector is safe for concurrent reads (Latest, Series, Counters) while
// one goroutine polls — the deployment shape, where the snmplite responder
// serves counter queries while the 15-minute poll loop runs.
type Collector struct {
	mu       sync.RWMutex
	cfg      Config
	state    *faults.State
	traffic  *traffic.Model
	disabled topology.DisabledFunc
	counters []Counters
	// series holds the observations of watched links; watched[l] mirrors
	// its key set so Poll tests a slice, not a map, for every link.
	series  map[topology.LinkID][]Observation
	watched []bool
	latest  []Observation
	// polled is set by the first Poll, which observes every link.
	polled bool
	// quantiles is the noise table: entry i is the (i+½)/noiseQuantiles
	// quantile of the log-normal measurement noise.
	quantiles []float64
}

// NewCollector builds a Collector over ground-truth sources. disabled, if
// non-nil, reports administratively-down links, which are observed as
// Disabled with no traffic. The traffic model may be nil, in which case all
// directions run at a fixed 50% utilization with no congestion.
func NewCollector(state *faults.State, tm *traffic.Model, disabled topology.DisabledFunc, cfg Config) *Collector {
	cfg.fillDefaults()
	n := state.Topology().NumLinks()
	c := &Collector{
		cfg:       cfg,
		state:     state,
		traffic:   tm,
		disabled:  disabled,
		counters:  make([]Counters, n),
		series:    make(map[topology.LinkID][]Observation),
		watched:   make([]bool, n),
		latest:    make([]Observation, n),
		quantiles: make([]float64, noiseQuantiles),
	}
	for i := range c.quantiles {
		p := (float64(i) + 0.5) / noiseQuantiles
		c.quantiles[i] = math.Exp(cfg.NoiseSigma * math.Sqrt2 * math.Erfinv(2*p-1))
	}
	return c
}

// Interval reports the polling interval.
func (c *Collector) Interval() time.Duration { return c.cfg.Interval }

// Watch records full observation series for the given links. Unwatched
// links keep only their latest observation and cumulative counters, which
// bounds memory on large topologies.
func (c *Collector) Watch(links ...topology.LinkID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range links {
		c.watched[l] = true
	}
}

// Poll takes one snapshot of every link at virtual time now.
func (c *Collector) Poll(now time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seconds := c.cfg.Interval.Seconds()
	stream := c.noiseStream(now)
	for li := range c.latest {
		l := topology.LinkID(li)
		// Written in place: every field is assigned on either branch.
		obs := &c.latest[li]
		if c.disabled != nil && c.disabled(l) {
			*obs = Observation{At: now, Disabled: true}
		} else {
			obs.At = now
			obs.Disabled = false
			ol := c.state.Optics(l)
			obs.TxPower[optics.LowerSide] = ol.TxPower(optics.LowerSide)
			obs.TxPower[optics.UpperSide] = ol.TxPower(optics.UpperSide)
			obs.RxPower[optics.LowerSide] = ol.RxPower(optics.LowerSide)
			obs.RxPower[optics.UpperSide] = ol.RxPower(optics.UpperSide)
			ctr := &c.counters[li]
			for d := topology.Up; d <= topology.Down; d++ {
				util := 0.5
				congestion := 0.0
				if c.traffic != nil {
					util = c.traffic.Utilization(l, d, now)
					congestion = c.traffic.LossRate(l, d, now)
				}
				corruption := c.state.CorruptionRate(l, d) * c.noise(stream, l, d)
				if corruption > 1 {
					corruption = 1
				}
				packets := util * c.cfg.LineRatePPS * seconds
				obs.Util[d] = util
				obs.CorruptionRate[d] = corruption
				obs.CongestionRate[d] = congestion
				ctr.Packets[d] += uint64(packets)
				ctr.Errors[d] += uint64(packets * corruption)
				ctr.Drops[d] += uint64(packets * congestion)
			}
		}
		if c.watched[li] {
			c.series[l] = append(c.series[l], *obs)
		}
	}
	c.polled = true
}

const (
	// noiseQuantiles is the size of the noise table: 1024 float64s, 8 KiB.
	// Quantile i sits at probability (i+½)/1024, so the tails stop at
	// ±3.30σ — a reading is never more than exp(3.3σ) (2.3× at the default
	// σ) off the truth — and the table's log-variance is 0.999 σ².
	noiseBits      = 10
	noiseQuantiles = 1 << noiseBits
	// golden is 2⁶⁴/φ, SplitMix64's stream increment.
	golden = 0x9e3779b97f4a7c15
)

// mix64 is SplitMix64's output function (Steele, Lea & Flood 2014): a
// bijection on 64 bits whose outputs over consecutive multiples of golden
// pass BigCrush, which is what keeps adjacent links, directions and ticks
// uncorrelated.
func mix64(x uint64) uint64 {
	x += golden
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// noiseStream keys the draws of the poll at virtual time at. The key takes
// the full nanosecond count: polls less than a second apart are different
// polls.
func (c *Collector) noiseStream(at time.Duration) uint64 {
	return mix64(c.cfg.Seed ^ mix64(uint64(at)))
}

// noise returns the multiplicative measurement noise for one sample: the
// quantile picked by the top bits of the stream's draw for (link,
// direction). With noiseStream it is deterministic in (seed, link,
// direction, time) and nothing else.
func (c *Collector) noise(stream uint64, l topology.LinkID, d topology.Direction) float64 {
	return c.quantiles[mix64(stream+(uint64(l)<<1|uint64(d))*golden)>>(64-noiseBits)]
}

// Latest returns the most recent observation of link l; ok is false before
// the first poll.
func (c *Collector) Latest(l topology.LinkID) (Observation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.latest[l], c.polled
}

// Series returns the recorded observations of a watched link; nil for
// unwatched links. The returned slice must not be mutated; it remains valid
// across later polls (growth replaces the backing array atomically under
// the lock).
func (c *Collector) Series(l topology.LinkID) []Observation {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.series[l]
}

// Counters returns the cumulative counters of link l.
func (c *Collector) Counters(l topology.LinkID) Counters {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.counters[l]
}
