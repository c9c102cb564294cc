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
//
// A poll pays only for links whose readings it cannot work out later. With
// no traffic model, a link that is neither watched nor faulted, and whose
// technology's healthy rate yields no error at any noise quantile, counts a
// fixed number of packets per poll and nothing else: such a quiet link, and
// a disabled one, costs a poll a disabled test, a fault test and a status
// compare, and its counters and latest observation are derived when read.
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
	// NoiseSigma is the log-normal measurement noise applied to error
	// counts; default 0.25, giving corruption-rate series a CV well under
	// congestion's.
	NoiseSigma float64
	// Seed makes the measurement noise reproducible.
	Seed uint64
}

// lineRatePPS is the packet throughput of a fully utilized direction:
// 1e6 packets/s (small frames at 10G would be higher; the absolute value
// only scales counters).
const lineRatePPS float64 = 1e6

func (c *Config) fillDefaults() {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 0.25
	}
}

// Collector polls link state into counters and observation series.
//
// A Collector is safe for concurrent reads (Latest, Series, Counters, Read)
// while one goroutine polls — the deployment shape, where the snmplite
// responder serves counter queries while the 15-minute poll loop runs.
//
// Each link is in one of three states, set by the last poll (or by Watch):
//   - walked: the poll read its ground truth, as every poll of a link with a
//     traffic model, a watch or a fault does; its observation is in
//     latest[slot[l]], a pooled slot it gives back when it leaves the state;
//   - quiet: see the package comment. counters[l] holds its packets less
//     polls·perPoll (mod 2⁶⁴), so its true count is that plus polls·perPoll,
//     and its observation is its technology's healthy optics and rate with
//     the noise of the last poll;
//   - off: administratively down at the last poll (or never polled): its
//     counters do not move and its observation is Disabled.
//
// Leaving quiet folds the run of quiet polls into counters[l]. Quiet and off
// links are never watched: Watch walks a link from then on.
type Collector struct {
	mu       sync.RWMutex
	cfg      Config
	state    *faults.State
	traffic  *traffic.Model
	disabled topology.DisabledFunc
	counters []Counters
	status   []linkStatus
	// slot[l] picks a walked link's observation from latest; free lists
	// the slots no link holds.
	slot   []int32
	latest []Observation
	free   []int32
	// series holds the observations of watched links; watched[l] mirrors
	// its key set so Poll tests a slice, not a map, for every link.
	series  map[topology.LinkID][]Observation
	watched []bool
	// polls counts the polls so far and lastAt is the virtual time of the
	// last one.
	polls  uint64
	lastAt time.Duration
	// packets is what a direction at the fixed 50% utilization carries
	// per poll, perPoll the count it adds.
	packets float64
	perPoll uint64
	// quantiles is the noise table: entry i is the (i+½)/noiseQuantiles
	// quantile of the log-normal measurement noise.
	quantiles []float64
}

// linkStatus is what the last poll did with a link; see Collector.
type linkStatus uint8

const (
	off linkStatus = iota
	quiet
	walked
)

// NewCollector builds a Collector over ground-truth sources. disabled, if
// non-nil, reports administratively-down links, which are observed as
// Disabled with no traffic. The traffic model may be nil, in which case all
// directions run at a fixed 50% utilization with no congestion.
//
// state must never be Reset while the Collector reads it: a quiet link's
// observation is derived from its technology, which Reset may change.
func NewCollector(state *faults.State, tm *traffic.Model, disabled topology.DisabledFunc, cfg Config) *Collector {
	cfg.fillDefaults()
	n := state.Topology().NumLinks()
	c := &Collector{
		cfg:       cfg,
		state:     state,
		traffic:   tm,
		disabled:  disabled,
		counters:  make([]Counters, n),
		status:    make([]linkStatus, n),
		slot:      make([]int32, n),
		series:    make(map[topology.LinkID][]Observation),
		watched:   make([]bool, n),
		quantiles: make([]float64, noiseQuantiles),
	}
	for i := range c.quantiles {
		p := (float64(i) + 0.5) / noiseQuantiles
		c.quantiles[i] = math.Exp(cfg.NoiseSigma * math.Sqrt2 * math.Erfinv(2*p-1))
	}
	c.packets = 0.5 * lineRatePPS * cfg.Interval.Seconds()
	c.perPoll = uint64(c.packets)
	return c
}

// quietRate reports whether a direction corrupting at rate, carrying
// c.packets, counts no error at any noise draw. The quantile table rises
// with its index, and every step from the draw to the count is monotone, so
// the largest draw decides.
func (c *Collector) quietRate(rate float64) bool {
	return uint64(c.packets*min(rate*c.quantiles[noiseQuantiles-1], 1)) == 0
}

// NumLinks reports how many links the collector polls.
func (c *Collector) NumLinks() int { return len(c.counters) }

// Interval reports the polling interval.
func (c *Collector) Interval() time.Duration { return c.cfg.Interval }

// Watch records full observation series for the given links. Unwatched
// links keep only their latest observation and cumulative counters, which
// bounds memory on large topologies. A watched link is walked by every poll
// from then on.
func (c *Collector) Watch(links ...topology.LinkID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range links {
		if c.watched[l] {
			continue
		}
		c.watched[l] = true
		if c.status[l] != walked {
			obs, _ := c.latestOf(l)
			c.move(l, walked)
			c.latest[c.slot[l]] = obs
		}
	}
}

// Poll takes one snapshot of every link at virtual time now.
func (c *Collector) Poll(now time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	stream := c.noiseStream(now)
	for li, was := range c.status {
		l := topology.LinkID(li)
		down := c.disabled != nil && c.disabled(l)
		// The links that stay off or quiet: all but a few.
		if down && was == off || !down && was == quiet && c.state.ActiveFaults(l) == nil {
			continue
		}
		next := walked
		if !c.watched[li] {
			if down {
				next = off
			} else if c.traffic == nil && c.state.ActiveFaults(l) == nil {
				if _, rate := c.state.Healthy(l); c.quietRate(rate) {
					next = quiet
				}
			}
		}
		c.move(l, next)
		if next != walked {
			continue
		}
		// Written in place: every field is assigned on either branch.
		obs := &c.latest[c.slot[li]]
		if down {
			*obs = Observation{At: now, Disabled: true}
		} else {
			c.observe(obs, &c.counters[li], l, now, stream, c.state.Optics(l),
				c.state.CorruptionRate(l, topology.Up), c.state.CorruptionRate(l, topology.Down))
		}
		if c.watched[li] {
			c.series[l] = append(c.series[l], *obs)
		}
	}
	c.polls++
	c.lastAt = now
}

// move puts link l in status to at poll count c.polls. It folds a quiet run
// into the link's counters or starts one, and takes or returns the link's
// observation slot.
func (c *Collector) move(l topology.LinkID, to linkStatus) {
	from := c.status[l]
	if from == to {
		return
	}
	ctr := &c.counters[l]
	switch from {
	case quiet:
		ctr.Packets[topology.Up] += c.polls * c.perPoll
		ctr.Packets[topology.Down] += c.polls * c.perPoll
	case walked:
		c.free = append(c.free, c.slot[l])
	}
	switch to {
	case quiet:
		ctr.Packets[topology.Up] -= c.polls * c.perPoll
		ctr.Packets[topology.Down] -= c.polls * c.perPoll
	case walked:
		if n := len(c.free); n > 0 {
			c.slot[l], c.free = c.free[n-1], c.free[:n-1]
		} else {
			c.slot[l] = int32(len(c.latest))
			c.latest = append(c.latest, Observation{})
		}
	}
	c.status[l] = to
}

// observe is one poll's reading of link l, which is not disabled, at
// virtual time now: written to obs and added to ctr, from the link's optics
// ol and its corruption rates up and down.
func (c *Collector) observe(obs *Observation, ctr *Counters, l topology.LinkID, now time.Duration, stream uint64, ol *optics.Link, up, down float64) {
	obs.At = now
	obs.Disabled = false
	obs.TxPower[optics.LowerSide] = ol.TxPower(optics.LowerSide)
	obs.TxPower[optics.UpperSide] = ol.TxPower(optics.UpperSide)
	obs.RxPower[optics.LowerSide] = ol.RxPower(optics.LowerSide)
	obs.RxPower[optics.UpperSide] = ol.RxPower(optics.UpperSide)
	seconds := c.cfg.Interval.Seconds()
	rate := [2]float64{up, down}
	for d := topology.Up; d <= topology.Down; d++ {
		util := 0.5
		congestion := 0.0
		if c.traffic != nil {
			util = c.traffic.Utilization(l, d, now)
			congestion = c.traffic.LossRate(l, d, now)
		}
		corruption := rate[d] * c.noise(stream, l, d)
		if corruption > 1 {
			corruption = 1
		}
		packets := util * lineRatePPS * seconds
		obs.Util[d] = util
		obs.CorruptionRate[d] = corruption
		obs.CongestionRate[d] = congestion
		ctr.Packets[d] += uint64(packets)
		ctr.Errors[d] += uint64(packets * corruption)
		ctr.Drops[d] += uint64(packets * congestion)
	}
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
	return c.latestOf(l)
}

// latestOf is Latest under a lock the caller holds. A quiet link's reading
// is worked out as the last poll would have taken it: from its technology's
// healthy optics and rate, whatever has struck the link since. It reads
// nothing of the fault state that Apply and the repairs write, since those
// run outside the lock.
func (c *Collector) latestOf(l topology.LinkID) (Observation, bool) {
	if c.polls == 0 {
		return Observation{}, false
	}
	switch c.status[l] {
	case walked:
		return c.latest[c.slot[l]], true
	case off:
		return Observation{At: c.lastAt, Disabled: true}, true
	}
	var obs Observation
	var ctr Counters // discarded: the poll has counted it
	ol, rate := c.state.Healthy(l)
	c.observe(&obs, &ctr, l, c.lastAt, c.noiseStream(c.lastAt), ol, rate, rate)
	return obs, true
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
	return c.countersOf(l)
}

// countersOf is Counters under a lock the caller holds.
func (c *Collector) countersOf(l topology.LinkID) Counters {
	ctr := c.counters[l]
	if c.status[l] == quiet {
		ctr.Packets[topology.Up] += c.polls * c.perPoll
		ctr.Packets[topology.Down] += c.polls * c.perPoll
	}
	return ctr
}

// Reader reads a Collector under the read lock Read holds.
type Reader struct{ c *Collector }

// Counters is Collector.Counters.
func (r Reader) Counters(l topology.LinkID) Counters { return r.c.countersOf(l) }

// Latest is Collector.Latest.
func (r Reader) Latest(l topology.LinkID) (Observation, bool) { return r.c.latestOf(l) }

// Read calls fn with c read-locked, so that a caller reading many links —
// the snmplite responder answering a datagram — takes the lock once. fn
// must not keep r, and must not call c's own methods: a poll waiting for
// the lock would deadlock them.
func (c *Collector) Read(fn func(r Reader)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	fn(Reader{c})
}
