package faults

import (
	"fmt"
	"math"
	"time"

	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/stats"
	"corropt/internal/topology"
)

// InjectorConfig parameterizes fault generation.
type InjectorConfig struct {
	// FaultsPerLinkPerDay is the Poisson arrival intensity per link. The
	// paper does not publish absolute fault rates; the default is chosen
	// so a few percent of links corrupt over a three-month trace, matching
	// the qualitative "corruption impacts few links" finding of §3.
	FaultsPerLinkPerDay float64
	// Mix is the root-cause distribution; zero value means
	// DefaultCauseMix.
	Mix CauseMix
	// MaxRate caps sampled corruption rates; the open-ended last bucket
	// of Table 1 is sampled log-uniformly up to this value. Default 0.1
	// (Figures 7 and 9 show ~1e-2 loss as typical severe corruption).
	MaxRate float64
	// SharedMinLinks and SharedMaxLinks bound how many co-located links a
	// shared-component failure takes down; defaults 2 and 4 (a breakout
	// cable splits one port four ways).
	SharedMinLinks, SharedMaxLinks int
}

func (c *InjectorConfig) fillDefaults() {
	if c.FaultsPerLinkPerDay == 0 {
		c.FaultsPerLinkPerDay = 1.0 / (30 * 100) // one fault per link per 100 months
	}
	zero := CauseMix{}
	if c.Mix == zero {
		c.Mix = DefaultCauseMix()
	}
	if c.MaxRate == 0 {
		c.MaxRate = 0.1
	}
	if c.SharedMinLinks == 0 {
		c.SharedMinLinks = 2
	}
	if c.SharedMaxLinks == 0 {
		c.SharedMaxLinks = 4
	}
}

// Injector generates Fault events over a topology.
type Injector struct {
	cfg    InjectorConfig
	topo   *topology.Topology
	techOf func(topology.LinkID) optics.Technology
	rng    *rngutil.Source
	next   ID
}

// NewInjector returns an Injector drawing randomness from rng, with every
// link using the same transceiver technology.
func NewInjector(topo *topology.Topology, tech optics.Technology, cfg InjectorConfig, rng *rngutil.Source) (*Injector, error) {
	return NewMultiTechInjector(topo, func(topology.LinkID) optics.Technology { return tech }, cfg, rng)
}

// NewMultiTechInjector returns an Injector for a fabric whose links mix
// transceiver technologies; loss magnitudes are derived from each link's
// own optical margin.
func NewMultiTechInjector(topo *topology.Topology, techOf func(topology.LinkID) optics.Technology, cfg InjectorConfig, rng *rngutil.Source) (*Injector, error) {
	cfg.fillDefaults()
	if cfg.SharedMinLinks < 2 || cfg.SharedMaxLinks < cfg.SharedMinLinks {
		return nil, fmt.Errorf("faults: invalid shared-component link bounds [%d, %d]", cfg.SharedMinLinks, cfg.SharedMaxLinks)
	}
	if cfg.FaultsPerLinkPerDay < 0 {
		return nil, fmt.Errorf("faults: negative fault rate %v", cfg.FaultsPerLinkPerDay)
	}
	for l := 0; l < topo.NumLinks(); l++ {
		tech := techOf(topology.LinkID(l))
		if healthyMargin(tech) <= 0 {
			return nil, fmt.Errorf("faults: technology %q (link %d) has no healthy optical margin", tech.Name, l)
		}
	}
	return &Injector{cfg: cfg, topo: topo, techOf: techOf, rng: rng}, nil
}

// healthyMargin is the optical margin of a fault-free link of the given
// technology.
func healthyMargin(tech optics.Technology) optics.DB {
	return optics.DB(tech.NominalTx - optics.DBm(tech.PathLoss) - tech.RxThreshold)
}

// Generate produces the faults arriving within [0, horizon), ordered by
// start time. Calling Generate again continues the fault ID sequence but
// restarts time at zero.
func (inj *Injector) Generate(horizon time.Duration) []*Fault {
	var out []*Fault
	totalPerDay := inj.cfg.FaultsPerLinkPerDay * float64(inj.topo.NumLinks())
	if totalPerDay <= 0 {
		return nil
	}
	meanGap := time.Duration(float64(24*time.Hour) / totalPerDay)
	t := time.Duration(float64(meanGap) * inj.rng.ExpFloat64())
	for t < horizon {
		out = append(out, inj.NewFault(t))
		t += time.Duration(float64(meanGap) * inj.rng.ExpFloat64())
	}
	return out
}

// NewFault creates a single fault starting at the given time, with root
// cause, location, severity and symptoms sampled from the configured
// distributions.
func (inj *Injector) NewFault(start time.Duration) *Fault {
	cause := inj.cfg.Mix.Sample(inj.rng.Float64())
	f := &Fault{ID: inj.next, Cause: cause, Start: start}
	inj.next++
	switch cause {
	case SharedComponent:
		f.Effects = inj.sharedEffects()
	case BadTransceiver:
		// Half are merely loose (reseating fixes them), half are dead.
		f.Reseatable = inj.rng.Bool(0.5)
		link := topology.LinkID(inj.rng.Intn(inj.topo.NumLinks()))
		f.Effects = []LinkEffect{inj.singleLinkEffect(cause, link)}
	default:
		link := topology.LinkID(inj.rng.Intn(inj.topo.NumLinks()))
		f.Effects = []LinkEffect{inj.singleLinkEffect(cause, link)}
	}
	return f
}

// rateBucketWeights gives the probability of each Table 1 corruption bucket
// for a new fault's corruption rate: the corruption column of Table 1
// (47.23/18.43/21.66/12.67%).
var rateBucketWeights = [4]float64{0.4723, 0.1843, 0.2166, 0.1267}

// sampleRate draws a corruption rate from the Table 1 bucket mix.
func (inj *Injector) sampleRate() float64 {
	buckets := stats.Table1Buckets()
	u := inj.rng.Float64()
	acc := 0.0
	idx := len(buckets) - 1
	for i, w := range rateBucketWeights {
		acc += w
		if u < acc {
			idx = i
			break
		}
	}
	b := buckets[idx]
	hi := b.Hi
	if math.IsInf(hi, 1) {
		hi = inj.cfg.MaxRate
	}
	return stats.LogUniform(inj.rng.Float64(), b.Lo, hi)
}

// similarRate perturbs a base rate by up to ±25%, for the "similar
// corruption loss rates" of co-located and bidirectional corruption.
func (inj *Injector) similarRate(base float64) float64 {
	return base * inj.rng.Range(0.75, 1.25)
}

// marginFor inverts optics.CorruptionRateFromMargin for rates above its
// 1e-9 floor: the (negative) margin at which a receiver corrupts at the
// target rate.
func marginFor(rate float64) optics.DB {
	if rate < 1e-9 {
		rate = 1e-9
	}
	return optics.DB(-math.Log10(rate/1e-9) / 1.5)
}

// lossFor converts a target corruption rate into the excess attenuation
// that produces it on a healthy link of l's technology.
func (inj *Injector) lossFor(l topology.LinkID, rate float64) optics.DB {
	return healthyMargin(inj.techOf(l)) - marginFor(rate)
}

func dirSendSide(d topology.Direction) optics.Side {
	if d == topology.Up {
		return optics.LowerSide
	}
	return optics.UpperSide
}

func (inj *Injector) singleLinkEffect(cause RootCause, link topology.LinkID) LinkEffect {
	e := LinkEffect{Link: link}
	dir := topology.Direction(inj.rng.Intn(2))
	bidi := inj.rng.Bool(cause.BidirectionalProb())
	rate := inj.sampleRate()
	switch cause {
	case ConnectorContamination:
		// Not all contamination starves the receiver: some causes back
		// reflections that corrupt while RxPower stays high, which is why
		// the engine's accuracy cannot reach 100% (§4, root cause 1).
		if inj.rng.Bool(0.15) {
			e.DirectRate[dir] = rate
			if bidi {
				e.DirectRate[1-dir] = inj.similarRate(rate)
			}
			break
		}
		// The common form: dirt attenuates the light arriving at the
		// corrupting receiver — loss on the path transmitted from the
		// sending side of the corrupting direction, TxPower high on both
		// sides.
		e.ExtraLossFrom[dirSendSide(dir)] = inj.lossFor(link, rate)
		if bidi {
			e.ExtraLossFrom[dirSendSide(dir).Opposite()] = inj.lossFor(link, inj.similarRate(rate))
		}
	case DamagedFiber:
		// A bent fiber leaks in both directions, so RxPower drops on both
		// sides (§4's signature), but the corruption may still exceed the
		// detection threshold in only one direction.
		e.ExtraLossFrom[dirSendSide(dir)] = inj.lossFor(link, rate)
		other := dirSendSide(dir).Opposite()
		if bidi {
			e.ExtraLossFrom[other] = inj.lossFor(link, inj.similarRate(rate))
		} else {
			// Push the reverse direction just below the Rx threshold:
			// low power, but corruption still under the 1e-8 lossy floor
			// (the crossing sits ~0.67 dB below sensitivity).
			e.ExtraLossFrom[other] = healthyMargin(inj.techOf(link)) + optics.DB(inj.rng.Range(0.05, 0.6))
		}
	case DecayingTransmitter:
		// The aging laser launches less light: Tx low on the send side,
		// Rx low on the receive side, corruption one-way.
		e.TxDecay[dirSendSide(dir)] = inj.lossFor(link, rate)
	case BadTransceiver:
		// Power levels stay high; the transceiver just fails to decode.
		e.DirectRate[dir] = rate
		if bidi {
			e.DirectRate[1-dir] = inj.similarRate(rate)
		}
	default:
		panic("faults: singleLinkEffect called with " + cause.String())
	}
	return e
}

// sharedEffects builds the effects of a shared-component failure: several
// links on one switch corrupt at the same time with similar rates and good
// optical power everywhere.
func (inj *Injector) sharedEffects() []LinkEffect {
	// Pick a switch with at least SharedMinLinks attached links; prefer a
	// breakout group when the seed link has one. Breakout cables split a
	// high-speed port into several low-speed ones and therefore sit
	// between switches of different port speeds — in practice the
	// aggregation↔spine boundary — so seeds are biased away from the ToR
	// stage (backplane faults can still strike anywhere).
	var links []topology.LinkID
	for attempt := 0; attempt < 64 && len(links) < inj.cfg.SharedMinLinks; attempt++ {
		seed := topology.LinkID(inj.rng.Intn(inj.topo.NumLinks()))
		if inj.topo.Switch(inj.topo.Link(seed).Lower).Stage == 0 && inj.rng.Bool(0.8) {
			continue
		}
		if group := inj.topo.SameBreakout(seed); len(group) >= inj.cfg.SharedMinLinks {
			links = group
			continue
		}
		sw := inj.topo.Link(seed).Lower
		links = inj.topo.LinksOnSwitch(sw)
	}
	if len(links) < inj.cfg.SharedMinLinks {
		// Degenerate topology (e.g. single-link): fall back to whatever
		// is attached to the first switch.
		links = inj.topo.LinksOnSwitch(0)
	}
	n := inj.cfg.SharedMinLinks
	if spread := inj.cfg.SharedMaxLinks - inj.cfg.SharedMinLinks; spread > 0 {
		n += inj.rng.Intn(spread + 1)
	}
	if n > len(links) {
		n = len(links)
	}
	perm := inj.rng.Perm(len(links))
	base := inj.sampleRate()
	effects := make([]LinkEffect, 0, n)
	for i := 0; i < n; i++ {
		l := links[perm[i]]
		var e LinkEffect
		e.Link = l
		dir := topology.Direction(inj.rng.Intn(2))
		e.DirectRate[dir] = inj.similarRate(base)
		if inj.rng.Bool(SharedComponent.BidirectionalProb()) {
			e.DirectRate[1-dir] = inj.similarRate(base)
		}
		effects = append(effects, e)
	}
	return effects
}
