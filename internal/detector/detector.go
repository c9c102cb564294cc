// Package detector implements the monitoring component of Figure 13: it
// periodically reads each link's packet and error counters (from a
// telemetry collector directly, or over the snmplite wire, 22 links to a
// datagram), derives per-interval corruption loss rates from counter
// deltas, applies the detection threshold with hysteresis, and reports
// state transitions — "link started corrupting", "link recovered" — to
// whoever mitigates.
//
// A sweep reads first and classifies second: every link's counters are in
// hand before any baseline advances or any flag flips, so a sweep whose
// read fails leaves the detector exactly as it was and the next one reports
// what this one would have.
//
// The counter-delta arithmetic deliberately mirrors what production SNMP
// pollers do: rates come from differences of monotonically increasing
// counters between polls, never from instantaneous gauges, so a counter
// that does not move contributes a rate of zero rather than NaN.
package detector

import (
	"fmt"

	"corropt/internal/topology"
)

// Reading is one poll of one link's cumulative counters, per direction.
type Reading struct {
	Link    topology.LinkID
	Packets [2]uint64
	Errors  [2]uint64
}

// Source supplies cumulative counters for a set of links. Implementations
// wrap a telemetry.Collector (in-process) or an snmplite client (remote).
type Source interface {
	// Read returns the current cumulative counters of the given link.
	Read(l topology.LinkID) (Reading, error)
}

// BatchSource is a Source that can read many links at once; Poll hands it
// the whole sweep.
type BatchSource interface {
	Source
	// ReadBatch stores the current cumulative counters of links[i] in
	// out[i]; len(out) == len(links). When it fails, out holds garbage and
	// the error says which link it concerns where one link is at fault.
	ReadBatch(links []topology.LinkID, out []Reading) error
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(l topology.LinkID) (Reading, error)

// Read implements Source.
func (f SourceFunc) Read(l topology.LinkID) (Reading, error) { return f(l) }

// Event is a detection-state transition.
type Event struct {
	Link topology.LinkID
	// Corrupting is true when the link crossed above the detection
	// threshold; false when it recovered below the clear threshold.
	Corrupting bool
	// Rate is the worst-direction corruption rate over the last interval.
	Rate float64
}

// Config parameterizes a Detector.
type Config struct {
	// Threshold is the corruption rate that raises a corrupting event;
	// default 1e-6 (the operators' alarm level, §2).
	Threshold float64
	// ClearFactor scales the threshold for the recovery transition
	// (hysteresis): a link clears only when its rate falls below
	// Threshold×ClearFactor. Default 0.1, so a link flapping around the
	// threshold does not generate an event storm.
	ClearFactor float64
	// MinPackets is the minimum per-direction packet delta for a rate to
	// be meaningful; intervals with less traffic are skipped (a drained
	// or idle link tells us nothing). Default 1000.
	MinPackets uint64
}

func (c *Config) fillDefaults() {
	if c.Threshold == 0 {
		c.Threshold = 1e-6
	}
	if c.ClearFactor == 0 {
		c.ClearFactor = 0.1
	}
	if c.MinPackets == 0 {
		c.MinPackets = 1000
	}
}

// Detector tracks per-link detection state across polls.
type Detector struct {
	cfg    Config
	source Source
	links  []topology.LinkID

	// Parallel to links. A sweep reads into cur; once it has classified
	// every link, cur and last trade places.
	cur, last []Reading
	flagged   []bool // currently considered corrupting
	primed    bool   // last holds a completed sweep
}

// New returns a Detector polling the given links from source. A link
// listed twice is tracked twice.
func New(source Source, links []topology.LinkID, cfg Config) (*Detector, error) {
	if source == nil {
		return nil, fmt.Errorf("detector: nil source")
	}
	cfg.fillDefaults()
	return &Detector{
		cfg:     cfg,
		source:  source,
		links:   append([]topology.LinkID(nil), links...),
		cur:     make([]Reading, len(links)),
		last:    make([]Reading, len(links)),
		flagged: make([]bool, len(links)),
	}, nil
}

// Poll reads every link once and returns the state-transition events since
// the previous poll. The first poll only establishes baselines and returns
// no events. A poll that returns an error has changed nothing: the next
// successful one compares against the same baselines and raises the events
// this one would have.
func (d *Detector) Poll() ([]Event, error) {
	if err := d.read(); err != nil {
		return nil, err
	}
	var events []Event
	if d.primed {
		for i, l := range d.links {
			rate, ok := worstRate(d.last[i], d.cur[i], d.cfg.MinPackets)
			if !ok {
				continue
			}
			switch {
			case !d.flagged[i] && rate >= d.cfg.Threshold:
				d.flagged[i] = true
				events = append(events, Event{Link: l, Corrupting: true, Rate: rate})
			case d.flagged[i] && rate < d.cfg.Threshold*d.cfg.ClearFactor:
				d.flagged[i] = false
				events = append(events, Event{Link: l, Corrupting: false, Rate: rate})
			}
		}
	}
	d.cur, d.last = d.last, d.cur
	d.primed = true
	return events, nil
}

// read fills cur with one reading per link: in one call when the source
// reads batches, link by link when it does not.
func (d *Detector) read() error {
	if b, ok := d.source.(BatchSource); ok {
		if err := b.ReadBatch(d.links, d.cur); err != nil {
			return fmt.Errorf("detector: %w", err)
		}
		return nil
	}
	for i, l := range d.links {
		r, err := d.source.Read(l)
		if err != nil {
			return fmt.Errorf("detector: link %d: %w", l, err)
		}
		d.cur[i] = r
	}
	return nil
}

// Flagged reports whether the detector currently considers l corrupting.
// It searches the watched links: a spot check, not a per-sweep read.
func (d *Detector) Flagged(l topology.LinkID) bool {
	for i, w := range d.links {
		if w == l {
			return d.flagged[i]
		}
	}
	return false
}

// worstRate derives the worst-direction loss rate from two consecutive
// readings. Counter resets (cur < prev, e.g. a switch reboot) discard the
// interval rather than producing a bogus huge delta.
func worstRate(prev, cur Reading, minPackets uint64) (float64, bool) {
	worst := 0.0
	any := false
	for dir := 0; dir < 2; dir++ {
		if cur.Packets[dir] < prev.Packets[dir] || cur.Errors[dir] < prev.Errors[dir] {
			continue // counter reset
		}
		dp := cur.Packets[dir] - prev.Packets[dir]
		de := cur.Errors[dir] - prev.Errors[dir]
		if dp < minPackets {
			continue
		}
		any = true
		if r := float64(de) / float64(dp); r > worst {
			worst = r
		}
	}
	return worst, any
}
