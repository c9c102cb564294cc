package detector

import (
	"fmt"
	"time"

	"corropt/internal/snmplite"
	"corropt/internal/telemetry"
	"corropt/internal/topology"
)

// CollectorSource adapts an in-process telemetry.Collector.
func CollectorSource(c *telemetry.Collector) Source {
	return SourceFunc(func(l topology.LinkID) (Reading, error) {
		ctr := c.Counters(l)
		return Reading{
			Link:    l,
			Packets: ctr.Packets,
			Errors:  ctr.Errors,
		}, nil
	})
}

// SNMPSource polls counters over the snmplite wire protocol, the way the
// production monitoring system reaches switches it does not share a
// process with.
func SNMPSource(addr string, timeout time.Duration, retries int) (Source, func() error, error) {
	cli, err := snmplite.Dial(addr, timeout, retries)
	if err != nil {
		return nil, nil, err
	}
	return SNMPSourceClient(cli), cli.Close, nil
}

// SNMPSourceClient adapts an already-dialed snmplite client — the way
// chaos harnesses and hardened deployments inject their own transport
// (custom dialers, backoff policies, virtual clocks) into the detector's
// polling path. The caller keeps ownership of cli and closes it. The source
// is a BatchSource: a sweep costs one exchange per 22 links.
func SNMPSourceClient(cli *snmplite.Client) Source {
	return &snmpSource{cli: cli}
}

// sweepCounters are what a Reading holds, in the order it is asked for.
var sweepCounters = [...]snmplite.CounterID{
	snmplite.CounterPacketsUp, snmplite.CounterPacketsDown,
	snmplite.CounterErrorsUp, snmplite.CounterErrorsDown,
}

// linksPerGet is how many links fit in one datagram: 22, whose 88 entries
// make a 542-byte request and a 1,246-byte response, under the MTU.
const linksPerGet = snmplite.MaxEntries / len(sweepCounters)

type snmpSource struct {
	cli     *snmplite.Client
	queries []snmplite.Query // reused by every get
}

// Read implements Source: a batch of one.
func (s *snmpSource) Read(l topology.LinkID) (Reading, error) {
	var out [1]Reading
	err := s.get([]topology.LinkID{l}, out[:])
	return out[0], err
}

// ReadBatch implements BatchSource, linksPerGet links to an exchange and
// one exchange in flight.
func (s *snmpSource) ReadBatch(links []topology.LinkID, out []Reading) error {
	for len(links) > 0 {
		n := min(len(links), linksPerGet)
		if err := s.get(links[:n], out[:n]); err != nil {
			return err
		}
		links, out = links[n:], out[n:]
	}
	return nil
}

// get reads up to linksPerGet links in one exchange. The reply must echo
// the (link, counter) pairs asked for, in order: the client has matched its
// request id and checksum, but a value filed under the wrong link would
// otherwise read as a zero counter, which worstRate discards as a reset.
func (s *snmpSource) get(links []topology.LinkID, out []Reading) error {
	q := s.queries[:0]
	for _, l := range links {
		for _, c := range sweepCounters {
			q = append(q, snmplite.Query{Link: uint32(l), Counter: c})
		}
	}
	s.queries = q
	values, err := s.cli.Get(q)
	if err != nil {
		return err
	}
	if len(values) != len(q) {
		// The first link the reply leaves short, or the last one asked.
		l := links[min(len(values)/len(sweepCounters), len(links)-1)]
		return fmt.Errorf("snmp reply carries %d values, asked for %d: link %d", len(values), len(q), l)
	}
	for i, want := range q {
		if got := values[i].Query; got != want {
			return fmt.Errorf("snmp reply value %d is link %d %v, asked for link %d %v",
				i, got.Link, got.Counter, want.Link, want.Counter)
		}
	}
	for i, l := range links {
		v := values[i*len(sweepCounters):]
		out[i] = Reading{
			Link:    l,
			Packets: [2]uint64{v[0].Value, v[1].Value},
			Errors:  [2]uint64{v[2].Value, v[3].Value},
		}
	}
	return nil
}
