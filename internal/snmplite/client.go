package snmplite

import (
	"errors"
	"fmt"
	"net"
	"time"

	"corropt/internal/backoff"
	"corropt/internal/rngutil"
	"corropt/internal/simclock"
	"corropt/internal/telemetry"
	"corropt/internal/topology"
)

// ErrTimeout marks a poll abandoned after its attempts ran out without a
// matching response. Distinguish with errors.Is; it wraps nothing because
// UDP loss leaves no inner error.
var ErrTimeout = errors.New("snmplite: response timeout")

// ClientConfig parameterizes a Client. The zero value polls with a 500ms
// per-attempt deadline and 4 attempts spaced by backoff.Delay
// (10ms/20ms/40ms ±20% jitter). Deadlines are read from the system clock,
// simclock.Real.
type ClientConfig struct {
	// Timeout is the per-attempt response deadline (default 500ms).
	Timeout time.Duration
	// Attempts bounds the sends of one request, the first included
	// (default 4).
	Attempts int
	// RNG jitters the retransmit schedule; default a fixed-seed substream
	// (deterministic unless the caller injects entropy).
	RNG *rngutil.Source
	// Dial opens the server connection; default net.Dial.
	Dial func(network, address string) (net.Conn, error)
	// Sleep pauses between retransmits; default time.Sleep.
	Sleep func(time.Duration)
}

func (cfg ClientConfig) normalized() ClientConfig {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 4
	}
	if cfg.RNG == nil {
		cfg.RNG = rngutil.New(1).Split("snmplite-retry")
	}
	if cfg.Dial == nil {
		cfg.Dial = net.Dial
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return cfg
}

// Client polls an snmplite server. It retransmits lost datagrams on the
// shared jittered-backoff schedule and matches responses to requests by id,
// dropping stale, duplicated, or corrupted replies. A Client is safe for
// sequential use only.
type Client struct {
	conn   net.Conn
	cfg    ClientConfig
	nextID uint32
	buf    []byte // receive buffer
	req    []byte // the request in flight, kept for its retransmits
}

// DialConfig connects a fully configured client.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	cfg = cfg.normalized()
	conn, err := cfg.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("snmplite: dial: %w", err)
	}
	return &Client{conn: conn, cfg: cfg, buf: make([]byte, 64*1024)}, nil
}

// Close releases the client's socket.
func (c *Client) Close() error { return c.conn.Close() }

// Get fetches the given counters, splitting into multiple requests when
// more than MaxEntries are asked for. The caller owns the returned slice.
func (c *Client) Get(queries []Query) ([]Value, error) {
	var out []Value
	for len(queries) > 0 {
		n := min(len(queries), MaxEntries)
		var err error
		if out, err = c.getOnce(out, queries[:n]); err != nil {
			return nil, err
		}
		queries = queries[n:]
	}
	return out, nil
}

// getOnce runs one request/response exchange and appends the answer to dst.
func (c *Client) getOnce(dst []Value, queries []Query) ([]Value, error) {
	c.nextID++
	id := c.nextID
	pkt, err := appendRequest(c.req[:0], id, queries)
	if err != nil {
		return nil, err
	}
	c.req = pkt
	var lastErr error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if attempt > 0 {
			c.cfg.Sleep(backoff.Delay(attempt-1, c.cfg.RNG))
		}
		// The send gets the same per-attempt bound as the response wait: UDP
		// writes rarely block, but a wrapped (chaos) or backpressured socket
		// must not wedge the poll loop past its attempts.
		if err := c.conn.SetWriteDeadline(simclock.Real{}.Now().Add(c.cfg.Timeout)); err != nil {
			return nil, err
		}
		if _, err := c.conn.Write(pkt); err != nil {
			return nil, fmt.Errorf("snmplite: send: %w", err)
		}
		deadline := simclock.Real{}.Now().Add(c.cfg.Timeout)
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return nil, err
		}
		for {
			n, err := c.conn.Read(c.buf)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					lastErr = fmt.Errorf("%w: no response %d after attempt %d/%d",
						ErrTimeout, id, attempt+1, c.cfg.Attempts)
					break // retransmit with backoff
				}
				return nil, fmt.Errorf("snmplite: recv: %w", err)
			}
			gotID, values, err := appendResponseValues(dst, c.buf[:n])
			if gotID != id {
				continue // stale reply to an earlier (retransmitted) request
			}
			var re *RemoteError
			if errors.As(err, &re) {
				// A semantic refusal from the server: the transport is
				// healthy, so surface it without burning retransmits.
				return nil, err
			}
			if err != nil {
				// Corrupted or truncated in flight (bad checksum, bad
				// framing): treat like loss and keep waiting — the
				// deadline will trigger a retransmission.
				lastErr = fmt.Errorf("snmplite: discarded damaged response %d: %w", id, err)
				continue
			}
			return values, nil
		}
	}
	return nil, lastErr
}

// Reasons a CollectorProvider refuses a query.
var (
	errUnknownLink    = errors.New("unknown link")
	errUnknownCounter = errors.New("unknown counter")
	errNoObservation  = errors.New("no observation yet")
)

// CollectorProvider adapts a telemetry.Collector into an snmplite Provider,
// exposing the most recent poll's counters and power levels. It answers
// links below numLinks that the collector polls, reads a datagram under one
// read lock, and reads each link's counters once however many of them the
// datagram names.
func CollectorProvider(c *telemetry.Collector, numLinks int) Provider {
	return &collectorProvider{c: c, numLinks: min(numLinks, c.NumLinks())}
}

type collectorProvider struct {
	c        *telemetry.Collector
	numLinks int
}

// Answer implements Provider.
func (p *collectorProvider) Answer(dst []Value, queries []Query) (values []Value, err error) {
	p.c.Read(func(r telemetry.Reader) { values, err = p.answer(r, dst, queries) })
	return values, err
}

func (p *collectorProvider) answer(r telemetry.Reader, dst []Value, queries []Query) ([]Value, error) {
	// The counters of link ctrLink, by CounterID: a datagram names each
	// link's counters together.
	ctrLink := -1
	var ctr [CounterDropsDown + 1]uint64
	for _, q := range queries {
		if int64(q.Link) >= int64(p.numLinks) {
			return dst, &QueryError{Query: q, Err: errUnknownLink}
		}
		l := topology.LinkID(q.Link)
		var v uint64
		switch {
		case q.Counter <= CounterDropsDown:
			if ctrLink != int(l) {
				c := r.Counters(l)
				ctr = [...]uint64{c.Packets[0], c.Packets[1], c.Errors[0], c.Errors[1], c.Drops[0], c.Drops[1]}
				ctrLink = int(l)
			}
			v = ctr[q.Counter]
		case q.Counter < NumCounters:
			// Only a power level needs the latest observation.
			obs, ok := r.Latest(l)
			if !ok {
				return dst, &QueryError{Query: q, Err: errNoObservation}
			}
			power := [...]float64{float64(obs.TxPower[0]), float64(obs.TxPower[1]), float64(obs.RxPower[0]), float64(obs.RxPower[1])}
			v = EncodePower(power[q.Counter-CounterTxPowerLower])
		default:
			return dst, &QueryError{Query: q, Err: errUnknownCounter}
		}
		dst = append(dst, Value{Query: q, Value: v})
	}
	return dst, nil
}
