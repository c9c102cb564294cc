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

// ErrTimeout marks a poll abandoned after the retransmit policy's attempts
// (or overall budget) ran out without a matching response. Distinguish
// with errors.Is; it wraps nothing because UDP loss leaves no inner error.
var ErrTimeout = errors.New("snmplite: response timeout")

// DialFunc is the injectable transport hook: chaos harnesses substitute a
// netchaos-wrapped dialer, production uses net.Dial.
type DialFunc func(network, address string) (net.Conn, error)

// ClientConfig parameterizes a Client. The zero value polls with a 500ms
// per-attempt deadline and the shared default backoff policy (4 attempts,
// 10ms/20ms/40ms ±20% jitter).
type ClientConfig struct {
	// Timeout is the per-attempt response deadline (default 500ms).
	Timeout time.Duration
	// Retry spaces retransmissions: MaxAttempts bounds total sends of one
	// request, Budget bounds the whole exchange including waits.
	Retry backoff.Policy
	// RNG jitters the retransmit schedule; default a fixed-seed substream
	// (deterministic unless the caller injects entropy).
	RNG *rngutil.Source
	// Clock supplies deadline and budget reads; default simclock.Real.
	Clock simclock.WallClock
	// Dial opens the server connection; default net.Dial.
	Dial DialFunc
	// Sleep pauses between retransmits; default time.Sleep.
	Sleep func(time.Duration)
}

func (cfg ClientConfig) normalized() ClientConfig {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	cfg.Retry = cfg.Retry.Normalized()
	if cfg.RNG == nil {
		cfg.RNG = rngutil.New(1).Split("snmplite-retry")
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
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
// shared jittered-backoff policy and matches responses to requests by id,
// dropping stale, duplicated, or corrupted replies. A Client is safe for
// sequential use only.
type Client struct {
	conn   net.Conn
	cfg    ClientConfig
	nextID uint32
	buf    []byte // receive buffer
	req    []byte // the request in flight, kept for its retransmits
}

// Dial connects a client to the server at addr. timeout is the per-attempt
// response deadline (default 500ms) and retries the number of
// retransmissions after the first attempt (default 3). Deadlines read the
// system clock and retransmits follow the shared backoff policy.
func Dial(addr string, timeout time.Duration, retries int) (*Client, error) {
	return DialClock(addr, timeout, retries, simclock.Real{})
}

// DialClock is Dial with an injected wall clock, for harnesses that replay
// telemetry polls against virtual time.
func DialClock(addr string, timeout time.Duration, retries int, clock simclock.WallClock) (*Client, error) {
	if retries < 0 {
		retries = 3
	}
	return DialConfig(addr, ClientConfig{
		Timeout: timeout,
		Retry:   backoff.Policy{MaxAttempts: retries + 1},
		Clock:   clock,
	})
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
	p := c.cfg.Retry
	start := c.cfg.Clock.Now()
	var lastErr error
	for attempt := 0; !p.Exhausted(attempt); attempt++ {
		if attempt > 0 {
			c.cfg.Sleep(p.Delay(attempt-1, c.cfg.RNG))
		}
		if p.Budget > 0 && c.cfg.Clock.Now().Sub(start) > p.Budget {
			break
		}
		// The send gets the same per-attempt bound as the response wait: UDP
		// writes rarely block, but a wrapped (chaos) or backpressured socket
		// must not wedge the poll loop past its retry budget.
		if err := c.conn.SetWriteDeadline(c.cfg.Clock.Now().Add(c.cfg.Timeout)); err != nil {
			return nil, err
		}
		if _, err := c.conn.Write(pkt); err != nil {
			return nil, fmt.Errorf("snmplite: send: %w", err)
		}
		deadline := c.cfg.Clock.Now().Add(c.cfg.Timeout)
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return nil, err
		}
		for {
			n, err := c.conn.Read(c.buf)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					lastErr = fmt.Errorf("%w: no response %d after attempt %d/%d",
						ErrTimeout, id, attempt+1, p.Normalized().MaxAttempts)
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
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: retry budget exhausted before first attempt", ErrTimeout)
	}
	return nil, lastErr
}

// LinkReading is a decoded poll of one link's counters.
type LinkReading struct {
	Link    topology.LinkID
	Packets [2]uint64
	Errors  [2]uint64
	Drops   [2]uint64
	TxPower [2]float64 // by optics side: 0 lower, 1 upper
	RxPower [2]float64
}

// PollLink fetches all standard counters of one link.
func (c *Client) PollLink(l topology.LinkID) (LinkReading, error) {
	queries := make([]Query, 0, int(NumCounters))
	for ctr := CounterID(0); ctr < NumCounters; ctr++ {
		queries = append(queries, Query{Link: uint32(l), Counter: ctr})
	}
	values, err := c.Get(queries)
	if err != nil {
		return LinkReading{}, err
	}
	r := LinkReading{Link: l}
	for _, v := range values {
		switch v.Counter {
		case CounterPacketsUp:
			r.Packets[0] = v.Value
		case CounterPacketsDown:
			r.Packets[1] = v.Value
		case CounterErrorsUp:
			r.Errors[0] = v.Value
		case CounterErrorsDown:
			r.Errors[1] = v.Value
		case CounterDropsUp:
			r.Drops[0] = v.Value
		case CounterDropsDown:
			r.Drops[1] = v.Value
		case CounterTxPowerLower:
			r.TxPower[0] = DecodePower(v.Value)
		case CounterTxPowerUpper:
			r.TxPower[1] = DecodePower(v.Value)
		case CounterRxPowerLower:
			r.RxPower[0] = DecodePower(v.Value)
		case CounterRxPowerUpper:
			r.RxPower[1] = DecodePower(v.Value)
		}
	}
	return r, nil
}

// CollectorProvider adapts a telemetry.Collector into an snmplite Provider,
// exposing the most recent poll's counters and power levels.
func CollectorProvider(c *telemetry.Collector, numLinks int) Provider {
	return ProviderFunc(func(link uint32, counter CounterID) (uint64, error) {
		if int(link) >= numLinks {
			return 0, fmt.Errorf("unknown link")
		}
		if counter >= NumCounters {
			return 0, fmt.Errorf("unknown counter")
		}
		l := topology.LinkID(link)
		switch counter {
		case CounterPacketsUp:
			return c.Counters(l).Packets[0], nil
		case CounterPacketsDown:
			return c.Counters(l).Packets[1], nil
		case CounterErrorsUp:
			return c.Counters(l).Errors[0], nil
		case CounterErrorsDown:
			return c.Counters(l).Errors[1], nil
		case CounterDropsUp:
			return c.Counters(l).Drops[0], nil
		case CounterDropsDown:
			return c.Counters(l).Drops[1], nil
		}
		// What is left is a power level, and only those need the latest
		// observation: a second lock and a ~150-byte copy.
		obs, ok := c.Latest(l)
		if !ok {
			return 0, fmt.Errorf("no observation yet")
		}
		switch counter {
		case CounterTxPowerLower:
			return EncodePower(float64(obs.TxPower[0])), nil
		case CounterTxPowerUpper:
			return EncodePower(float64(obs.TxPower[1])), nil
		case CounterRxPowerLower:
			return EncodePower(float64(obs.RxPower[0])), nil
		default: // CounterRxPowerUpper
			return EncodePower(float64(obs.RxPower[1])), nil
		}
	})
}
