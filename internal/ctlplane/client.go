package ctlplane

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"corropt/internal/backoff"
	"corropt/internal/rngutil"
	"corropt/internal/simclock"
	"corropt/internal/topology"
)

// Timeout sentinels; wrap the underlying net error and are distinguishable
// via errors.Is so callers can tell which phase of an exchange starved.
var (
	// ErrWriteTimeout marks a request that could not be written before the
	// write-phase deadline.
	ErrWriteTimeout = errors.New("ctlplane: write timeout")
	// ErrReadTimeout marks a response that did not arrive before the
	// read-phase deadline.
	ErrReadTimeout = errors.New("ctlplane: read timeout")
	// ErrRetriesExhausted marks an exchange abandoned after its attempts
	// ran out; it wraps the last transport error.
	ErrRetriesExhausted = errors.New("ctlplane: retries exhausted")
)

// ClientConfig parameterizes a hardened Client. The zero value is one
// attempt with 5s per-phase deadlines, net.Dial and no agent identity.
// Deadlines are read from the system clock, simclock.Real.
type ClientConfig struct {
	// Timeout is the per-phase deadline (default 5s): the write and the
	// read each get their own, measured from the phase's own start, so a
	// slow write does not eat the read's time.
	Timeout time.Duration
	// Dial opens (and re-opens) the controller connection; default
	// net.Dial. Chaos tests inject a netchaos wrapper here.
	Dial func(network, address string) (net.Conn, error)
	// Attempts bounds the sends of one request, the first included
	// (default 1). Retries re-dial and re-send the same sequence number,
	// which the controller dedupes, spaced by backoff.Delay.
	Attempts int
	// RNG jitters the retry schedule; default a fixed-seed substream (the
	// schedule stays deterministic unless the caller injects entropy).
	RNG *rngutil.Source
	// AgentID names this client to the controller, enabling idempotent
	// replay and liveness tracking. Empty disables both.
	AgentID string
	// Sleep pauses between retries; default time.Sleep. Virtual-time
	// harnesses inject a no-op or clock-advancing hook.
	Sleep func(time.Duration)
}

func (cfg ClientConfig) normalized() ClientConfig {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = net.Dial
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 1
	}
	if cfg.RNG == nil {
		cfg.RNG = rngutil.New(1).Split("ctlplane-retry")
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return cfg
}

// Client is a switch agent's connection to the CorrOpt controller. Calls
// are synchronous request/response; a Client is safe for sequential use
// only (agents report events one at a time). On transport failure the
// client re-dials with jittered exponential backoff and replays the same
// sequence-numbered request, which the controller answers idempotently.
type Client struct {
	addr string
	cfg  ClientConfig
	conn net.Conn
	// br buffers reads from conn and shares its lifetime: whatever a dead
	// connection left unread is dropped with it, never parsed as the start
	// of a reply on the next one.
	br  *bufio.Reader
	seq uint64
}

// DialConfig connects a configured client; the initial dial is eager so
// address errors surface immediately, reconnects are lazy.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	cfg = cfg.normalized()
	conn, err := cfg.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctlplane: dial: %w", err)
	}
	c := &Client{addr: addr, cfg: cfg}
	c.attach(conn)
	return c, nil
}

// attach adopts a freshly dialled connection and gives it its own reader.
func (c *Client) attach(conn net.Conn) {
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, connReaderSize)
}

// Close tears the connection down.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.br = nil, nil
	return err
}

// exchange performs one write+read attempt with per-phase deadlines.
func (c *Client) exchange(req *Envelope) (*Envelope, error) {
	if c.conn == nil {
		conn, err := c.cfg.Dial("tcp", c.addr)
		if err != nil {
			return nil, fmt.Errorf("ctlplane: redial: %w", err)
		}
		c.attach(conn)
	}
	if err := c.conn.SetWriteDeadline(simclock.Real{}.Now().Add(c.cfg.Timeout)); err != nil {
		return nil, fmt.Errorf("ctlplane: set write deadline: %w", err)
	}
	if err := WriteMsg(c.conn, req); err != nil {
		return nil, phaseErr("write request", ErrWriteTimeout, err)
	}
	if err := c.conn.SetReadDeadline(simclock.Real{}.Now().Add(c.cfg.Timeout)); err != nil {
		return nil, fmt.Errorf("ctlplane: set read deadline: %w", err)
	}
	resp, err := ReadMsg(c.br)
	if err != nil {
		return nil, phaseErr("read response", ErrReadTimeout, err)
	}
	if req.Seq != 0 && resp.Seq != 0 && resp.Seq != req.Seq {
		return nil, fmt.Errorf("ctlplane: response seq %d does not match request seq %d", resp.Seq, req.Seq)
	}
	return resp, nil
}

// phaseErr wraps a transport error with its phase; timeouts additionally
// wrap the per-phase sentinel so errors.Is can tell the phases apart.
func phaseErr(phase string, sentinel error, err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("ctlplane: %s: %w: %w", phase, sentinel, err)
	}
	return fmt.Errorf("ctlplane: %s: %w", phase, err)
}

func (c *Client) roundTrip(req *Envelope) (*Envelope, error) {
	c.seq++
	req.Seq = c.seq
	req.Agent = c.cfg.AgentID
	var lastErr error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if attempt > 0 {
			c.cfg.Sleep(backoff.Delay(attempt-1, c.cfg.RNG))
		}
		resp, err := c.exchange(req)
		if err == nil {
			if resp.Type == TypeError {
				// A semantic refusal from the controller: the transport is
				// healthy, so surface it without burning retries.
				return nil, fmt.Errorf("ctlplane: controller error: %s", resp.Error)
			}
			return resp, nil
		}
		lastErr = err
		_ = c.Close() // already failing; the transport error is the one reported
	}
	return nil, fmt.Errorf("%w: %w", ErrRetriesExhausted, lastErr)
}

// Report announces corruption on a link and returns the controller's
// decision.
func (c *Client) Report(link topology.LinkID, rate float64) (*Decision, error) {
	resp, err := c.roundTrip(&Envelope{Type: TypeReport, Report: &Report{Link: link, Rate: rate}})
	if err != nil {
		return nil, err
	}
	if resp.Type != TypeDecision || resp.Decision == nil {
		return nil, fmt.Errorf("ctlplane: unexpected reply %q to report", resp.Type)
	}
	if resp.Decision.Link != link {
		return nil, fmt.Errorf("ctlplane: decision is about link %d, report was about link %d", resp.Decision.Link, link)
	}
	return resp.Decision, nil
}

// Activate announces a repaired link and returns the links the optimizer
// disabled in response.
func (c *Client) Activate(link topology.LinkID) ([]topology.LinkID, error) {
	resp, err := c.roundTrip(&Envelope{Type: TypeActivate, Activate: &Activate{Link: link}})
	if err != nil {
		return nil, err
	}
	if resp.Type != TypeActivateResult || resp.ActivateResult == nil {
		return nil, fmt.Errorf("ctlplane: unexpected reply %q to activate", resp.Type)
	}
	return resp.ActivateResult.Disabled, nil
}

// Status fetches the controller's state summary.
func (c *Client) Status() (*StatusResult, error) {
	resp, err := c.roundTrip(&Envelope{Type: TypeStatus})
	if err != nil {
		return nil, err
	}
	if resp.Type != TypeStatusResult || resp.Status == nil {
		return nil, fmt.Errorf("ctlplane: unexpected reply %q to status", resp.Type)
	}
	return resp.Status, nil
}
