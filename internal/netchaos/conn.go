package netchaos

import (
	"fmt"
	"net"
	"sync"
	"time"

	"corropt/internal/rngutil"
)

// errReset is the error surfaced by an injected mid-stream reset. It wraps
// net.ErrClosed so consumers' existing "connection is gone" handling
// (errors.Is(err, net.ErrClosed)) fires without netchaos-specific code.
func errReset() error {
	return fmt.Errorf("netchaos: injected connection reset: %w", net.ErrClosed)
}

// packet is one payload a write plan forwards, with its destination (nil
// on a connected socket).
type packet struct {
	p    []byte
	addr net.Addr
}

// writePlan is the outcome of one fault decision: the payloads to forward
// (in order), an optional pause to serve first, and whether the write dies
// with an injected reset. The plan is computed under the endpoint's lock
// and executed after releasing it, so state updates stay serialized while
// no blocking I/O ever happens with a mutex held (the repo's lockorder
// contract).
type writePlan struct {
	sends []packet
	pause time.Duration
	sleep func(time.Duration)
	reset bool
}

// endpoint is the write path every wrapper shares: one substream, one
// reorder hold and one reset latch per wrapped socket. The wrappers differ
// only in forward and close.
type endpoint struct {
	inj *Injector
	rng *rngutil.Source
	// datagram turns a reset into loss: the socket survives and the
	// datagram does not, the only way UDP sees a peer reset.
	datagram bool
	forward  func(p []byte, addr net.Addr) error
	closeFn  func() error

	// mu serializes the decision/state half of the write and close paths:
	// net.Conn permits Close (and Write) from a goroutine concurrent with
	// a writer, and the held reorder payload must not race when that
	// happens. Lock ordering: mu is acquired before the injector's lock
	// (taken inside decide); never the other way around. The forwarding
	// I/O itself runs after mu is released.
	mu       sync.Mutex
	held     []byte // payload held back by a pending reorder
	heldAddr net.Addr
	reset    bool
}

// newEndpoint wraps a socket's forward and close in the next endpoint.
func (in *Injector) newEndpoint(prefix string, datagram bool, forward func([]byte, net.Addr) error, closeFn func() error) *endpoint {
	return &endpoint{inj: in, rng: in.substream(prefix), datagram: datagram, forward: forward, closeFn: closeFn}
}

// write applies at most one injected fault, then forwards. The caller's
// buffer is never modified; on success the caller always sees len(b)
// written (a dropped or truncated payload is the network's secret, exactly
// as a lossy path would behave above the socket API).
func (e *endpoint) write(b []byte, addr net.Addr) (int, error) {
	p, err := e.plan(b, addr)
	if err != nil {
		return 0, err
	}
	if p.sleep != nil {
		p.sleep(p.pause)
	}
	if p.reset {
		_ = e.closeFn() // the reset is the error being reported
		return 0, errReset()
	}
	for _, s := range p.sends {
		if err := e.forward(s.p, s.addr); err != nil {
			return 0, err
		}
	}
	return len(b), nil
}

// plan draws one fault decision and applies its state effects (reorder
// hold-back, reset latch) under mu, returning the I/O the caller must
// perform after the lock is released.
func (e *endpoint) plan(b []byte, addr net.Addr) (writePlan, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.reset {
		return writePlan{}, errReset()
	}
	d := e.inj.decide(e.rng, len(b))
	var p writePlan
	switch d.kind {
	case KindDrop, KindReset:
		if d.kind == KindReset && !e.datagram {
			e.reset, p.reset = true, true
			return p, nil
		}
		// Flush any held reorder payload so the stream doesn't starve,
		// then swallow this write (a datagram reset is a drop).
		p.sends = e.takeHeld(p.sends)
		return p, nil
	case KindDup:
		p.sends = append(p.sends, packet{b, addr}, packet{b, addr})
		return p, nil
	case KindReorder:
		if e.held == nil {
			e.held, e.heldAddr = append([]byte(nil), b...), addr
			return p, nil
		}
		// Already holding one payload: emit this write first, then the
		// held one — the swap is the reorder.
		p.sends = append(p.sends, packet{b, addr})
		p.sends = e.takeHeld(p.sends)
		return p, nil
	case KindCorrupt, KindTruncate:
		if out := damage(b, d); len(out) > 0 {
			p.sends = append(p.sends, packet{out, addr})
		}
		return p, nil
	case KindDelay:
		p.pause = d.pause
		p.sleep = e.inj.sleepFn()
	}
	p.sends = e.takeHeld(p.sends)
	p.sends = append(p.sends, packet{b, addr})
	return p, nil
}

// takeHeld moves a pending reordered payload (if any) onto sends. Caller
// must hold mu.
func (e *endpoint) takeHeld(sends []packet) []packet {
	if e.held != nil {
		sends = append(sends, packet{e.held, e.heldAddr})
		e.held, e.heldAddr = nil, nil
	}
	return sends
}

// close flushes a pending reordered payload (best-effort) unless the
// stream was reset, then closes the underlying socket.
func (e *endpoint) close() error {
	e.mu.Lock()
	held, addr, wasReset := e.held, e.heldAddr, e.reset
	e.held, e.heldAddr = nil, nil
	e.mu.Unlock()
	if held != nil && !wasReset {
		_ = e.forward(held, addr) // best-effort: the socket is going away either way
	}
	return e.closeFn()
}

// chaosConn wraps a net.Conn with write-path fault injection.
type chaosConn struct {
	net.Conn
	ep *endpoint
}

// Conn wraps c with stream-semantics fault injection: an injected reset
// closes the underlying conn and fails the write, like a TCP RST.
func (in *Injector) Conn(c net.Conn) net.Conn {
	return in.wrapConn("conn", false, c)
}

// DatagramConn wraps a connected packet socket (e.g. a dialed UDP conn)
// with datagram-semantics fault injection: each Write is one datagram and
// an injected reset manifests as loss, the only way UDP sees one.
func (in *Injector) DatagramConn(c net.Conn) net.Conn {
	return in.wrapConn("dconn", true, c)
}

func (in *Injector) wrapConn(prefix string, datagram bool, c net.Conn) net.Conn {
	forward := func(p []byte, _ net.Addr) error {
		_, err := c.Write(p)
		return err
	}
	return &chaosConn{Conn: c, ep: in.newEndpoint(prefix, datagram, forward, c.Close)}
}

func (c *chaosConn) Write(b []byte) (int, error) { return c.ep.write(b, nil) }

// Close flushes a pending reordered payload (best-effort) and closes the
// underlying conn.
func (c *chaosConn) Close() error { return c.ep.close() }

// Dialer wraps base so every dialed conn carries stream fault injection;
// pass net.Dial (or any DialFunc) as the base.
func (in *Injector) Dialer(base DialFunc) DialFunc { return dialWrapped(base, in.Conn) }

// DatagramDialer is Dialer with datagram semantics for the wrapped conns.
func (in *Injector) DatagramDialer(base DialFunc) DialFunc {
	return dialWrapped(base, in.DatagramConn)
}

func dialWrapped(base DialFunc, wrap func(net.Conn) net.Conn) DialFunc {
	if base == nil {
		base = net.Dial
	}
	return func(network, address string) (net.Conn, error) {
		c, err := base(network, address)
		if err != nil {
			return nil, err
		}
		return wrap(c), nil
	}
}

// chaosListener wraps accepted conns with stream fault injection.
type chaosListener struct {
	net.Listener
	inj *Injector
}

// Listener wraps ln so accepted conns carry stream fault injection on
// their write (server→client) path.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &chaosListener{Listener: ln, inj: in}
}

func (l *chaosListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.Conn(c), nil
}

// chaosPacketConn wraps a net.PacketConn with datagram fault injection on
// the WriteTo path.
type chaosPacketConn struct {
	net.PacketConn
	ep *endpoint
}

// PacketConn wraps pc with datagram fault injection; an injected reset
// manifests as loss (the socket survives).
func (in *Injector) PacketConn(pc net.PacketConn) net.PacketConn {
	forward := func(p []byte, addr net.Addr) error {
		_, err := pc.WriteTo(p, addr)
		return err
	}
	return &chaosPacketConn{PacketConn: pc, ep: in.newEndpoint("pconn", true, forward, pc.Close)}
}

func (c *chaosPacketConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	return c.ep.write(b, addr)
}

// Close flushes a pending reordered datagram (best-effort) and closes the
// underlying socket.
func (c *chaosPacketConn) Close() error { return c.ep.close() }
