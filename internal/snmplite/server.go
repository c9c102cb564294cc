package snmplite

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"corropt/internal/simclock"
)

// Provider answers counter queries; implementations adapt telemetry
// sources. Unknown links or counters should return an error, which the
// server converts into a protocol error reply.
type Provider interface {
	Counter(link uint32, counter CounterID) (uint64, error)
}

// ProviderFunc adapts a function to the Provider interface.
type ProviderFunc func(link uint32, counter CounterID) (uint64, error)

// Counter implements Provider.
func (f ProviderFunc) Counter(link uint32, counter CounterID) (uint64, error) {
	return f(link, counter)
}

// serveDeadlineTick is the read-deadline interval of the serve loop. The
// loop never blocks longer than one tick: even a packet socket whose Close
// does not unblock a pending ReadFrom (chaos-harness wrappers are free to
// behave that way) lets the loop observe shutdown within a tick.
const serveDeadlineTick = 250 * time.Millisecond

// Server answers snmplite GET requests over UDP.
type Server struct {
	provider Provider
	conn     net.PacketConn
	clock    simclock.WallClock

	mu     sync.Mutex
	closed bool
	done   chan struct{}

	// Scratch of the serve goroutine, reused from one datagram to the next.
	queries []Query
	values  []Value
	reply   []byte
}

// NewServer starts a server on addr (e.g. "127.0.0.1:0") backed by the
// provider. Close stops it.
func NewServer(addr string, provider Provider) (*Server, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("snmplite: listen: %w", err)
	}
	s, err := NewServerConn(conn, provider)
	if err != nil {
		_ = conn.Close() // constructor failed; nothing else owns the socket
		return nil, err
	}
	return s, nil
}

// NewServerConn starts a server on an existing packet socket — the
// injection point chaos harnesses use to wrap the reply path in fault
// injection. The server owns conn and closes it on Close.
func NewServerConn(conn net.PacketConn, provider Provider) (*Server, error) {
	return NewServerConnClock(conn, provider, simclock.Real{})
}

// NewServerConnClock is NewServerConn with an injected wall clock, for
// harnesses that drive the serve loop's read deadlines against virtual
// time.
func NewServerConnClock(conn net.PacketConn, provider Provider, clock simclock.WallClock) (*Server, error) {
	if provider == nil {
		return nil, errors.New("snmplite: nil provider")
	}
	if clock == nil {
		clock = simclock.Real{}
	}
	s := &Server{provider: provider, conn: conn, clock: clock, done: make(chan struct{})}
	go s.serve()
	return s, nil
}

// Addr reports the server's bound address.
func (s *Server) Addr() net.Addr { return s.conn.LocalAddr() }

// Close shuts the server down and waits for the serve goroutine to exit.
// The mutex only guards the closed flag: waiting on done while holding it
// would wedge any concurrent Close caller (and anything else that ever
// takes s.mu) behind the serve goroutine's shutdown, so the lock is
// released before the blocking receive. A second Close returns immediately
// without waiting, which matches net.Conn semantics.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.conn.Close()
	<-s.done
	return err
}

func (s *Server) serve() {
	defer close(s.done)
	buf := make([]byte, 64*1024)
	for {
		// Deadline-tick rather than block forever: see serveDeadlineTick.
		_ = s.conn.SetReadDeadline(s.clock.Now().Add(serveDeadlineTick))
		n, peer, err := s.conn.ReadFrom(buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if s.isClosed() {
					return
				}
				continue
			}
			return // closed
		}
		reply := s.handle(buf[:n])
		if reply != nil {
			// Best-effort: UDP pollers retry on loss. The write inherits the
			// read deadline's liveness bound: a wedged socket trips it.
			_, _ = s.conn.WriteTo(reply, peer)
		}
	}
}

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// handle builds the reply for one datagram; nil drops it (unparseable
// garbage gets no response, like real SNMP agents behave toward noise —
// and a checksum failure *is* noise: the request id itself may be
// corrupted, so answering could poison an unrelated exchange; silence
// makes the client retransmit instead). The reply aliases the server's
// scratch and is valid until the next call.
func (s *Server) handle(pkt []byte) []byte {
	reqID, queries, err := appendRequestQueries(s.queries[:0], pkt)
	if err != nil {
		if errors.Is(err, ErrBadMagic) || errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) {
			return nil
		}
		return EncodeError(reqID, 1, err.Error())
	}
	s.queries = queries
	values := s.values[:0]
	for _, q := range queries {
		v, err := s.provider.Counter(q.Link, q.Counter)
		if err != nil {
			return EncodeError(reqID, 2, fmt.Sprintf("link %d counter %v: %v", q.Link, q.Counter, err))
		}
		values = append(values, Value{Query: q, Value: v})
	}
	s.values = values
	reply, err := appendResponse(s.reply[:0], reqID, values)
	if err != nil {
		return EncodeError(reqID, 3, err.Error())
	}
	s.reply = reply
	return reply
}
