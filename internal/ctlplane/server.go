package ctlplane

import (
	"bufio"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"corropt/internal/core"
	"corropt/internal/simclock"
	"corropt/internal/topology"
)

// maxCachedReplies bounds the per-agent idempotency cache; retries replay
// recent sequence numbers, so a small FIFO window is plenty.
const maxCachedReplies = 128

// connIdleTimeout bounds how long serveConn waits for an agent's next
// request, and connWriteTimeout how long one reply write may take. Agents
// poll far more often than the idle bound, so only a dead or wedged peer —
// the silent-agent failure mode the liveness sweep exists for — ever trips
// them; without the read deadline a connection whose peer vanished without
// a FIN (the common way a corrupting ToR uplink kills a TCP session) would
// pin its serveConn goroutine forever.
const (
	connIdleTimeout  = 5 * time.Minute
	connWriteTimeout = 30 * time.Second
)

// requestKey is what a cached reply remembers of the request it answered.
// A sequential client never reuses a sequence number for a different
// request, so the same (agent, seq) with a different key can only come from
// a new incarnation of the agent whose numbering restarted. (One whose
// first requests equal its predecessor's looks like a retry and is replayed
// up to the first difference; the wire carries no incarnation number.)
type requestKey struct {
	typ  MsgType
	link topology.LinkID
	rate uint64 // math.Float64bits of Report.Rate
}

func keyOf(msg *Envelope) requestKey {
	k := requestKey{typ: msg.Type}
	switch {
	case msg.Type == TypeReport && msg.Report != nil:
		k.link, k.rate = msg.Report.Link, math.Float64bits(msg.Report.Rate)
	case msg.Type == TypeActivate && msg.Activate != nil:
		k.link = msg.Activate.Link
	}
	return k
}

type cachedReply struct {
	req   requestKey
	reply *Envelope
}

// agentState tracks one reporting agent: when it was last heard from (for
// the liveness sweep) and its recent replies keyed by sequence number (for
// idempotent replay after a reconnect).
type agentState struct {
	lastSeen time.Time
	replies  map[uint64]cachedReply
	// order is the FIFO eviction ring over the keys of replies; next is the
	// slot the following insertion takes, which holds the oldest key once
	// the ring is full.
	order [maxCachedReplies]uint64
	next  int
}

// forget empties the reply cache: the agent restarted and nothing cached for
// its previous life may answer the new one.
func (st *agentState) forget() {
	clear(st.replies)
	st.next = 0
}

// remember caches reply under seq, evicting the oldest entry when full.
func (st *agentState) remember(seq uint64, r cachedReply) {
	if len(st.replies) == maxCachedReplies {
		delete(st.replies, st.order[st.next])
	}
	st.replies[seq] = r
	st.order[st.next] = seq
	st.next = (st.next + 1) % maxCachedReplies
}

// Controller serves the CorrOpt control plane over TCP. Every request steps
// one core.RepairLoop, guarded by a mutex: corruption events are rare (per
// §3, a handful of links per data center per day), so one serialized loop is
// both simple and far faster than needed.
//
// The controller is hardened against the network it manages (§5–§6):
// requests carrying an agent identity and sequence number are answered
// idempotently (the same request under the same number gets the cached
// reply, so a retried Activate does not re-run the optimizer; a different
// request under a cached number is a restarted agent and resets its
// cache), and the liveness sweep marks silent agents stale.
type Controller struct {
	engine *core.Engine
	loop   *core.RepairLoop
	clock  simclock.WallClock

	mu         sync.Mutex // guards engine, loop, agents, staleTotal
	agents     map[string]*agentState
	staleTotal int

	lnMu   sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewController starts a controller for engine on addr (e.g.
// "127.0.0.1:0"), reading liveness timestamps from the system clock.
func NewController(addr string, engine *core.Engine) (*Controller, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeListener(ln, engine, simclock.Real{})
}

// ServeListener starts a controller on an existing listener — the
// injection point chaos harnesses use to wrap the accept path in fault
// injection. The controller owns ln and closes it on Close.
func ServeListener(ln net.Listener, engine *core.Engine, clock simclock.WallClock) (*Controller, error) {
	if clock == nil {
		clock = simclock.Real{}
	}
	loop, err := core.NewRepairLoop(engine, core.RepairConfig{}, nil)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		engine: engine,
		loop:   loop,
		clock:  clock,
		agents: make(map[string]*agentState),
		ln:     ln,
		conns:  make(map[net.Conn]struct{}),
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr reports the controller's bound address.
func (c *Controller) Addr() net.Addr { return c.ln.Addr() }

// Close stops the controller and tears down open connections.
func (c *Controller) Close() error {
	c.lnMu.Lock()
	if c.closed {
		c.lnMu.Unlock()
		return nil
	}
	c.closed = true
	err := c.ln.Close()
	for conn := range c.conns {
		_ = conn.Close() // best-effort teardown; the listener error is the one reported
	}
	c.lnMu.Unlock()
	c.wg.Wait()
	return err
}

func (c *Controller) acceptLoop() {
	defer c.wg.Done()
	for {
		// net.Listener has no deadline API; Close unblocks Accept, which is
		// the only way this loop ever needs to stop.
		//lint:allow ctxdeadline Accept is unblocked by ln.Close and Listener has no Set*Deadline
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.lnMu.Lock()
		if c.closed {
			c.lnMu.Unlock()
			_ = conn.Close() // racing shutdown; nothing to report the error to
			return
		}
		c.conns[conn] = struct{}{}
		c.lnMu.Unlock()
		c.wg.Add(1)
		go c.serveConn(conn)
	}
}

func (c *Controller) serveConn(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		_ = conn.Close() // connection is done either way; error carries no signal here
		c.lnMu.Lock()
		delete(c.conns, conn)
		c.lnMu.Unlock()
	}()
	// One reader for the life of the connection: a frame's header and body
	// come out of one read, and a second frame that arrived in the same
	// segment is still there for the next iteration.
	br := bufio.NewReaderSize(conn, connReaderSize)
	for {
		if err := conn.SetReadDeadline(c.clock.Now().Add(connIdleTimeout)); err != nil {
			return
		}
		msg, err := ReadMsg(br)
		if err != nil {
			return
		}
		reply := c.handle(msg)
		if err := conn.SetWriteDeadline(c.clock.Now().Add(connWriteTimeout)); err != nil {
			return
		}
		if err := WriteMsg(conn, reply); err != nil {
			return
		}
	}
}

// SweepStale removes agents not heard from within maxSilence and returns
// their names in sorted order.
func (c *Controller) SweepStale(maxSilence time.Duration) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	var stale []string
	for name, st := range c.agents {
		if now.Sub(st.lastSeen) > maxSilence {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		delete(c.agents, name)
	}
	c.staleTotal += len(stale)
	return stale
}

// AgentStats reports the number of live tracked agents and the cumulative
// count of agents marked stale by sweeps.
func (c *Controller) AgentStats() (live, stale int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.agents), c.staleTotal
}

func (c *Controller) handle(msg *Envelope) *Envelope {
	c.mu.Lock()
	defer c.mu.Unlock()

	key := keyOf(msg)
	var st *agentState
	if msg.Agent != "" {
		st = c.agents[msg.Agent]
		if st == nil {
			st = &agentState{replies: make(map[uint64]cachedReply)}
			c.agents[msg.Agent] = st
		}
		st.lastSeen = c.clock.Now()
		if msg.Seq != 0 {
			if cached, ok := st.replies[msg.Seq]; ok {
				if cached.req == key {
					return cached.reply // idempotent replay: do not re-run side effects
				}
				st.forget()
			}
		}
	}

	reply := c.dispatch(msg)
	reply.Seq = msg.Seq
	if st != nil && msg.Seq != 0 {
		st.remember(msg.Seq, cachedReply{req: key, reply: reply})
	}
	return reply
}

// dispatch decodes a Report or an Activate — a repair that left the link
// clean; monitoring re-reports it if not — into one repair-loop input at the
// clock's Unix nanoseconds, or answers a Status; c.mu is held.
func (c *Controller) dispatch(msg *Envelope) *Envelope {
	net := c.engine.Network()
	var in core.Input
	switch {
	case msg.Type == TypeReport && msg.Report != nil:
		in = core.Input{Link: msg.Report.Link, Kind: core.InputReport, Rate: msg.Report.Rate}
	case msg.Type == TypeReport:
		return errEnvelope("report message without report body")
	case msg.Type == TypeActivate && msg.Activate != nil:
		in = core.Input{Link: msg.Activate.Link, Kind: core.InputRepaired}
	case msg.Type == TypeActivate:
		return errEnvelope("activate message without body")
	case msg.Type == TypeStatus:
		return &Envelope{Type: TypeStatusResult, Status: &StatusResult{
			Links:            net.Topology().NumLinks(),
			Disabled:         net.NumDisabled(),
			ActiveCorrupting: net.NumActiveCorrupting(c.engine.Threshold()),
			WorstToRFraction: net.WorstToRFraction(),
			TotalPenalty:     c.engine.TotalPenalty(),
			Agents:           len(c.agents),
			StaleAgents:      c.staleTotal,
		}}
	default:
		return errEnvelope("unknown message type " + string(msg.Type))
	}
	if int(in.Link) < 0 || int(in.Link) >= net.Topology().NumLinks() {
		return errEnvelope("unknown link")
	}
	if err := core.CheckRate(in.Rate); err != nil {
		return errEnvelope(err.Error())
	}
	in.At = time.Duration(c.clock.Now().UnixNano())
	d, step, err := c.loop.Step(in)
	switch {
	case err != nil:
		return errEnvelope(err.Error())
	case in.Kind == core.InputReport:
		return &Envelope{Type: TypeDecision, Decision: &Decision{Link: d.Link, Disabled: d.Disabled, Reason: d.Reason()}}
	}
	var disabled []topology.LinkID // not the loop's buffer: a cached reply outlives it
	for _, o := range step.Opened {
		disabled = append(disabled, o.Ticket.Link)
	}
	return &Envelope{Type: TypeActivateResult, ActivateResult: &ActivateResult{Disabled: disabled}}
}

func errEnvelope(msg string) *Envelope {
	return &Envelope{Type: TypeError, Error: msg}
}
