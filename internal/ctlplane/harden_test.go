package ctlplane

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"corropt/internal/netchaos"
	"corropt/internal/rngutil"
)

func TestFramingRejectsBitFlip(t *testing.T) {
	var buf bytes.Buffer
	in := &Envelope{Type: TypeReport, Report: &Report{Link: 3, Rate: 0.01}}
	if err := WriteMsg(&buf, in); err != nil {
		t.Fatal(err)
	}
	pkt := buf.Bytes()
	// Flip one bit in the JSON body (past the 8-byte header).
	pkt[frameHeaderLen+2] ^= 0x10
	_, err := ReadMsg(bytes.NewReader(pkt))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit-flipped frame: err = %v, want ErrChecksum", err)
	}
}

// stubErr is a net.Error timeout for driving the per-phase sentinels.
type stubErr struct{}

func (stubErr) Error() string   { return "stub timeout" }
func (stubErr) Timeout() bool   { return true }
func (stubErr) Temporary() bool { return true }

// stubConn fails reads and/or writes with configured errors; successful
// writes are discarded, successful reads drain served.
type stubConn struct {
	writeErr error
	readErr  error
	served   bytes.Buffer
}

func (s *stubConn) Write(b []byte) (int, error) {
	if s.writeErr != nil {
		return 0, s.writeErr
	}
	return len(b), nil
}
func (s *stubConn) Read(b []byte) (int, error) {
	if s.readErr != nil {
		return 0, s.readErr
	}
	return s.served.Read(b)
}
func (s *stubConn) Close() error                       { return nil }
func (s *stubConn) LocalAddr() net.Addr                { return nil }
func (s *stubConn) RemoteAddr() net.Addr               { return nil }
func (s *stubConn) SetDeadline(t time.Time) error      { return nil }
func (s *stubConn) SetReadDeadline(t time.Time) error  { return nil }
func (s *stubConn) SetWriteDeadline(t time.Time) error { return nil }

func stubDialer(mk func() net.Conn, dials *int) func(network, address string) (net.Conn, error) {
	return func(network, address string) (net.Conn, error) {
		*dials++
		return mk(), nil
	}
}

func TestWriteTimeoutSentinel(t *testing.T) {
	var dials int
	cli, err := DialConfig("unused", ClientConfig{
		Dial:  stubDialer(func() net.Conn { return &stubConn{writeErr: stubErr{}} }, &dials),
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Status()
	if !errors.Is(err, ErrWriteTimeout) {
		t.Fatalf("err = %v, want wrapped ErrWriteTimeout", err)
	}
	if errors.Is(err, ErrReadTimeout) {
		t.Fatal("write-phase starvation also matched ErrReadTimeout")
	}
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want wrapped ErrRetriesExhausted", err)
	}
}

func TestReadTimeoutSentinel(t *testing.T) {
	var dials int
	cli, err := DialConfig("unused", ClientConfig{
		Dial:  stubDialer(func() net.Conn { return &stubConn{readErr: stubErr{}} }, &dials),
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Status()
	if !errors.Is(err, ErrReadTimeout) {
		t.Fatalf("err = %v, want wrapped ErrReadTimeout", err)
	}
	if errors.Is(err, ErrWriteTimeout) {
		t.Fatal("read-phase starvation also matched ErrWriteTimeout")
	}
}

func TestRetriesExhaustedCountsAttempts(t *testing.T) {
	var dials int
	cli, err := DialConfig("unused", ClientConfig{
		Dial:     stubDialer(func() net.Conn { return &stubConn{writeErr: stubErr{}} }, &dials),
		Attempts: 3,
		Sleep:    func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Status(); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	// One eager dial plus one redial per retry after the conn is dropped.
	if dials != 3 {
		t.Fatalf("dialed %d times, want 3 (eager + 2 redials)", dials)
	}
}

func TestClientReconnectsThroughReset(t *testing.T) {
	engine := testEngine(t)
	ctl, err := NewController("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	// The first connection is reset mid-stream on its first write; the
	// budget then runs dry, so the client's redial gets a clean path.
	inj := netchaos.New(rngutil.New(3), netchaos.Config{Reset: 1, MaxFaults: 1})
	cli, err := DialConfig(ctl.Addr().String(), ClientConfig{
		Dial:     inj.Dialer(),
		Attempts: 4,
		AgentID:  "reconnector",
		Sleep:    func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	topo := engine.Network().Topology()
	l := topo.Uplinks(topo.ToRs()[0])[0]
	d, err := cli.Report(l, 1e-3)
	if err != nil {
		t.Fatalf("report through reset: %v", err)
	}
	if !d.Disabled {
		t.Fatalf("decision = %+v, want disabled", d)
	}
	if s := inj.Stats(); s.Resets != 1 {
		t.Fatalf("stats = %+v, want exactly one injected reset", s)
	}
}

func TestIdempotentReplayDoesNotRerunOptimizer(t *testing.T) {
	engine := testEngine(t)
	ctl, err := NewController("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	topo := engine.Network().Topology()
	tor := topo.ToRs()[0]
	l1, l2 := topo.Uplinks(tor)[0], topo.Uplinks(tor)[1]

	conn, err := net.Dial("tcp", ctl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(e *Envelope) *Envelope {
		t.Helper()
		if err := WriteMsg(conn, e); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Disable l1, get l2 refused at c=0.5, then repair l1: the optimizer
	// disables l2 in response.
	exchange(&Envelope{Type: TypeReport, Agent: "a", Seq: 1, Report: &Report{Link: l1, Rate: 1e-3}})
	exchange(&Envelope{Type: TypeReport, Agent: "a", Seq: 2, Report: &Report{Link: l2, Rate: 1e-2}})
	first := exchange(&Envelope{Type: TypeActivate, Agent: "a", Seq: 3, Activate: &Activate{Link: l1}})
	if first.Type != TypeActivateResult || len(first.ActivateResult.Disabled) != 1 {
		t.Fatalf("activate reply: %+v", first)
	}

	// A retransmitted Activate (same agent, same seq — the reply was
	// "lost") must replay the cached answer, not re-run LinkRepaired.
	replay := exchange(&Envelope{Type: TypeActivate, Agent: "a", Seq: 3, Activate: &Activate{Link: l1}})
	if !reflect.DeepEqual(first, replay) {
		t.Fatalf("replayed reply differs:\nfirst:  %+v\nreplay: %+v", first, replay)
	}
	if replay.Seq != 3 {
		t.Fatalf("replayed seq = %d, want 3", replay.Seq)
	}

	// State is as after a single activation: l2 disabled, l1 active.
	st := exchange(&Envelope{Type: TypeStatus, Agent: "a", Seq: 4})
	if st.Status == nil || st.Status.Disabled != 1 {
		t.Fatalf("status after replay: %+v", st.Status)
	}
}

func TestReplyCacheEviction(t *testing.T) {
	engine := testEngine(t)
	ctl, err := NewController("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	// Push more than maxCachedReplies sequence numbers through one agent;
	// the cache must stay bounded and recent seqs must still replay.
	for seq := uint64(1); seq <= maxCachedReplies+8; seq++ {
		reply := ctl.handle(&Envelope{Type: TypeStatus, Agent: "a", Seq: seq})
		if reply.Type != TypeStatusResult {
			t.Fatalf("seq %d: %+v", seq, reply)
		}
	}
	ctl.mu.Lock()
	cached := len(ctl.agents["a"].replies)
	ctl.mu.Unlock()
	if cached != maxCachedReplies {
		t.Fatalf("cache holds %d replies, want %d", cached, maxCachedReplies)
	}
}

// TestRestartedAgentIsNotServedStaleReplies: a new process under the same
// agent name numbers its requests from 1 again while the controller still
// holds the old process's replies under those numbers. Its first request
// must reach the engine, not be answered with what seq 1 meant last time.
func TestRestartedAgentIsNotServedStaleReplies(t *testing.T) {
	engine := testEngine(t)
	ctl, err := NewController("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	topo := engine.Network().Topology()
	tor := topo.ToRs()[0]
	l1, l2 := topo.Uplinks(tor)[0], topo.Uplinks(tor)[1]

	life := func() *Client {
		t.Helper()
		cli, err := DialConfig(ctl.Addr().String(), ClientConfig{AgentID: "tor-1", Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return cli
	}
	first := life()
	d, err := first.Report(l1, 1e-3)
	if err != nil || !d.Disabled {
		t.Fatalf("first life: decision %+v, err %v; want l1 disabled", d, err)
	}
	first.Close()

	second := life()
	defer second.Close()
	// At c = 0.5 with l1 down, l2 cannot be disabled as well.
	d, err = second.Report(l2, 1e-2)
	if err != nil {
		t.Fatalf("second life: %v", err)
	}
	if d.Link != l2 || d.Disabled {
		t.Fatalf("second life asked about link %d and was told %+v", l2, d)
	}
	if st, err := second.Status(); err != nil || st.ActiveCorrupting != 1 {
		t.Fatalf("engine never saw the second life's report: status %+v, err %v", st, err)
	}

	// The old life's replies are gone as a whole, not just the one that
	// collided: seq 2 of the first life would have been a different request.
	ctl.mu.Lock()
	cached := len(ctl.agents["tor-1"].replies)
	ctl.mu.Unlock()
	if cached != 2 {
		t.Fatalf("cache holds %d replies after the restart, want the second life's 2", cached)
	}
}

// TestReportRejectsDecisionAboutAnotherLink pins the client half of the same
// defence: a decision naming a link the report did not is an error, never a
// verdict the agent acts on.
func TestReportRejectsDecisionAboutAnotherLink(t *testing.T) {
	conn := &stubConn{}
	if err := WriteMsg(&conn.served, &Envelope{Type: TypeDecision, Seq: 1, Decision: &Decision{Link: 0, Disabled: true}}); err != nil {
		t.Fatal(err)
	}
	var dials int
	cli, err := DialConfig("unused", ClientConfig{Dial: stubDialer(func() net.Conn { return conn }, &dials)})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if d, err := cli.Report(5, 1e-3); err == nil {
		t.Fatalf("report about link 5 accepted a decision about link %d", d.Link)
	}
}

// lockedClock is a wall clock the test advances while serveConn goroutines
// read it for socket deadlines.
type lockedClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *lockedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *lockedClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestSweepStale(t *testing.T) {
	engine := testEngine(t)
	// The clock starts at real now: the controller arms socket deadlines
	// from it, and the kernel evaluates them against real time — a zero
	// start would make every deadline already expired.
	vc := &lockedClock{now: time.Now()}
	ctl := serveClock(t, engine, vc)
	defer ctl.Close()

	topo := engine.Network().Topology()
	l := topo.Uplinks(topo.ToRs()[0])[0]
	for _, agent := range []string{"a2", "a1"} {
		cli, err := DialConfig(ctl.Addr().String(), ClientConfig{AgentID: agent})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Report(l, 1e-9); err != nil {
			cli.Close()
			t.Fatal(err)
		}
		cli.Close()
	}
	if live, stale := ctl.AgentStats(); live != 2 || stale != 0 {
		t.Fatalf("AgentStats = (%d, %d), want (2, 0)", live, stale)
	}
	if names := ctl.SweepStale(time.Minute); len(names) != 0 {
		t.Fatalf("premature sweep marked %v stale", names)
	}

	vc.advance(2 * time.Minute)
	names := ctl.SweepStale(time.Minute)
	if !reflect.DeepEqual(names, []string{"a1", "a2"}) {
		t.Fatalf("stale = %v, want sorted [a1 a2]", names)
	}
	if live, stale := ctl.AgentStats(); live != 0 || stale != 2 {
		t.Fatalf("AgentStats after sweep = (%d, %d), want (0, 2)", live, stale)
	}

	// The counters surface over the protocol.
	cli, err := DialConfig(ctl.Addr().String(), ClientConfig{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	st, err := cli.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Agents != 0 || st.StaleAgents != 2 {
		t.Fatalf("status agents = (%d, %d), want (0, 2)", st.Agents, st.StaleAgents)
	}
}

func TestLegacyClientsBypassIdempotency(t *testing.T) {
	engine := testEngine(t)
	ctl, err := NewController("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	// No Agent set: nothing is tracked, nothing cached.
	cli, err := DialConfig(ctl.Addr().String(), ClientConfig{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Status(); err != nil {
		t.Fatal(err)
	}
	if live, stale := ctl.AgentStats(); live != 0 || stale != 0 {
		t.Fatalf("legacy client tracked: AgentStats = (%d, %d)", live, stale)
	}
}

// TestReportRejectsOutOfRangeRate pins ingress validation: a corruption
// rate outside [0, 1] is answered with an error envelope and never reaches
// the engine, and the connection stays usable.
func TestReportRejectsOutOfRangeRate(t *testing.T) {
	engine := testEngine(t)
	ctl, err := NewController("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	cli, err := DialConfig(ctl.Addr().String(), ClientConfig{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for _, rate := range []float64{-1, -1e-12, 1.0000001, 2, 1e300} {
		if d, err := cli.Report(0, rate); err == nil {
			t.Errorf("Report(rate=%g) accepted: %+v", rate, d)
		}
	}
	st, err := cli.Status()
	if err != nil {
		t.Fatalf("connection dead after error replies: %v", err)
	}
	if st.Disabled != 0 || st.ActiveCorrupting != 0 || st.TotalPenalty != 0 {
		t.Fatalf("rejected reports reached the engine: %+v", st)
	}
	// The bounds themselves are valid rates.
	for _, rate := range []float64{0, 1} {
		if _, err := cli.Report(0, rate); err != nil {
			t.Errorf("Report(rate=%g): %v", rate, err)
		}
	}
}
