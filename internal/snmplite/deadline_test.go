package snmplite

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// TestServeSurvivesDeadlineTicks pins the serve loop's deadline-tick
// behavior: the loop re-arms a short read deadline on every pass, so an
// idle server crosses several timeouts — each must be swallowed (not
// treated as a fatal socket error), and a request arriving after many idle
// ticks must still be answered. Before the deadline fix the loop blocked
// forever in ReadFrom; a regression that instead treats the timeout as
// fatal would kill the server during any idle period.
func TestServeSurvivesDeadlineTicks(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ProviderFunc(func(link uint32, counter CounterID) (uint64, error) {
		return uint64(link) + uint64(counter), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Idle across at least three deadline ticks.
	time.Sleep(3*serveDeadlineTick + serveDeadlineTick/2)

	cli, err := DialConfig(srv.Addr().String(), ClientConfig{Timeout: time.Second, Attempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	vals, err := cli.Get([]Query{{Link: 7, Counter: CounterErrorsUp}})
	if err != nil {
		t.Fatalf("get after idle ticks: %v", err)
	}
	if len(vals) != 1 || vals[0].Value != 7+uint64(CounterErrorsUp) {
		t.Fatalf("values = %+v", vals)
	}

	// Close must return within roughly one tick: the conn.Close error path
	// exits immediately, and even a socket whose Close does not unblock a
	// pending ReadFrom is bounded by the next deadline expiry.
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 4*serveDeadlineTick {
		t.Fatalf("Close took %v, want well under %v", elapsed, 4*serveDeadlineTick)
	}
}

// deadlineTimeoutErr is a net.Error timeout for the stub transport.
type deadlineTimeoutErr struct{}

func (deadlineTimeoutErr) Error() string   { return "stub timeout" }
func (deadlineTimeoutErr) Timeout() bool   { return true }
func (deadlineTimeoutErr) Temporary() bool { return true }

// opRecorderConn records the order of deadline arms and I/O calls; reads
// always time out so the client walks its full retransmit schedule.
type opRecorderConn struct {
	mu  sync.Mutex
	ops []string
}

func (c *opRecorderConn) record(op string) {
	c.mu.Lock()
	c.ops = append(c.ops, op)
	c.mu.Unlock()
}

func (c *opRecorderConn) Write(b []byte) (int, error) {
	c.record("write")
	return len(b), nil
}

func (c *opRecorderConn) Read(b []byte) (int, error) {
	c.record("read")
	return 0, deadlineTimeoutErr{}
}

func (c *opRecorderConn) Close() error                { return nil }
func (c *opRecorderConn) LocalAddr() net.Addr         { return nil }
func (c *opRecorderConn) RemoteAddr() net.Addr        { return nil }
func (c *opRecorderConn) SetDeadline(time.Time) error { return nil }
func (c *opRecorderConn) SetReadDeadline(t time.Time) error {
	c.record("set-read")
	return nil
}
func (c *opRecorderConn) SetWriteDeadline(t time.Time) error {
	c.record("set-write")
	return nil
}

// TestClientArmsWriteDeadlineBeforeSend pins the getOnce fix: every
// datagram send must be preceded by a write-deadline arm, so a wrapped
// (chaos) or backpressured socket cannot wedge the poll loop past its
// attempts inside Write. The stub's reads always time out, driving the
// client through its full schedule; each attempt must arm write before
// writing and read before reading.
func TestClientArmsWriteDeadlineBeforeSend(t *testing.T) {
	conn := &opRecorderConn{}
	cli, err := DialConfig("unused", ClientConfig{
		Timeout:  10 * time.Millisecond,
		Attempts: 3,
		Dial:     func(network, address string) (net.Conn, error) { return conn, nil },
		Sleep:    func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, err = cli.Get([]Query{{Link: 1, Counter: CounterPacketsUp}})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}

	conn.mu.Lock()
	ops := append([]string(nil), conn.ops...)
	conn.mu.Unlock()
	writes, armed := 0, 0
	for i, op := range ops {
		if op != "write" {
			continue
		}
		writes++
		if i > 0 && ops[i-1] == "set-write" {
			armed++
		}
	}
	if writes != 3 {
		t.Fatalf("ops = %v: %d writes, want 3 (MaxAttempts)", ops, writes)
	}
	if armed != writes {
		t.Fatalf("ops = %v: only %d of %d writes were preceded by a write-deadline arm", ops, armed, writes)
	}
}
