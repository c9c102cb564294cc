package ctlplane

import (
	"net"
	"testing"
	"time"

	"corropt/internal/simclock"
)

// TestIdleConnDeadlineClosesDeadPeer pins the serveConn idle deadline: a
// peer that connects and then goes silent past connIdleTimeout — the
// silent-agent failure mode, a TCP session whose other end vanished without
// a FIN — must have its connection torn down by the controller instead of
// pinning a serveConn goroutine forever. The test can't wait five real
// minutes, so it drives the deadline through the injected clock: anchoring
// the virtual epoch connIdleTimeout+1m in the past makes the armed deadline
// (epoch + connIdleTimeout) already expired in kernel time, which is
// exactly the state a silent peer reaches after five idle minutes.
func TestIdleConnDeadlineClosesDeadPeer(t *testing.T) {
	engine := testEngine(t)
	vc := simclock.Virtual{Clock: simclock.New(), Epoch: time.Now().Add(-connIdleTimeout - time.Minute)}
	ctl := serveClock(t, engine, vc)
	defer ctl.Close()

	conn, err := net.Dial("tcp", ctl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The server must close the idle connection; without the read deadline
	// this read would sit for the full 5s bound and fail the test.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("read from idle-deadlined connection succeeded; server never closed it")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server left idle connection open past its deadline (client read timed out after %v)", time.Since(start))
	}

	// Control: the same controller shape with a properly anchored clock
	// serves a round trip — the deadline arms liveness, not a request budget.
	vcLive := simclock.Virtual{Clock: simclock.New(), Epoch: time.Now()}
	live := serveClock(t, engine, vcLive)
	defer live.Close()
	cli, err := DialConfig(live.Addr().String(), ClientConfig{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Status(); err != nil {
		t.Fatalf("status on anchored clock: %v", err)
	}
}
