package ctlplane

import (
	"bufio"
	"bytes"
	"net"
	"reflect"
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"testing/iotest"
	"time"

	"corropt/internal/topology"
)

// writeLog records each Write it receives as its own slice.
type writeLog struct{ writes [][]byte }

func (w *writeLog) Write(b []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(b))
	return len(b), nil
}

// TestWriteMsgIsOneWrite pins the frame-per-write rule and the wire format:
// the goldens are the header and body writes of the two-write WriteMsg,
// concatenated.
func TestWriteMsgIsOneWrite(t *testing.T) {
	for _, tc := range []struct {
		env    *Envelope
		golden string
	}{
		{
			&Envelope{Type: TypeReport, Agent: "tor-1", Seq: 7, Report: &Report{Link: 42, Rate: 1e-3}},
			"\x00\x00\x00KgZ\x8b\xc7" + `{"type":"report","agent":"tor-1","seq":7,"report":{"link":42,"rate":0.001}}`,
		},
		{
			&Envelope{Type: TypeActivateResult, Seq: 9, ActivateResult: &ActivateResult{Disabled: []topology.LinkID{3, 17}}},
			"\x00\x00\x00Hc|\xe8\xf0" + `{"type":"activate-result","seq":9,"activate_result":{"disabled":[3,17]}}`,
		},
	} {
		var w writeLog
		if err := WriteMsg(&w, tc.env); err != nil {
			t.Fatal(err)
		}
		if len(w.writes) != 1 {
			t.Fatalf("%s: WriteMsg issued %d writes, want 1", tc.env.Type, len(w.writes))
		}
		if got := string(w.writes[0]); got != tc.golden {
			t.Errorf("%s frame:\n got %q\nwant %q", tc.env.Type, got, tc.golden)
		}
	}
}

// TestTwoFramesInOneWriteGetTwoReplies guards the reader's lifetime: with a
// reader made per message, the second frame would be buffered by the first
// reader and thrown away with it, and the second reply would never come.
func TestTwoFramesInOneWriteGetTwoReplies(t *testing.T) {
	engine := testEngine(t)
	ctl, err := NewController("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	conn, err := net.Dial("tcp", ctl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var both bytes.Buffer
	for _, e := range []*Envelope{
		{Type: TypeReport, Agent: "a", Seq: 1, Report: &Report{Link: 4, Rate: 1e-9}},
		{Type: TypeStatus, Agent: "a", Seq: 2},
	} {
		if err := WriteMsg(&both, e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(both.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	first, err := ReadMsg(br)
	if err != nil {
		t.Fatal(err)
	}
	if first.Seq != 1 || first.Type != TypeDecision || first.Decision.Link != 4 {
		t.Fatalf("first reply: %+v", first)
	}
	second, err := ReadMsg(br)
	if err != nil {
		t.Fatalf("second request in the same write was never answered: %v", err)
	}
	if second.Seq != 2 || second.Type != TypeStatusResult {
		t.Fatalf("second reply: %+v", second)
	}
}

// oneByteConn hands out one byte per Read, the worst segmentation a stream
// can show its reader.
type oneByteConn struct{ net.Conn }

func (c oneByteConn) Read(b []byte) (int, error) {
	if len(b) > 1 {
		b = b[:1]
	}
	return c.Conn.Read(b)
}

func TestOneBytePerReadDecodesIdentically(t *testing.T) {
	want := &Envelope{Type: TypeDecision, Seq: 3, Decision: &Decision{Link: 8, Disabled: true, Reason: "capacity holds"}}
	var frame bytes.Buffer
	if err := WriteMsg(&frame, want); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*bufio.Reader{
		"whole":    bufio.NewReaderSize(bytes.NewReader(frame.Bytes()), connReaderSize),
		"one-byte": bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(frame.Bytes())), connReaderSize),
	} {
		got, err := ReadMsg(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, want %+v", name, got, want)
		}
	}

	// The same through a live client: its connection trickles the reply.
	engine := testEngine(t)
	ctl, err := NewController("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	status := func(dial func(network, address string) (net.Conn, error)) *StatusResult {
		t.Helper()
		cli, err := DialConfig(ctl.Addr().String(), ClientConfig{Timeout: 5 * time.Second, Dial: dial})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		st, err := cli.Status()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	whole := status(nil)
	trickled := status(func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		return oneByteConn{c}, err
	})
	if !reflect.DeepEqual(trickled, whole) {
		t.Fatalf("status read one byte at a time: %+v, want %+v", trickled, whole)
	}
}

// scriptConn serves reads in order, one chunk per Read, then fails every
// further Read with ECONNRESET; writes are swallowed.
type scriptConn struct {
	stubConn
	reads [][]byte
}

func (s *scriptConn) Read(b []byte) (int, error) {
	if len(s.reads) == 0 {
		return 0, syscall.ECONNRESET
	}
	n := copy(b, s.reads[0])
	if s.reads[0] = s.reads[0][n:]; len(s.reads[0]) == 0 {
		s.reads = s.reads[1:]
	}
	return n, nil
}

// TestRedialStartsWithAnEmptyBuffer: whatever the dead connection delivered
// and the client did not consume must die with it. Were the reader carried
// across the redial, the tail bytes below would be parsed as the start of the
// second connection's reply.
func TestRedialStartsWithAnEmptyBuffer(t *testing.T) {
	frame := func(e *Envelope) []byte {
		var b bytes.Buffer
		if err := WriteMsg(&b, e); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	good := frame(&Envelope{Type: TypeDecision, Seq: 1, Decision: &Decision{Link: 6, Reason: "fresh"}})
	stale := frame(&Envelope{Type: TypeDecision, Seq: 1, Decision: &Decision{Link: 6, Disabled: true, Reason: "stale"}})
	duplicate := frame(&Envelope{Type: TypeDecision, Seq: 99, Decision: &Decision{Link: 6}})

	for name, firstConn := range map[string][][]byte{
		// Most of a reply, then the reset.
		"truncated reply then reset": {stale[:len(stale)-5]},
		// A duplicated old reply (rejected by its seq) with the head of the
		// real one behind it in the same segment: those bytes stay buffered.
		"unread tail behind a rejected frame": {slices.Concat(duplicate, stale[:len(stale)/2])},
	} {
		conns := []net.Conn{
			&scriptConn{reads: firstConn},
			&scriptConn{reads: [][]byte{good}},
		}
		var dials int
		cli, err := DialConfig("unused", ClientConfig{
			Dial: func(network, addr string) (net.Conn, error) {
				dials++
				return conns[dials-1], nil
			},
			Attempts: 2,
			Sleep:    func(time.Duration) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := cli.Report(6, 1e-3)
		if err != nil {
			t.Fatalf("%s: report after redial: %v", name, err)
		}
		if d.Reason != "fresh" || d.Disabled {
			t.Errorf("%s: decision %+v was not read from the second connection", name, d)
		}
		if dials != 2 {
			t.Errorf("%s: dialed %d times, want 2", name, dials)
		}
		cli.Close()
	}
}

// TestFrameLargerThanReaderRoundTrips: the reader's size bounds memory per
// connection, not the frame — a 16,384-link ActivateResult is an ≈ 90 KB body
// against a 4 KiB reader.
func TestFrameLargerThanReaderRoundTrips(t *testing.T) {
	want := make([]topology.LinkID, 16384)
	for i := range want {
		want[i] = topology.LinkID(10000 + i)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		req, err := ReadMsg(bufio.NewReaderSize(conn, connReaderSize))
		if err != nil {
			served <- err
			return
		}
		served <- WriteMsg(conn, &Envelope{Type: TypeActivateResult, Seq: req.Seq, ActivateResult: &ActivateResult{Disabled: want}})
	}()

	cli, err := DialConfig(ln.Addr().String(), ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	got, err := cli.Activate(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("server side: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("large ActivateResult changed in transit: %d links, want %d", len(got), len(want))
	}
}

// TestRoundTripAllocCeiling counts every allocation of a below-threshold
// Report round trip on loopback, client and server together. The ceiling is
// the count of the two-write framing, so assembling the frame in one buffer
// may not have added one.
func TestRoundTripAllocCeiling(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates")
			}
		}
	}
	const ceiling = 35
	engine := testEngine(t)
	ctl, err := NewController("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	cli, err := DialConfig(ctl.Addr().String(), ClientConfig{AgentID: "allocs", Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	got := testing.AllocsPerRun(1000, func() {
		if _, err := cli.Report(0, 1e-9); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Fatalf("Report round trip allocates %v times, ceiling %d", got, ceiling)
	}
}
