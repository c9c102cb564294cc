package netchaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"corropt/internal/rngutil"
)

// fakeAddr satisfies net.Addr for the in-memory endpoints.
type fakeAddr string

func (a fakeAddr) Network() string { return "fake" }
func (a fakeAddr) String() string  { return string(a) }

// fakeConn records every Write as one payload, the way a datagram socket
// would see it.
type fakeConn struct {
	mu     sync.Mutex
	writes [][]byte
	closed bool
}

func (f *fakeConn) Write(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes = append(f.writes, append([]byte(nil), b...))
	return len(b), nil
}
func (f *fakeConn) Read(b []byte) (int, error)         { return 0, errors.New("not readable") }
func (f *fakeConn) Close() error                       { f.mu.Lock(); defer f.mu.Unlock(); f.closed = true; return nil }
func (f *fakeConn) LocalAddr() net.Addr                { return fakeAddr("local") }
func (f *fakeConn) RemoteAddr() net.Addr               { return fakeAddr("remote") }
func (f *fakeConn) SetDeadline(t time.Time) error      { return nil }
func (f *fakeConn) SetReadDeadline(t time.Time) error  { return nil }
func (f *fakeConn) SetWriteDeadline(t time.Time) error { return nil }

func (f *fakeConn) recorded() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][]byte, len(f.writes))
	copy(out, f.writes)
	return out
}

func (f *fakeConn) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// fakePacketConn records every WriteTo with its destination.
type fakePacketConn struct {
	fakeConn
	addrs []net.Addr
}

func (f *fakePacketConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	f.mu.Lock()
	f.addrs = append(f.addrs, addr)
	f.mu.Unlock()
	return f.fakeConn.Write(b)
}
func (f *fakePacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	return 0, nil, errors.New("not readable")
}

func mustWrite(t *testing.T, c net.Conn, payload []byte) {
	t.Helper()
	n, err := c.Write(payload)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if n != len(payload) {
		t.Fatalf("Write reported %d bytes, want %d", n, len(payload))
	}
}

func TestZeroConfigIsTransparent(t *testing.T) {
	under := &fakeConn{}
	inj := New(rngutil.New(1), Config{})
	c := inj.Conn(under)
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	for _, p := range payloads {
		mustWrite(t, c, p)
	}
	got := under.recorded()
	if len(got) != len(payloads) {
		t.Fatalf("recorded %d writes, want %d", len(got), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(got[i], p) {
			t.Errorf("write %d: got %q, want %q", i, got[i], p)
		}
	}
	if s := inj.Stats(); s.Faults() != 0 || s.Ops != len(payloads) {
		t.Errorf("stats = %+v, want 0 faults over %d ops", s, len(payloads))
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed uint64) (Stats, [][]byte) {
		under := &fakeConn{}
		inj := New(rngutil.New(seed), Config{
			Drop: 0.2, Dup: 0.1, Reorder: 0.1, Corrupt: 0.2, Truncate: 0.1,
		})
		c := inj.Conn(under)
		for i := 0; i < 64; i++ {
			mustWrite(t, c, []byte("payload-payload-payload"))
		}
		return inj.Stats(), under.recorded()
	}
	s1, w1 := run(42)
	s2, w2 := run(42)
	if s1 != s2 {
		t.Fatalf("same seed produced different fault counts:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(w1, w2) {
		t.Fatal("same seed produced different byte streams")
	}
	if s1.Faults() == 0 {
		t.Fatal("scenario injected no faults; probabilities too low for the test to mean anything")
	}
	if _, w3 := run(43); reflect.DeepEqual(w1, w3) {
		t.Error("different seeds produced identical byte streams")
	}
}

func TestDropSwallowsWrite(t *testing.T) {
	under := &fakeConn{}
	inj := New(rngutil.New(1), Config{Drop: 1})
	c := inj.Conn(under)
	mustWrite(t, c, []byte("gone"))
	if got := under.recorded(); len(got) != 0 {
		t.Fatalf("dropped write reached the wire: %q", got)
	}
	if s := inj.Stats(); s.Drops != 1 {
		t.Errorf("Drops = %d, want 1", s.Drops)
	}
}

func TestDupSendsTwice(t *testing.T) {
	under := &fakeConn{}
	inj := New(rngutil.New(1), Config{Dup: 1})
	c := inj.Conn(under)
	mustWrite(t, c, []byte("twice"))
	got := under.recorded()
	if len(got) != 2 || !bytes.Equal(got[0], []byte("twice")) || !bytes.Equal(got[1], []byte("twice")) {
		t.Fatalf("dup produced %q, want the payload twice", got)
	}
}

func TestReorderSwapsAdjacentWrites(t *testing.T) {
	under := &fakeConn{}
	inj := New(rngutil.New(1), Config{Reorder: 1})
	c := inj.Conn(under)
	mustWrite(t, c, []byte("first"))
	mustWrite(t, c, []byte("second"))
	got := under.recorded()
	if len(got) != 2 || !bytes.Equal(got[0], []byte("second")) || !bytes.Equal(got[1], []byte("first")) {
		t.Fatalf("reorder produced %q, want second then first", got)
	}
}

// payloads are the writes of TestEveryWrapperFault, by label. Their
// lengths differ, so a damaged payload is attributed by length alone.
var payloads = map[string][]byte{
	"one": []byte("first-payload"),
	"two": []byte("the-second-payload"),
}

// label names a forwarded payload: the write it equals, or "~" and the
// write it is a strict prefix of (truncated) or as long as (corrupted).
func label(p []byte) string {
	names := []string{"one", "two"}
	for _, n := range names {
		if bytes.Equal(p, payloads[n]) {
			return n
		}
	}
	for _, n := range names {
		if bytes.HasPrefix(payloads[n], p) {
			return "~" + n
		}
	}
	for _, n := range names {
		if len(p) == len(payloads[n]) {
			return "~" + n
		}
	}
	return fmt.Sprintf("%q", p)
}

// drawn is the fault class a write drew, read from the Stats around it.
func drawn(before, after Stats) Kind {
	for _, c := range []struct {
		n int
		k Kind
	}{
		{after.Drops - before.Drops, KindDrop},
		{after.Dups - before.Dups, KindDup},
		{after.Reorders - before.Reorders, KindReorder},
		{after.Corrupts - before.Corrupts, KindCorrupt},
		{after.Truncates - before.Truncates, KindTruncate},
		{after.Resets - before.Resets, KindReset},
		{after.Delays - before.Delays, KindDelay},
	} {
		if c.n > 0 {
			return c.k
		}
	}
	return KindNone
}

// TestEveryWrapperFault drives Conn, DatagramConn and PacketConn through
// each fault class and holds all three to the same forwarded payloads. A
// stream reset is the one exception: it closes the Conn and fails every
// later write, where a datagram reset is a drop.
func TestEveryWrapperFault(t *testing.T) {
	peer := fakeAddr("peer")
	wrappers := []struct {
		name   string
		stream bool
		open   func(t *testing.T, inj *Injector) (write func([]byte) error, under *fakeConn)
	}{
		{"Conn", true, func(t *testing.T, inj *Injector) (func([]byte) error, *fakeConn) {
			under := &fakeConn{}
			c := inj.Conn(under)
			return func(b []byte) error { _, err := c.Write(b); return err }, under
		}},
		{"DatagramConn", false, func(t *testing.T, inj *Injector) (func([]byte) error, *fakeConn) {
			under := &fakeConn{}
			c := inj.DatagramConn(under)
			return func(b []byte) error { _, err := c.Write(b); return err }, under
		}},
		{"PacketConn", false, func(t *testing.T, inj *Injector) (func([]byte) error, *fakeConn) {
			under := &fakePacketConn{}
			pc := inj.PacketConn(under)
			return func(b []byte) error {
				_, err := pc.WriteTo(b, peer)
				for i, a := range under.addrs {
					if a != peer {
						t.Errorf("datagram %d went to %v, want %v", i, a, peer)
					}
				}
				return err
			}, &under.fakeConn
		}},
	}
	rows := []struct {
		name  string
		cfg   Config
		kinds []Kind   // the fault each write draws; seeds are searched until one does
		want  []string // forwarded payloads, by label
		// streamWant is Conn's forwarded payloads in a row that resets.
		streamWant []string
	}{
		{"none", Config{}, []Kind{KindNone, KindNone}, []string{"one", "two"}, nil},
		{"drop", Config{Drop: 1, MaxFaults: 1}, []Kind{KindDrop, KindNone}, []string{"two"}, nil},
		{"dup", Config{Dup: 1, MaxFaults: 1}, []Kind{KindDup, KindNone}, []string{"one", "one", "two"}, nil},
		{"reorder", Config{Reorder: 1}, []Kind{KindReorder, KindReorder}, []string{"two", "one"}, nil},
		{"corrupt", Config{Corrupt: 1, MaxFaults: 1}, []Kind{KindCorrupt, KindNone}, []string{"~one", "two"}, nil},
		{"truncate", Config{Truncate: 1, MaxFaults: 1}, []Kind{KindTruncate, KindNone}, []string{"~one", "two"}, nil},
		{"delay", Config{Delay: 1, MaxFaults: 1}, []Kind{KindDelay, KindNone}, []string{"one", "two"}, nil},
		{"reorder held, then drop", Config{Reorder: 0.5, Drop: 0.5}, []Kind{KindReorder, KindDrop}, []string{"one"}, nil},
		{"reset", Config{Reset: 1, MaxFaults: 1}, []Kind{KindReset, KindNone}, []string{"two"}, []string{}},
		{"reorder held, then reset", Config{Reorder: 0.5, Reset: 0.5}, []Kind{KindReorder, KindReset}, []string{"one"}, []string{}},
	}
	for _, row := range rows {
		for _, w := range wrappers {
			t.Run(row.name+"/"+w.name, func(t *testing.T) {
				for seed := uint64(1); seed <= 64; seed++ {
					inj := New(rngutil.New(seed), row.cfg)
					write, under := w.open(t, inj)
					var kinds []Kind
					var errs []error
					for _, n := range []string{"one", "two"} {
						before := inj.Stats()
						errs = append(errs, write(payloads[n]))
						kinds = append(kinds, drawn(before, inj.Stats()))
					}
					if !reflect.DeepEqual(kinds, row.kinds) {
						continue
					}
					want := row.want
					reset := false
					for i, k := range kinds {
						reset = reset || (w.stream && k == KindReset)
						if reset && !errors.Is(errs[i], net.ErrClosed) {
							t.Errorf("write %d after a stream reset: err = %v, want wrapped net.ErrClosed", i, errs[i])
						}
						if !reset && errs[i] != nil {
							t.Errorf("write %d: %v", i, errs[i])
						}
					}
					if reset {
						want = row.streamWant
					}
					if under.isClosed() != reset {
						t.Errorf("underlying socket closed = %v, want %v", under.isClosed(), reset)
					}
					got := []string{}
					for _, p := range under.recorded() {
						got = append(got, label(p))
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d forwarded %q, want %q", seed, got, want)
					}
					return
				}
				t.Fatalf("no seed in 1..64 draws %v", row.kinds)
			})
		}
	}
}

func TestReorderFlushedOnClose(t *testing.T) {
	under := &fakeConn{}
	inj := New(rngutil.New(1), Config{Reorder: 1, MaxFaults: 1})
	c := inj.Conn(under)
	mustWrite(t, c, []byte("held"))
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := under.recorded()
	if len(got) != 1 || !bytes.Equal(got[0], []byte("held")) {
		t.Fatalf("held payload not flushed on close: %q", got)
	}
	if !under.isClosed() {
		t.Error("underlying conn not closed")
	}
}

func TestCorruptFlipsBitsWithoutMutatingCaller(t *testing.T) {
	under := &fakeConn{}
	inj := New(rngutil.New(1), Config{Corrupt: 1})
	c := inj.Conn(under)
	orig := []byte("do-not-touch-me")
	payload := append([]byte(nil), orig...)
	mustWrite(t, c, payload)
	if !bytes.Equal(payload, orig) {
		t.Fatal("caller's buffer was mutated")
	}
	got := under.recorded()
	if len(got) != 1 || len(got[0]) != len(orig) {
		t.Fatalf("corrupt write count/len wrong: %q", got)
	}
	if bytes.Equal(got[0], orig) {
		t.Error("corrupt fault forwarded an unmodified payload")
	}
}

func TestTruncateSendsStrictPrefix(t *testing.T) {
	under := &fakeConn{}
	inj := New(rngutil.New(1), Config{Truncate: 1})
	c := inj.Conn(under)
	payload := []byte("a-long-enough-payload-to-truncate")
	for i := 0; i < 16; i++ {
		mustWrite(t, c, payload)
	}
	for i, got := range under.recorded() {
		if len(got) >= len(payload) {
			t.Fatalf("write %d: truncation kept %d bytes, want a strict prefix of %d", i, len(got), len(payload))
		}
		if !bytes.Equal(got, payload[:len(got)]) {
			t.Fatalf("write %d: %q is not a prefix of the payload", i, got)
		}
	}
}

func TestResetClosesStream(t *testing.T) {
	under := &fakeConn{}
	inj := New(rngutil.New(1), Config{Reset: 1})
	c := inj.Conn(under)
	if _, err := c.Write([]byte("doomed")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("reset write error = %v, want wrapped net.ErrClosed", err)
	}
	if !under.isClosed() {
		t.Error("reset did not close the underlying conn")
	}
	if _, err := c.Write([]byte("after")); !errors.Is(err, net.ErrClosed) {
		t.Errorf("post-reset write error = %v, want wrapped net.ErrClosed", err)
	}
}

func TestResetOnDatagramIsLoss(t *testing.T) {
	under := &fakeConn{}
	inj := New(rngutil.New(1), Config{Reset: 1, MaxFaults: 1})
	c := inj.DatagramConn(under)
	mustWrite(t, c, []byte("lost"))
	if under.isClosed() {
		t.Fatal("datagram reset closed the socket")
	}
	mustWrite(t, c, []byte("clean"))
	got := under.recorded()
	if len(got) != 1 || !bytes.Equal(got[0], []byte("clean")) {
		t.Fatalf("after datagram reset got %q, want only the clean datagram", got)
	}
}

func TestDelayUsesSleepHook(t *testing.T) {
	under := &fakeConn{}
	inj := New(rngutil.New(1), Config{Delay: 1})
	var slept []time.Duration
	inj.SetSleep(func(d time.Duration) { slept = append(slept, d) })
	c := inj.Conn(under)
	mustWrite(t, c, []byte("late"))
	if len(slept) != 1 || slept[0] <= 0 || slept[0] > maxDelay {
		t.Fatalf("sleep calls = %v, want one in (0, %v]", slept, maxDelay)
	}
	got := under.recorded()
	if len(got) != 1 || !bytes.Equal(got[0], []byte("late")) {
		t.Fatalf("delayed payload not forwarded: %q", got)
	}
}

func TestMaxFaultsBudget(t *testing.T) {
	under := &fakeConn{}
	inj := New(rngutil.New(1), Config{Drop: 1, MaxFaults: 3})
	c := inj.Conn(under)
	for i := 0; i < 10; i++ {
		mustWrite(t, c, []byte("x"))
	}
	if got := len(under.recorded()); got != 7 {
		t.Errorf("recorded %d writes, want 7 (3 dropped)", got)
	}
	if s := inj.Stats(); s.Faults() != 3 || s.Drops != 3 {
		t.Errorf("stats = %+v, want exactly 3 drops", s)
	}
}

func TestBudgetSharedAcrossEndpoints(t *testing.T) {
	a, b := &fakeConn{}, &fakeConn{}
	inj := New(rngutil.New(1), Config{Drop: 1, MaxFaults: 1})
	ca, cb := inj.Conn(a), inj.Conn(b)
	mustWrite(t, ca, []byte("one"))
	mustWrite(t, cb, []byte("two"))
	// The single budgeted fault went to whichever endpoint wrote first;
	// the second endpoint's write must flow clean.
	if got := len(a.recorded()) + len(b.recorded()); got != 1 {
		t.Errorf("total forwarded writes = %d, want 1 (one drop across both endpoints)", got)
	}
}

func TestPacketConnFaults(t *testing.T) {
	under := &fakePacketConn{}
	inj := New(rngutil.New(1), Config{Dup: 1, MaxFaults: 1})
	pc := inj.PacketConn(under)
	addr := fakeAddr("peer")
	if _, err := pc.WriteTo([]byte("dgram"), addr); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got := under.recorded()
	if len(got) != 2 || !bytes.Equal(got[0], []byte("dgram")) || !bytes.Equal(got[1], []byte("dgram")) {
		t.Fatalf("packet dup produced %q", got)
	}
	for i, a := range under.addrs {
		if a != addr {
			t.Errorf("write %d went to %v, want %v", i, a, addr)
		}
	}
}

func TestListenerWrapsAcceptedConns(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := New(rngutil.New(1), Config{Drop: 1, MaxFaults: 1})
	ln := inj.Listener(raw)
	defer ln.Close()

	type acceptResult struct {
		conn net.Conn
		err  error
	}
	accepted := make(chan acceptResult, 1)
	go func() {
		c, err := ln.Accept()
		accepted <- acceptResult{c, err}
	}()

	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res := <-accepted
	if res.err != nil {
		t.Fatalf("Accept: %v", res.err)
	}
	defer res.conn.Close()

	// First server write is dropped (budget 1), second flows clean: the
	// client must receive only "world".
	mustWrite(t, res.conn, []byte("hello"))
	mustWrite(t, res.conn, []byte("world"))
	buf := make([]byte, 5)
	if err := cli.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(cli, buf); err != nil {
		t.Fatalf("client read: %v", err)
	}
	if string(buf) != "world" {
		t.Fatalf("client read %q, want %q (first write dropped)", buf, "world")
	}
}

func TestMutator(t *testing.T) {
	pkt := []byte("a-packet-worth-of-bytes")

	clean := NewMutator(rngutil.New(1), Config{})
	out, kind := clean.Mutate(pkt)
	if kind != KindNone || !bytes.Equal(out, pkt) {
		t.Fatalf("zero-config mutate = (%q, %v), want unchanged copy", out, kind)
	}

	drop := NewMutator(rngutil.New(1), Config{Drop: 1})
	if out, kind := drop.Mutate(pkt); out != nil || kind != KindDrop {
		t.Fatalf("drop mutate = (%q, %v), want (nil, drop)", out, kind)
	}

	corrupt := NewMutator(rngutil.New(1), Config{Corrupt: 1})
	out, kind = corrupt.Mutate(pkt)
	if kind != KindCorrupt || len(out) != len(pkt) || bytes.Equal(out, pkt) {
		t.Fatalf("corrupt mutate = (%q, %v), want a modified same-length copy", out, kind)
	}

	trunc := NewMutator(rngutil.New(1), Config{Truncate: 1})
	out, kind = trunc.Mutate(pkt)
	if kind != KindTruncate || len(out) >= len(pkt) || !bytes.Equal(out, pkt[:len(out)]) {
		t.Fatalf("truncate mutate = (%q, %v), want a strict prefix", out, kind)
	}
	// A truncation that keeps nothing and an empty packet both come back
	// empty, never nil.
	if out, kind := trunc.Mutate([]byte("x")); out == nil || len(out) != 0 || kind != KindTruncate {
		t.Fatalf("one-byte truncate mutate = (%#v, %v), want an empty non-nil slice", out, kind)
	}
	if out, kind := clean.Mutate(nil); out == nil || len(out) != 0 || kind != KindNone {
		t.Fatalf("empty mutate = (%#v, %v), want an empty non-nil slice", out, kind)
	}

	// Same seed, same mutation sequence.
	m1 := NewMutator(rngutil.New(9), Config{Corrupt: 0.5, Truncate: 0.3, Drop: 0.2})
	m2 := NewMutator(rngutil.New(9), Config{Corrupt: 0.5, Truncate: 0.3, Drop: 0.2})
	for i := 0; i < 32; i++ {
		o1, k1 := m1.Mutate(pkt)
		o2, k2 := m2.Mutate(pkt)
		if k1 != k2 || !bytes.Equal(o1, o2) {
			t.Fatalf("mutation %d diverged between identically seeded mutators", i)
		}
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindNone: "none", KindDrop: "drop", KindDup: "dup", KindReorder: "reorder",
		KindCorrupt: "corrupt", KindTruncate: "truncate", KindReset: "reset",
		KindDelay: "delay", Kind(99): "kind-99",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), k.String(), s)
		}
	}
}
