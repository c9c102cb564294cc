package detector

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"corropt/internal/faults"
	"corropt/internal/netchaos"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/snmplite"
	"corropt/internal/telemetry"
	"corropt/internal/topology"
)

// snmpRig is ground truth → telemetry → snmplite server on loopback UDP,
// with hooks on both sides of the wire.
type snmpRig struct {
	topo  *topology.Topology
	state *faults.State
	col   *telemetry.Collector
	cli   *snmplite.Client
	sent  atomic.Int64 // request datagrams the client wrote

	now    time.Duration
	faults faults.ID
}

// rigConfig are the hooks; the zero value is an honest loopback path.
type rigConfig struct {
	provider func(snmplite.Provider) snmplite.Provider       // wraps the collector's provider
	server   func(net.PacketConn) net.PacketConn             // wraps the server's socket
	dial     func(network, address string) (net.Conn, error) // the client's transport; default net.Dial
}

// countingConn counts the datagrams written through it.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(b)
}

// newSNMPRig builds a 2,560-link Clos behind an snmplite server.
func newSNMPRig(tb testing.TB, cfg rigConfig) *snmpRig {
	tb.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 16, ToRsPerPod: 16, AggsPerPod: 8, Spines: 32, SpineUplinksPerAgg: 4,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tech := optics.Technology{Name: "t", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
	r := &snmpRig{topo: topo, state: faults.NewState(topo, tech)}
	r.col = telemetry.NewCollector(r.state, nil, nil, telemetry.Config{Seed: 3})

	provider := snmplite.CollectorProvider(r.col, topo.NumLinks())
	if cfg.provider != nil {
		provider = cfg.provider(provider)
	}
	var pc net.PacketConn
	pc, err = net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	if cfg.server != nil {
		pc = cfg.server(pc)
	}
	srv, err := snmplite.NewServerConn(pc, provider, nil)
	if err != nil {
		_ = pc.Close() // constructor failed; nothing else owns the socket
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Close() })

	dial := cfg.dial
	if dial == nil {
		dial = net.Dial
	}
	r.cli, err = snmplite.DialConfig(srv.Addr().String(), snmplite.ClientConfig{
		Timeout:  200 * time.Millisecond,
		Attempts: 16,
		Sleep:    func(time.Duration) {},
		Dial: func(network, addr string) (net.Conn, error) {
			c, err := dial(network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: c, n: &r.sent}, nil
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = r.cli.Close() })
	r.tick()
	return r
}

// tick advances telemetry by one polling interval.
func (r *snmpRig) tick() {
	r.col.Poll(r.now)
	r.now += telemetry.DefaultInterval
}

// corrupt makes l lose 1% of its upward packets until the returned fault is
// cleared.
func (r *snmpRig) corrupt(l topology.LinkID) faults.ID {
	r.faults++
	r.state.Apply(&faults.Fault{ID: r.faults, Cause: faults.BadTransceiver,
		Effects: []faults.LinkEffect{{Link: l, DirectRate: [2]float64{0.01, 0}}}})
	return r.faults
}

// firstLinks returns links 0..n-1.
func firstLinks(n int) []topology.LinkID {
	links := make([]topology.LinkID, n)
	for i := range links {
		links[i] = topology.LinkID(i)
	}
	return links
}

// TestSNMPSweepDatagrams pins the batch path's cost and its answer: a sweep
// of N links is ⌈N/22⌉ request datagrams, whether ReadBatch is called
// directly or through Poll, and reads what the collector holds.
func TestSNMPSweepDatagrams(t *testing.T) {
	r := newSNMPRig(t, rigConfig{})
	for _, l := range []topology.LinkID{0, 21, 22, 43, 2047} {
		r.corrupt(l)
	}
	r.tick()
	src := SNMPSourceClient(r.cli).(BatchSource)
	truth := CollectorSource(r.col)

	for _, n := range []int{0, 1, 21, 22, 23, 44, 2048} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			links := firstLinks(n)
			want := int64((n + linksPerGet - 1) / linksPerGet)

			got := make([]Reading, n)
			before := r.sent.Load()
			if err := src.ReadBatch(links, got); err != nil {
				t.Fatal(err)
			}
			if sent := r.sent.Load() - before; sent != want {
				t.Errorf("ReadBatch of %d links sent %d datagrams, want %d", n, sent, want)
			}
			for i, l := range links {
				exp, _ := truth.Read(l)
				if got[i] != exp {
					t.Fatalf("link %d: read %+v over SNMP, collector holds %+v", l, got[i], exp)
				}
			}

			d, err := New(src, links, Config{})
			if err != nil {
				t.Fatal(err)
			}
			before = r.sent.Load()
			if _, err := d.Poll(); err != nil {
				t.Fatal(err)
			}
			if sent := r.sent.Load() - before; sent != want {
				t.Errorf("Poll over %d links sent %d datagrams, want %d", n, sent, want)
			}
		})
	}
	if linksPerGet != 22 {
		t.Errorf("linksPerGet = %d, want 22", linksPerGet)
	}
}

// TestBatchAndPerLinkSweepsAgree runs a detector on the batched source next
// to one on the same source's Read alone — the path a Source without
// ReadBatch takes — through faults striking and being repaired: they must
// emit the same events, sweep for sweep.
func TestBatchAndPerLinkSweepsAgree(t *testing.T) {
	r := newSNMPRig(t, rigConfig{})
	src := SNMPSourceClient(r.cli)
	links := firstLinks(100)
	batched, err := New(src, links, Config{})
	if err != nil {
		t.Fatal(err)
	}
	perLink, err := New(SourceFunc(src.Read), links, Config{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rngutil.New(5)
	var live []faults.ID
	raised, cleared := 0, 0
	for sweep := 0; sweep < 24; sweep++ {
		if sweep%3 == 1 {
			live = append(live, r.corrupt(links[rng.Intn(len(links))]), r.corrupt(links[rng.Intn(len(links))]))
		}
		if sweep%4 == 3 && len(live) > 0 {
			r.state.Clear(live[0])
			live = live[1:]
		}
		r.tick()
		before := r.sent.Load()
		a, err := batched.Poll()
		if err != nil {
			t.Fatalf("sweep %d, batched: %v", sweep, err)
		}
		mid := r.sent.Load()
		b, err := perLink.Poll()
		if err != nil {
			t.Fatalf("sweep %d, per link: %v", sweep, err)
		}
		if mid-before != 5 || r.sent.Load()-mid != 100 {
			t.Fatalf("sweep %d: %d and %d datagrams, want 5 batched and 100 per link", sweep, mid-before, r.sent.Load()-mid)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sweep %d: batched sweep raised %v, per-link sweep %v", sweep, a, b)
		}
		for _, ev := range a {
			if ev.Corrupting {
				raised++
			} else {
				cleared++
			}
		}
	}
	if raised < 5 || cleared < 2 {
		t.Fatalf("only %d raised and %d cleared events: the comparison is vacuous", raised, cleared)
	}
}

// refusingProvider answers through inner unless the datagram names a link
// refuse picks, which fails it the way an unknown link does.
type refusingProvider struct {
	inner  snmplite.Provider
	refuse func(link uint32) bool
}

func (p refusingProvider) Answer(dst []snmplite.Value, queries []snmplite.Query) ([]snmplite.Value, error) {
	for _, q := range queries {
		if p.refuse(q.Link) {
			return dst, &snmplite.QueryError{Query: q, Err: errors.New("unknown link")}
		}
	}
	return p.inner.Answer(dst, queries)
}

// TestBatchRefusedLinkChangesNothing: the server refuses one link in the
// middle of a datagram. The sweep fails naming that link, the links before
// it keep their baselines, and the next sweep raises their events once.
func TestBatchRefusedLinkChangesNothing(t *testing.T) {
	const refused = 30
	var refusing atomic.Bool
	r := newSNMPRig(t, rigConfig{provider: func(inner snmplite.Provider) snmplite.Provider {
		return refusingProvider{inner: inner, refuse: func(link uint32) bool { return link == refused && refusing.Load() }}
	}})
	d, err := New(SNMPSourceClient(r.cli), firstLinks(44), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Poll(); err != nil {
		t.Fatal(err)
	}

	r.corrupt(3)
	r.corrupt(40)
	r.tick()
	refusing.Store(true)
	ev, err := d.Poll()
	var remote *snmplite.RemoteError
	if ev != nil || !errors.As(err, &remote) || !strings.Contains(err.Error(), "link 30 ") {
		t.Fatalf("refused sweep returned %v, %v; want no events and a RemoteError naming link 30", ev, err)
	}
	if d.Flagged(3) || d.Flagged(40) {
		t.Fatal("a failed sweep flagged links")
	}

	refusing.Store(false)
	if ev, err = d.Poll(); err != nil || len(ev) != 2 || ev[0].Link != 3 || ev[1].Link != 40 || !ev[0].Corrupting || !ev[1].Corrupting {
		t.Fatalf("retry sweep returned %v, %v; want links 3 and 40 raised", ev, err)
	}
	r.tick()
	if ev, err = d.Poll(); err != nil || len(ev) != 0 {
		t.Fatalf("sweep after the retry returned %v, %v; want nothing new", ev, err)
	}

	// A link the topology does not have fails the same way, every time.
	links := firstLinks(44)
	links[30] = topology.LinkID(r.topo.NumLinks() + 5)
	d, err = New(SNMPSourceClient(r.cli), links, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = d.Poll(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("link %d ", links[30])) {
		t.Fatalf("sweep over an unknown link: %v; want an error naming link %d", err, links[30])
	}
}

// rewritingConn is a server socket on a path that rewrites well-formed
// replies and seals them again: request id and checksum both hold, so only
// the source's own check of the reply's shape can catch it.
type rewritingConn struct {
	net.PacketConn
	rewrite func([]snmplite.Value) []snmplite.Value
}

func (c rewritingConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	if id, values, err := snmplite.DecodeResponse(b); err == nil {
		if b, err = snmplite.EncodeResponse(id, c.rewrite(values)); err != nil {
			return 0, err
		}
	}
	return c.PacketConn.WriteTo(b, addr)
}

// TestSNMPSourceChecksReplyShape: a reply that does not echo the asked
// (link, counter) pairs in order is an error naming the link, not a reading
// of zeros that worstRate would discard as a counter reset.
func TestSNMPSourceChecksReplyShape(t *testing.T) {
	// Each rewrite damages what the reply says about link 7, the second of
	// the links asked for.
	rewrites := map[string]func([]snmplite.Value) []snmplite.Value{
		"another link's value": func(v []snmplite.Value) []snmplite.Value { v[len(v)-2].Link = 9; return v },
		"a repeated counter":   func(v []snmplite.Value) []snmplite.Value { v[len(v)-1].Counter = v[len(v)-2].Counter; return v },
		"a value missing":      func(v []snmplite.Value) []snmplite.Value { return v[:len(v)-1] },
		"a value too many":     func(v []snmplite.Value) []snmplite.Value { return append(v, v[0]) },
	}
	for name, rewrite := range rewrites {
		t.Run(name, func(t *testing.T) {
			var on atomic.Bool
			r := newSNMPRig(t, rigConfig{server: func(pc net.PacketConn) net.PacketConn {
				return rewritingConn{PacketConn: pc, rewrite: func(v []snmplite.Value) []snmplite.Value {
					if !on.Load() || v[len(v)-1].Link != 7 {
						return v
					}
					return rewrite(v)
				}}
			}})
			src := SNMPSourceClient(r.cli)
			d, err := New(src, []topology.LinkID{5, 7}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Poll(); err != nil {
				t.Fatal(err)
			}

			r.corrupt(5)
			r.tick()
			on.Store(true)
			if _, err := src.Read(7); err == nil || !strings.Contains(err.Error(), "link 7") {
				t.Fatalf("Read took the rewritten reply: %v", err)
			}
			if ev, err := d.Poll(); ev != nil || err == nil || !strings.Contains(err.Error(), "link 7") {
				t.Fatalf("Poll took the rewritten reply: %v, %v", ev, err)
			}
			on.Store(false)
			if ev, err := d.Poll(); err != nil || len(ev) != 1 || ev[0].Link != 5 || !ev[0].Corrupting {
				t.Fatalf("sweep over the honest path returned %v, %v; want link 5 raised", ev, err)
			}
		})
	}
}

// TestBatchSweepThroughChaos sends 22-link datagrams through netchaos on
// both directions: whatever is dropped, duplicated, reordered, truncated or
// bit-flipped is retransmitted, and the sweep reads what a clean one does.
func TestBatchSweepThroughChaos(t *testing.T) {
	links := firstLinks(220)
	sweep := func(t *testing.T, cfg rigConfig) []Reading {
		r := newSNMPRig(t, cfg)
		r.corrupt(30)
		r.tick()
		out := make([]Reading, len(links))
		if err := SNMPSourceClient(r.cli).(BatchSource).ReadBatch(links, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	clean := sweep(t, rigConfig{})

	profiles := map[string]netchaos.Config{
		"drop":     {Drop: 0.3, MaxFaults: 4},
		"dup":      {Dup: 0.3, MaxFaults: 4},
		"reorder":  {Reorder: 0.3, MaxFaults: 4},
		"corrupt":  {Corrupt: 0.3, MaxFaults: 4},
		"truncate": {Truncate: 0.3, MaxFaults: 4},
	}
	for name, cfg := range profiles {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // every lost datagram is a 200 ms wait
			root := rngutil.New(23).Split("batch-chaos-" + name)
			injClient := netchaos.New(root.Split("client"), cfg)
			injServer := netchaos.New(root.Split("server"), cfg)
			got := sweep(t, rigConfig{
				server: injServer.PacketConn,
				dial:   injClient.DatagramDialer(),
			})
			if faults := injClient.Stats().Faults() + injServer.Stats().Faults(); faults == 0 {
				t.Fatal("no fault was injected: the comparison is vacuous")
			}
			if !reflect.DeepEqual(got, clean) {
				t.Fatal("the sweep through chaos read different counters than the clean one")
			}
		})
	}
}

// BenchmarkSweepSNMP is one detector sweep of 2,048 links over a loopback
// snmplite server: the layer's own number next to fig13_journey's.
func BenchmarkSweepSNMP(b *testing.B) {
	r := newSNMPRig(b, rigConfig{})
	links := firstLinks(2048)
	d, err := New(SNMPSourceClient(r.cli), links, Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.Poll(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sent := r.sent.Load()
	for i := 0; i < b.N; i++ {
		if _, err := d.Poll(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(links))/b.Elapsed().Seconds(), "links/s")
	b.ReportMetric(float64(r.sent.Load()-sent)/float64(b.N), "datagrams/sweep")
}
