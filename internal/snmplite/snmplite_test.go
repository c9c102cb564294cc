package snmplite

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/telemetry"
	"corropt/internal/topology"
)

func TestCodecRoundTrip(t *testing.T) {
	queries := []Query{{Link: 1, Counter: CounterErrorsUp}, {Link: 7, Counter: CounterRxPowerUpper}}
	pkt, err := EncodeRequest(42, queries)
	if err != nil {
		t.Fatal(err)
	}
	id, got, err := DecodeRequest(pkt)
	if err != nil || id != 42 || len(got) != 2 || got[0] != queries[0] || got[1] != queries[1] {
		t.Fatalf("request round trip: id=%d got=%v err=%v", id, got, err)
	}

	values := []Value{{Query: queries[0], Value: 123}, {Query: queries[1], Value: EncodePower(-11.53)}}
	rp, err := EncodeResponse(42, values)
	if err != nil {
		t.Fatal(err)
	}
	id, vals, err := DecodeResponse(rp)
	if err != nil || id != 42 || len(vals) != 2 || vals[0].Value != 123 {
		t.Fatalf("response round trip: %v %v %v", id, vals, err)
	}
	if p := DecodePower(vals[1].Value); p != -11.53 {
		t.Fatalf("power round trip = %v", p)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeRequest(nil); err != ErrTruncated {
		t.Fatalf("nil request: %v", err)
	}
	if _, _, err := DecodeRequest(bytes.Repeat([]byte{'X'}, 20)); err != ErrBadMagic {
		t.Fatalf("bad magic: %v", err)
	}
	pkt, _ := EncodeRequest(1, []Query{{Link: 1}})
	pkt[2] = 99
	if _, _, err := DecodeRequest(pkt); err != ErrBadVersion {
		t.Fatalf("bad version: %v", err)
	}
	// Truncated body.
	pkt, _ = EncodeRequest(1, []Query{{Link: 1}, {Link: 2}})
	if _, _, err := DecodeRequest(pkt[:12]); err != ErrTruncated {
		t.Fatalf("truncated body: %v", err)
	}
	// Too many entries.
	many := make([]Query, MaxEntries+1)
	if _, err := EncodeRequest(1, many); err != ErrTooMany {
		t.Fatalf("oversized request: %v", err)
	}
}

func TestErrorReply(t *testing.T) {
	pkt := EncodeError(9, 2, "boom")
	id, vals, err := DecodeResponse(pkt)
	if id != 9 || vals != nil {
		t.Fatalf("id=%d vals=%v", id, vals)
	}
	var re *RemoteError
	if !asRemoteError(err, &re) || re.Code != 2 || re.Msg != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func asRemoteError(err error, target **RemoteError) bool {
	re, ok := err.(*RemoteError)
	if ok {
		*target = re
	}
	return ok
}

func TestPowerEncodingProperty(t *testing.T) {
	f := func(centi int16) bool {
		// Realistic transceiver powers are within ±327 dBm of zero by a
		// huge margin; centi-dB resolution must round-trip exactly.
		dbm := float64(centi) / 100
		return DecodePower(EncodePower(dbm)) == dbm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodecFuzzNoPanic(t *testing.T) {
	f := func(pkt []byte) bool {
		_, _, _ = DecodeRequest(pkt)
		_, _, _ = DecodeResponse(pkt)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClientServerEndToEnd(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2, SpineUplinksPerAgg: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tech := optics.Technology{Name: "t", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
	st := faults.NewState(topo, tech)
	st.Apply(&faults.Fault{
		ID: 1, Cause: faults.BadTransceiver,
		Effects: []faults.LinkEffect{{Link: 0, DirectRate: [2]float64{0.01, 0}}},
	})
	col := telemetry.NewCollector(st, nil, nil, telemetry.Config{})
	col.Poll(0)
	col.Poll(15 * time.Minute)

	srv, err := NewServer("127.0.0.1:0", CollectorProvider(col, topo.NumLinks()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := DialConfig(srv.Addr().String(), ClientConfig{Timeout: time.Second, Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	v, err := cli.Get([]Query{
		{Link: 0, Counter: CounterPacketsUp},
		{Link: 0, Counter: CounterErrorsUp},
		{Link: 0, Counter: CounterRxPowerUpper},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets, errs := v[0].Value, v[1].Value
	if packets == 0 {
		t.Fatal("no packets over the wire")
	}
	if errs == 0 {
		t.Fatal("corrupting link shows no errors")
	}
	frac := float64(errs) / float64(packets)
	if frac < 0.005 || frac > 0.02 {
		t.Fatalf("error fraction = %v, want ≈0.01", frac)
	}
	// Power readings round-trip through centi-dBm.
	if rx := DecodePower(v[2].Value); rx != -3 {
		t.Fatalf("upper Rx = %v, want -3", rx)
	}

	// Unknown links produce a remote error.
	if _, err := cli.Get([]Query{{Link: 9999, Counter: CounterPacketsUp}}); err == nil {
		t.Fatal("unknown link accepted")
	} else if _, ok := err.(*RemoteError); !ok {
		t.Fatalf("want RemoteError, got %v", err)
	}
}

func TestClientSplitsLargeRequests(t *testing.T) {
	// A provider that answers every query with its link id.
	srv, err := NewServer("127.0.0.1:0", ProviderFunc(func(link uint32, _ CounterID) (uint64, error) {
		return uint64(link), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialConfig(srv.Addr().String(), ClientConfig{Timeout: time.Second, Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	queries := make([]Query, 3*MaxEntries+7)
	for i := range queries {
		queries[i] = Query{Link: uint32(i), Counter: CounterPacketsUp}
	}
	vals, err := cli.Get(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(queries) {
		t.Fatalf("got %d values, want %d", len(vals), len(queries))
	}
	for i, v := range vals {
		if v.Value != uint64(i) {
			t.Fatalf("value %d = %d", i, v.Value)
		}
	}
}

func TestClientTimeout(t *testing.T) {
	// A server that never answers: the client must give up after its
	// retries rather than hang.
	srv, err := NewServer("127.0.0.1:0", ProviderFunc(func(uint32, CounterID) (uint64, error) {
		return 0, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	srv.Close() // nothing listening anymore

	cli, err := DialConfig(addr, ClientConfig{Timeout: 50 * time.Millisecond, Attempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	_, err = cli.Get([]Query{{Link: 0, Counter: CounterPacketsUp}})
	if err == nil {
		t.Fatal("expected a timeout")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("client hung for %v", elapsed)
	}
}

func TestCounterIDString(t *testing.T) {
	for c := CounterID(0); c < NumCounters; c++ {
		if s := c.String(); s == "" || s == fmt.Sprintf("counter-%d", uint16(c)) {
			t.Fatalf("counter %d unnamed", c)
		}
	}
}

// TestCollectorProviderBeforeFirstPoll: the packet, error and drop counters
// are served from the cumulative store alone; only a power level needs an
// observation to exist.
func TestCollectorProviderBeforeFirstPoll(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2, SpineUplinksPerAgg: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tech := optics.Technology{Name: "t", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
	col := telemetry.NewCollector(faults.NewState(topo, tech), nil, nil, telemetry.Config{})
	p := CollectorProvider(col, topo.NumLinks())

	for c := CounterPacketsUp; c <= CounterDropsDown; c++ {
		if v, err := answerOne(p, 0, c); err != nil || v != 0 {
			t.Errorf("%v before the first poll = %d, %v; want 0", c, v, err)
		}
	}
	for c := CounterTxPowerLower; c < NumCounters; c++ {
		if _, err := answerOne(p, 0, c); !errors.Is(err, errNoObservation) {
			t.Errorf("%v before the first poll: %v; want no observation yet", c, err)
		}
	}
	if _, err := answerOne(p, 0, NumCounters); !errors.Is(err, errUnknownCounter) {
		t.Errorf("counter %d: %v; want unknown counter", NumCounters, err)
	}

	col.Poll(0)
	want := []float64{0, 0, -3, -3}
	for c := CounterTxPowerLower; c < NumCounters; c++ {
		if v, err := answerOne(p, 0, c); err != nil || DecodePower(v) != want[c-CounterTxPowerLower] {
			t.Errorf("%v = %v, %v; want %v dBm", c, DecodePower(v), err, want[c-CounterTxPowerLower])
		}
	}
}

// answerOne asks p for one counter.
func answerOne(p Provider, link uint32, c CounterID) (uint64, error) {
	v, err := p.Answer(nil, []Query{{Link: link, Counter: c}})
	if err != nil {
		return 0, err
	}
	return v[0].Value, nil
}

// pollCollector returns a collector over a small Clos, polled twice, with
// link 1 corrupting, link 2 contaminated and link 3 disabled: walked,
// quiet and off links side by side.
func pollCollector(t *testing.T) (*topology.Topology, *telemetry.Collector) {
	t.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2, SpineUplinksPerAgg: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tech := optics.Technology{Name: "t", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
	st := faults.NewState(topo, tech)
	st.Apply(&faults.Fault{ID: 1, Cause: faults.BadTransceiver,
		Effects: []faults.LinkEffect{{Link: 1, DirectRate: [2]float64{0.01, 0.001}}}})
	st.Apply(&faults.Fault{ID: 2, Cause: faults.ConnectorContamination,
		Effects: []faults.LinkEffect{{Link: 2, ExtraLossFrom: [2]optics.DB{optics.LowerSide: 11}}}})
	down := topology.NewLinkSet(topo.NumLinks())
	down.Add(3)
	col := telemetry.NewCollector(st, nil, down.Func(), telemetry.Config{Seed: 4})
	col.Poll(0)
	col.Poll(telemetry.DefaultInterval)
	return topo, col
}

// TestCollectorProviderAnswersDatagram: one datagram naming every counter
// of several links, some of them twice and not side by side, reads what
// the collector's own per-link reads say.
func TestCollectorProviderAnswersDatagram(t *testing.T) {
	topo, col := pollCollector(t)
	var queries []Query
	for _, l := range []uint32{0, 1, 2, 3, 1, 0} {
		for c := CounterID(0); c < NumCounters; c++ {
			queries = append(queries, Query{Link: l, Counter: c})
		}
	}
	values, err := CollectorProvider(col, topo.NumLinks()).Answer(nil, queries)
	if err != nil || len(values) != len(queries) {
		t.Fatalf("answered %d of %d queries: %v", len(values), len(queries), err)
	}
	for i, v := range values {
		l := topology.LinkID(v.Link)
		ctr := col.Counters(l)
		obs, _ := col.Latest(l)
		want := [NumCounters]uint64{
			ctr.Packets[0], ctr.Packets[1], ctr.Errors[0], ctr.Errors[1], ctr.Drops[0], ctr.Drops[1],
			EncodePower(float64(obs.TxPower[0])), EncodePower(float64(obs.TxPower[1])),
			EncodePower(float64(obs.RxPower[0])), EncodePower(float64(obs.RxPower[1])),
		}
		if v.Query != queries[i] || v.Value != want[v.Counter] {
			t.Errorf("value %d = %+v, want %+v = %d", i, v, queries[i], want[v.Counter])
		}
	}
	if ctr := col.Counters(1); ctr.Errors[0] == 0 || ctr.Packets[0] == 0 {
		t.Fatalf("corrupting link counts %+v", ctr)
	}
}

// TestCollectorProviderBoundsByCollector: a numLinks beyond the collector's
// own link count does not let a query index past the collector; the link
// in the gap gets an error reply and the server keeps answering.
func TestCollectorProviderBoundsByCollector(t *testing.T) {
	topo, col := pollCollector(t)
	n := topo.NumLinks()
	srv, err := NewServer("127.0.0.1:0", CollectorProvider(col, n+10))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialConfig(srv.Addr().String(), ClientConfig{Timeout: time.Second, Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var remote *RemoteError
	if _, err := cli.Get([]Query{{Link: uint32(n + 3), Counter: CounterPacketsUp}}); !errors.As(err, &remote) ||
		remote.Msg != fmt.Sprintf("link %d counter packets-up: unknown link", n+3) {
		t.Fatalf("link %d of a %d-link collector: %v; want an unknown link error reply", n+3, n, err)
	}
	if v, err := cli.Get([]Query{{Link: uint32(n - 1), Counter: CounterPacketsUp}}); err != nil || v[0].Value != col.Counters(topology.LinkID(n - 1)).Packets[0] {
		t.Fatalf("last link after the refusal: %v, %v", v, err)
	}
}

// TestServerHandleCollectorDatagramDoesNotAllocate: a warm server answers
// the detector's 88-entry datagram (22 links × 4 counters) from a
// collector without allocating.
func TestServerHandleCollectorDatagramDoesNotAllocate(t *testing.T) {
	topo, col := pollCollector(t)
	s := &Server{provider: CollectorProvider(col, topo.NumLinks())}
	queries := make([]Query, 0, 88)
	for i := 0; len(queries) < 88; i++ {
		for _, c := range []CounterID{CounterPacketsUp, CounterPacketsDown, CounterErrorsUp, CounterErrorsDown} {
			queries = append(queries, Query{Link: uint32(i % topo.NumLinks()), Counter: c})
		}
	}
	pkt, err := EncodeRequest(9, queries)
	if err != nil {
		t.Fatal(err)
	}
	if _, values, err := DecodeResponse(s.handle(pkt)); err != nil || len(values) != 88 {
		t.Fatalf("reply of %d values, %v", len(values), err)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.handle(pkt) }); allocs != 0 {
		t.Errorf("a warm handle of a collector datagram allocates %v times, want 0", allocs)
	}
}

// TestServerHandleReusesScratch: a short request after a long one is
// answered with its own entries only, and once warm the server builds a
// reply without allocating.
func TestServerHandleReusesScratch(t *testing.T) {
	s := &Server{provider: ProviderFunc(func(link uint32, c CounterID) (uint64, error) {
		return uint64(link)<<8 | uint64(c), nil
	})}
	request := func(id uint32, n int) []byte {
		queries := make([]Query, n)
		for i := range queries {
			queries[i] = Query{Link: id + uint32(i), Counter: CounterID(i % int(NumCounters))}
		}
		pkt, err := EncodeRequest(id, queries)
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	for _, n := range []int{88, 4, 0, MaxEntries} {
		id := uint32(1000 * (n + 1))
		gotID, values, err := DecodeResponse(s.handle(request(id, n)))
		if err != nil || gotID != id || len(values) != n {
			t.Fatalf("%d-entry request: reply id %d with %d values, %v", n, gotID, len(values), err)
		}
		for i, v := range values {
			q := Query{Link: id + uint32(i), Counter: CounterID(i % int(NumCounters))}
			if v.Query != q || v.Value != uint64(q.Link)<<8|uint64(q.Counter) {
				t.Fatalf("%d-entry request: value %d = %+v", n, i, v)
			}
		}
	}
	pkt := request(7, 88)
	if allocs := testing.AllocsPerRun(100, func() { s.handle(pkt) }); allocs != 0 {
		t.Errorf("a warm handle allocates %v times per datagram, want 0", allocs)
	}
}
