package ctlplane

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"corropt/internal/core"
	"corropt/internal/rngutil"
	"corropt/internal/simclock"
	"corropt/internal/topology"
)

func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.NewNetwork(topo, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(net, core.EngineConfig{})
}

// serveClock starts a controller for engine on a loopback port, reading
// liveness and deadlines from clock.
func serveClock(t *testing.T, engine *core.Engine, clock simclock.WallClock) *Controller {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := ServeListener(ln, engine, clock)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	in := &Envelope{Type: TypeReport, Report: &Report{Link: 3, Rate: 0.01}}
	if err := WriteMsg(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != TypeReport || out.Report == nil || out.Report.Link != 3 || out.Report.Rate != 0.01 {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestFramingRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMsg(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestFramingShortRead(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, 'x'})
	if _, err := ReadMsg(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestControllerWorkflow(t *testing.T) {
	// The Figure 13 loop over a real TCP connection: report → decision →
	// activate → optimizer result.
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

	topo := engine.Network().Topology()
	tor := topo.ToRs()[0]
	l1, l2 := topo.Uplinks(tor)[0], topo.Uplinks(tor)[1]

	d, err := cli.Report(l1, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Disabled {
		t.Fatalf("first report not disabled: %+v", d)
	}

	// Second uplink cannot be disabled at c=0.5.
	d, err = cli.Report(l2, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Disabled {
		t.Fatal("disabling both uplinks should be refused")
	}
	if d.Reason == "" {
		t.Fatal("refusal without reason")
	}

	st, err := cli.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Disabled != 1 || st.ActiveCorrupting != 1 {
		t.Fatalf("status: %+v", st)
	}

	// Repairing l1 should let the optimizer disable l2.
	newly, err := cli.Activate(l1)
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 1 || newly[0] != l2 {
		t.Fatalf("activation disabled %v, want [%d]", newly, l2)
	}

	st, err = cli.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Disabled != 1 || st.ActiveCorrupting != 0 {
		t.Fatalf("status after activation: %+v", st)
	}
}

func TestControllerRejectsUnknownLink(t *testing.T) {
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

	if _, err := cli.Report(99999, 1e-3); err == nil {
		t.Fatal("unknown link accepted")
	}
	// The connection stays usable after an error reply.
	if _, err := cli.Status(); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

func TestControllerConcurrentClients(t *testing.T) {
	engine := testEngine(t)
	ctl, err := NewController("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	topo := engine.Network().Topology()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, err := DialConfig(ctl.Addr().String(), ClientConfig{Timeout: 2 * time.Second})
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			for i := 0; i < 20; i++ {
				l := topology.LinkID((w*20 + i) % topo.NumLinks())
				if _, err := cli.Report(l, 1e-7); err != nil {
					errs <- err
					return
				}
				if _, err := cli.Status(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestControllerCloseUnblocksClients(t *testing.T) {
	engine := testEngine(t)
	ctl, err := NewController("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialConfig(ctl.Addr().String(), ClientConfig{Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Status(); err == nil {
		t.Fatal("call succeeded against a closed controller")
	}
	// Double close is a no-op.
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerMatchesEngine is the wire == engine check: a seeded mix of
// Report/Activate/Status requests over loopback TCP, with every field of
// every reply compared against an in-process core.Engine fed the same
// operations. The scenario goldens hold engine == simulator; this holds the
// socket path to the same engine, under the default penalty and a
// non-linear one.
func TestControllerMatchesEngine(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 4, ToRsPerPod: 6, AggsPerPod: 3, Spines: 9, SpineUplinksPerAgg: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cfg     core.EngineConfig
		penalty core.PenaltyFunc // what Status must report under cfg
	}{
		{"default", core.EngineConfig{}, core.LinearPenalty},
		{"tcp-penalty", core.EngineConfig{Penalty: core.TCPThroughputPenalty}, core.TCPThroughputPenalty},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *core.Engine {
				net, err := core.NewNetwork(topo, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				return core.NewEngine(net, tc.cfg)
			}
			ctl, err := NewController("127.0.0.1:0", build())
			if err != nil {
				t.Fatal(err)
			}
			defer ctl.Close()
			cli, err := DialConfig(ctl.Addr().String(), ClientConfig{Timeout: 5 * time.Second, AgentID: "tor-agent"})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			mirror := build()
			net := mirror.Network()
			rng := rngutil.New(11).Split("wire-vs-engine")
			reasons := map[string]int{}
			for i := 0; i < 3000; i++ {
				l := topology.LinkID(rng.Intn(topo.NumLinks()))
				switch p := rng.Float64(); {
				case p < 0.6:
					rate := math.Pow(10, rng.Range(-7, -2))
					got, err := cli.Report(l, rate)
					if err != nil {
						t.Fatalf("op %d: report: %v", i, err)
					}
					d := mirror.ReportCorruption(l, rate)
					want := Decision{Link: d.Link, Disabled: d.Disabled, Reason: d.Reason()}
					if *got != want {
						t.Fatalf("op %d: report link %d rate %g: wire %+v, engine %+v", i, l, rate, *got, want)
					}
					if got.Reason == fmt.Sprintf("rate %.3g below detection threshold %.3g", rate, core.DefaultDetectionThreshold) {
						reasons["below"]++
					} else {
						reasons[got.Reason]++
					}
				case p < 0.8:
					got, err := cli.Activate(l)
					if err != nil {
						t.Fatalf("op %d: activate: %v", i, err)
					}
					if want := mirror.LinkRepaired(l); !slices.Equal(got, want) {
						t.Fatalf("op %d: activate link %d: wire disabled %v, engine %v", i, l, got, want)
					}
				default:
					got, err := cli.Status()
					if err != nil {
						t.Fatalf("op %d: status: %v", i, err)
					}
					want := StatusResult{
						Links:            topo.NumLinks(),
						Disabled:         net.NumDisabled(),
						ActiveCorrupting: net.NumActiveCorrupting(mirror.Threshold()),
						WorstToRFraction: net.WorstToRFraction(),
						TotalPenalty:     net.TotalPenalty(tc.penalty),
						Agents:           1,
					}
					if *got != want {
						t.Fatalf("op %d: status: wire %+v, engine %+v", i, *got, want)
					}
				}
			}
			// The wire carries exactly the engine's reasons, and the mix
			// reached all of them.
			for _, r := range []string{"", "below", "already disabled", "capacity constraints forbid disabling"} {
				if reasons[r] == 0 {
					t.Errorf("no report was answered with reason %q (saw %v)", r, reasons)
				}
			}
			if len(reasons) != 4 {
				t.Errorf("unexpected reasons on the wire: %v", reasons)
			}
		})
	}
}
