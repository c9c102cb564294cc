// Command corropt-agent simulates the switch side of the deployment, wired
// the way Figure 13 draws it: faults strike a local ground-truth replica;
// telemetry accumulates SNMP-style counters; an snmplite server exposes
// them over UDP; a detector derives corruption rates from counter deltas
// and reports state transitions to a corroptd controller over TCP; repairs
// complete after a (compressed) service time and trigger the optimizer via
// activation notifications.
//
// Usage (against a corroptd started with the same -pods value):
//
//	corropt-agent -controller 127.0.0.1:7070 -pods 8 -events 20
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"corropt"
	"corropt/internal/ctlplane"
	"corropt/internal/detector"
	"corropt/internal/netchaos"
	"corropt/internal/rngutil"
	"corropt/internal/simclock"
	"corropt/internal/snmplite"
	"corropt/internal/telemetry"
	"corropt/internal/topology"
)

func main() {
	var (
		controller = flag.String("controller", "127.0.0.1:7070", "corroptd control-plane address")
		pods       = flag.Int("pods", 8, "pods in the Clos topology (must match corroptd)")
		events     = flag.Int("events", 20, "number of fault events to replay")
		gap        = flag.Duration("gap", 200*time.Millisecond, "wall-clock gap between events")
		repairGap  = flag.Duration("repair-after", 2*time.Second, "wall-clock delay standing in for the 2-day repair")
		snmpAddr   = flag.String("snmp", "127.0.0.1:0", "snmplite UDP listen address")
		seed       = flag.Uint64("seed", 7, "random seed")
		agentID    = flag.String("agent", "corropt-agent", "agent identity reported to the controller (enables idempotent retries; empty disables)")
		retries    = flag.Int("retries", 5, "control-plane retry attempts after the first")

		chaosDrop    = flag.Float64("chaos-drop", 0, "probability of dropping each outbound write (demo fault injection)")
		chaosCorrupt = flag.Float64("chaos-corrupt", 0, "probability of bit-flipping each outbound write")
		chaosDup     = flag.Float64("chaos-dup", 0, "probability of duplicating each outbound write")
		chaosMax     = flag.Int("chaos-max", 8, "total fault budget across all chaos-wrapped traffic")
	)
	flag.Parse()

	topo, err := corropt.NewClos(corropt.ClosConfig{
		Pods: *pods, ToRsPerPod: 12, AggsPerPod: 4,
		Spines: 32, SpineUplinksPerAgg: 8, BreakoutSize: 4,
	})
	if err != nil {
		fatalf("topology: %v", err)
	}
	tech := corropt.DefaultTechnologies()[1]
	state := corropt.NewFaultState(topo, tech)
	inj, err := corropt.NewInjector(topo, tech, corropt.InjectorConfig{}, *seed)
	if err != nil {
		fatalf("injector: %v", err)
	}

	// Telemetry + snmplite agent, polled by the detector over real UDP —
	// the same path an external monitoring system would use. down mirrors
	// the links the controller has disabled, as its decisions and
	// activation replies say: a disabled link carries no traffic, so its
	// monitoring stops (§8).
	down := topology.NewLinkSet(topo.NumLinks())
	collector := telemetry.NewCollector(state, nil, down.Func(), telemetry.Config{Seed: *seed})
	collector.Poll(0)
	snmpSrv, err := snmplite.NewServer(*snmpAddr, snmplite.CollectorProvider(collector, topo.NumLinks()))
	if err != nil {
		fatalf("snmplite: %v", err)
	}
	defer snmpSrv.Close()
	fmt.Printf("corropt-agent: telemetry on udp %v\n", snmpSrv.Addr())

	// Optional demo fault injection: wrap both dialers (control-plane TCP
	// and telemetry UDP) in one seeded netchaos injector so the hardened
	// clients can be watched retrying through a corrupting deployment path.
	chaos := netchaos.New(rngutil.New(*seed).Split("agent-chaos"), netchaos.Config{
		Drop:      *chaosDrop,
		Dup:       *chaosDup,
		Corrupt:   *chaosCorrupt,
		MaxFaults: *chaosMax,
	})
	chaos.SetSleep(time.Sleep)
	defer func() {
		if s := chaos.Stats(); s.Faults() > 0 {
			fmt.Printf("corropt-agent: chaos injected %d fault(s) over %d writes\n", s.Faults(), s.Ops)
		}
	}()

	snmpCli, err := snmplite.DialConfig(snmpSrv.Addr().String(), snmplite.ClientConfig{
		Timeout:  time.Second,
		Attempts: *retries + 1,
		RNG:      rngutil.New(*seed).Split("agent-snmp-retry"),
		Dial:     chaos.DatagramDialer(nil),
	})
	if err != nil {
		fatalf("snmplite dial: %v", err)
	}
	defer snmpCli.Close()
	src := detector.SNMPSourceClient(snmpCli)
	var allLinks []topology.LinkID
	for l := 0; l < topo.NumLinks(); l++ {
		allLinks = append(allLinks, topology.LinkID(l))
	}
	det, err := detector.New(src, allLinks, detector.Config{Threshold: corropt.DefaultDetectionThreshold})
	if err != nil {
		fatalf("detector: %v", err)
	}

	cli, err := ctlplane.DialConfig(*controller, ctlplane.ClientConfig{
		Dial:     chaos.Dialer(nil),
		Attempts: *retries + 1,
		RNG:      rngutil.New(*seed).Split("agent-ctl-retry"),
		AgentID:  *agentID,
	})
	if err != nil {
		fatalf("controller: %v", err)
	}
	defer cli.Close()

	type pending struct {
		link corropt.LinkID
		due  time.Time
	}
	var repairs []pending
	queueRepair := func(l corropt.LinkID) {
		repairs = append(repairs, pending{link: l, due: simclock.Real{}.Now().Add(*repairGap)})
		sort.Slice(repairs, func(a, b int) bool { return repairs[a].due.Before(repairs[b].due) })
	}

	// One virtual 15-minute telemetry interval per wall-clock event; the
	// detector reads the counters over UDP and reports the transitions.
	pollAndReport := func(virtual time.Duration) {
		collector.Poll(virtual)
		evs, err := det.Poll()
		if err != nil {
			fatalf("detector poll: %v", err)
		}
		for _, ev := range evs {
			if !ev.Corrupting {
				fmt.Printf("  [detector] link %-5d recovered (rate %.1e)\n", ev.Link, ev.Rate)
				continue
			}
			d, err := cli.Report(ev.Link, ev.Rate)
			if err != nil {
				fatalf("report: %v", err)
			}
			if d.Disabled {
				fmt.Printf("  [detector] link %-5d rate %.2e -> DISABLED, repair queued\n", ev.Link, ev.Rate)
				down.Add(ev.Link)
				queueRepair(ev.Link)
			} else {
				fmt.Printf("  [detector] link %-5d rate %.2e -> kept active (%s)\n", ev.Link, ev.Rate, d.Reason)
			}
		}
	}

	interval := telemetry.DefaultInterval
	virtual := interval
	completeDue := func() {
		now := simclock.Real{}.Now()
		for len(repairs) > 0 && repairs[0].due.Before(now) {
			p := repairs[0]
			repairs = repairs[1:]
			state.RepairLink(p.link)
			newly, err := cli.Activate(p.link)
			if err != nil {
				fatalf("activate: %v", err)
			}
			down.Remove(p.link)
			fmt.Printf("  [repair]   link %-5d back up; optimizer disabled %d more\n", p.link, len(newly))
			for _, nl := range newly {
				down.Add(nl)
				queueRepair(nl)
			}
		}
	}

	for i := 0; i < *events; i++ {
		completeDue()
		f := inj.NewFault(virtual)
		state.Apply(f)
		fmt.Printf("event %2d: %v on %d link(s)\n", i, f.Cause, len(f.Links()))
		pollAndReport(virtual)
		virtual += interval
		time.Sleep(*gap)
	}
	// Drain outstanding repairs, letting the detector observe recoveries.
	for len(repairs) > 0 {
		time.Sleep(repairs[0].due.Sub(simclock.Real{}.Now()))
		completeDue()
		pollAndReport(virtual)
		virtual += interval
	}
	st, err := cli.Status()
	if err != nil {
		fatalf("status: %v", err)
	}
	fmt.Printf("final controller state: disabled=%d active_corrupting=%d worst_tor=%.3f\n",
		st.Disabled, st.ActiveCorrupting, st.WorstToRFraction)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "corropt-agent: "+format+"\n", args...)
	os.Exit(1)
}
