// Package integration_test wires every subsystem together the way the
// deployment of Figure 13 does — fault injection → optics → telemetry →
// snmplite polling over UDP → diagnosis → control-plane decisions over TCP
// → repair → re-optimization — and checks the end-to-end behaviour that no
// single package test can see.
package integration_test

import (
	"testing"
	"time"

	"corropt/internal/core"
	"corropt/internal/ctlplane"
	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/snmplite"
	"corropt/internal/telemetry"
	"corropt/internal/tickets"
	"corropt/internal/topology"
)

func tech() optics.Technology {
	return optics.Technology{Name: "40G", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
}

// TestFullPipelineOverTheWire runs the complete loop with real sockets:
// a fault strikes, the SNMP poller observes the error counters rise, the
// symptoms are diagnosed into a recommendation, the controller disables the
// link over TCP, the technician repairs it, and the optimizer reacts to the
// activation.
func TestFullPipelineOverTheWire(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 2, ToRsPerPod: 4, AggsPerPod: 4, Spines: 8, SpineUplinksPerAgg: 4, BreakoutSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth and telemetry.
	state := faults.NewState(topo, tech())
	net, err := core.NewNetwork(topo, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	collector := telemetry.NewCollector(state, nil, net.DisabledFunc(), telemetry.Config{Seed: 7})

	// The monitoring plane: snmplite agent + poller over UDP.
	snmpSrv, err := snmplite.NewServer("127.0.0.1:0", snmplite.CollectorProvider(collector, topo.NumLinks()))
	if err != nil {
		t.Fatal(err)
	}
	defer snmpSrv.Close()
	poller, err := snmplite.DialConfig(snmpSrv.Addr().String(), snmplite.ClientConfig{Timeout: time.Second, Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer poller.Close()

	// The control plane: CorrOpt controller + agent client over TCP.
	engine := core.NewEngine(net, core.EngineConfig{})
	ctl, err := ctlplane.NewController("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	agent, err := ctlplane.DialConfig(ctl.Addr().String(), ctlplane.ClientConfig{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	// 1. A contamination fault strikes a ToR uplink.
	tor := topo.ToRs()[0]
	link := topo.Uplinks(tor)[0]
	fault := &faults.Fault{
		ID:    1,
		Cause: faults.ConnectorContamination,
		Effects: []faults.LinkEffect{{
			Link:          link,
			ExtraLossFrom: [2]optics.DB{optics.LowerSide: 12},
		}},
	}
	state.Apply(fault)
	collector.Poll(0)
	collector.Poll(15 * time.Minute)

	// 2. The poller reads the counters over UDP and computes the rate.
	l := uint32(link)
	v, err := poller.Get([]snmplite.Query{
		{Link: l, Counter: snmplite.CounterPacketsUp},
		{Link: l, Counter: snmplite.CounterErrorsUp},
		{Link: l, Counter: snmplite.CounterTxPowerLower},
		{Link: l, Counter: snmplite.CounterRxPowerUpper},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets, errs := v[0].Value, v[1].Value
	if errs == 0 {
		t.Fatal("poller saw no errors on a corrupting link")
	}
	rate := float64(errs) / float64(packets)
	if rate < 1e-6 {
		t.Fatalf("measured rate %v below detection threshold", rate)
	}
	// Optical symptoms round-trip through the wire encoding.
	if rx := snmplite.DecodePower(v[3].Value); rx >= float64(tech().RxThreshold) {
		t.Fatalf("upper Rx %v should be starved", rx)
	}
	if snmplite.DecodePower(v[2].Value) < float64(tech().TxThreshold) {
		t.Fatal("contamination must not dim the transmitter")
	}

	// 3. Diagnose from telemetry; the engine should say "clean fiber".
	diag, ok := core.Diagnose(collector, topo, tech(), link, 1e-7, false)
	if !ok {
		t.Fatal("no diagnostics for a corrupting link")
	}
	rec := core.Recommend(diag)
	if rec != faults.ActionCleanFiber {
		t.Fatalf("recommendation = %v, want clean-fiber", rec)
	}

	// 4. Report over TCP; the fast checker disables the link.
	d, err := agent.Report(link, rate)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Disabled {
		t.Fatalf("controller kept the link: %+v", d)
	}

	// 5. The next poll shows the link administratively down.
	collector.Poll(30 * time.Minute)
	obs, _ := collector.Latest(link)
	if !obs.Disabled {
		t.Fatal("telemetry does not reflect the disable")
	}

	// 6. Ticket + technician: the recommended action fixes the fault.
	queue := tickets.NewQueue(tickets.QueueConfig{})
	tk, done := queue.Open(link, rec, 30*time.Minute)
	techn := tickets.NewTechnician(1.0, rngutil.New(5))
	action := techn.ChooseAction(tk, fault.Cause)
	if !tickets.ActionFixesFault(action, fault) {
		t.Fatalf("action %v does not fix %v", action, fault.Cause)
	}
	state.RepairLink(link)
	if err := queue.Resolve(tk, done, action, true); err != nil {
		t.Fatal(err)
	}

	// 7. Activation over TCP; state converges to healthy.
	if _, err := agent.Activate(link); err != nil {
		t.Fatal(err)
	}
	st, err := agent.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Disabled != 0 || st.ActiveCorrupting != 0 || st.WorstToRFraction != 1 {
		t.Fatalf("final state not healthy: %+v", st)
	}
	collector.Poll(45 * time.Minute)
	obs, _ = collector.Latest(link)
	if obs.Disabled || obs.CorruptionRate[0] > 1e-7 {
		t.Fatalf("link not healthy after repair: %+v", obs)
	}
}

// TestCapacityPressureOverTheWire reproduces the capacity-blocked case end
// to end: more corrupting uplinks on one ToR than the constraint allows,
// resolved by repairs unlocking the optimizer.
func TestCapacityPressureOverTheWire(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 4, Spines: 4, SpineUplinksPerAgg: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.NewNetwork(topo, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	engine := core.NewEngine(net, core.EngineConfig{})
	ctl, err := ctlplane.NewController("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	agent, err := ctlplane.DialConfig(ctl.Addr().String(), ctlplane.ClientConfig{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	tor := topo.ToRs()[0]
	up := topo.Uplinks(tor) // 4 uplinks, c=0.5 → at most 2 down
	rates := []float64{1e-2, 1e-3, 1e-4, 1e-5}
	disabled := 0
	for i, l := range up {
		d, err := agent.Report(l, rates[i])
		if err != nil {
			t.Fatal(err)
		}
		if d.Disabled {
			disabled++
		}
	}
	if disabled != 2 {
		t.Fatalf("disabled %d of 4 uplinks, want exactly 2 at c=0.5", disabled)
	}
	// Repair the worst; the optimizer immediately swaps in the worst
	// remaining active link.
	newly, err := agent.Activate(up[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 1 || newly[0] != up[2] {
		t.Fatalf("optimizer disabled %v, want the 1e-4 link %d", newly, up[2])
	}
	st, err := agent.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Disabled != 2 {
		t.Fatalf("disabled = %d, want 2", st.Disabled)
	}
	if st.WorstToRFraction < 0.5 {
		t.Fatalf("constraint violated over the wire: %v", st.WorstToRFraction)
	}
}
