package experiments

import (
	"fmt"

	"corropt/internal/core"
	"corropt/internal/ctlplane"
	"corropt/internal/topology"
)

func init() {
	register("fig13", "controller workflow over the TCP control plane", analytic(fig13))
}

// fig13 drives the system-component workflow of Figure 13 end to end over
// a real localhost TCP connection: corruption reports flow to the
// controller, the fast checker answers, repairs trigger the optimizer.
func fig13(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "fig13",
		Title:  "CorrOpt controller workflow (report → decide → ticket → repair → optimize)",
		Header: []string{"step", "link", "outcome"},
	}
	topo, err := DCN(ScaleSmall)
	if err != nil {
		return nil, err
	}
	net, err := core.NewNetwork(topo, 0.75)
	if err != nil {
		return nil, err
	}
	engine := core.NewEngine(net, core.EngineConfig{})
	ctl, err := ctlplane.NewController("127.0.0.1:0", engine)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	cli, err := ctlplane.DialConfig(ctl.Addr().String(), ctlplane.ClientConfig{})
	if err != nil {
		return nil, err
	}
	defer cli.Close()

	// Script: a burst of corruption reports on one ToR's uplinks, more
	// than capacity allows, then a repair freeing the optimizer.
	tor := topo.ToRs()[0]
	uplinks := topo.Uplinks(tor)
	rates := []float64{1e-2, 1e-3, 1e-4}
	var blocked []topology.LinkID
	for i, l := range uplinks[:3] {
		d, err := cli.Report(l, rates[i])
		if err != nil {
			return nil, err
		}
		outcome := "disabled"
		if !d.Disabled {
			outcome = "kept active: " + d.Reason
			blocked = append(blocked, l)
		}
		r.AddRow(fmt.Sprintf("report rate=%.0e", rates[i]), topo.Switch(topo.Link(l).Lower).Name+"→"+topo.Switch(topo.Link(l).Upper).Name, outcome)
	}
	st, err := cli.Status()
	if err != nil {
		return nil, err
	}
	r.AddRow("status", "-", fmt.Sprintf("disabled=%d active_corrupting=%d worst_tor=%.2f", st.Disabled, st.ActiveCorrupting, st.WorstToRFraction))

	// Repair the worst link; the optimizer should now disable the blocked
	// one.
	newly, err := cli.Activate(uplinks[0])
	if err != nil {
		return nil, err
	}
	r.AddRow("activate (repaired)", "first uplink", fmt.Sprintf("optimizer disabled %d more", len(newly)))
	if len(blocked) > 0 {
		found := 0
		for _, l := range newly {
			for _, b := range blocked {
				if l == b {
					found++
				}
			}
		}
		r.AddNote("capacity-blocked links: %d; picked up by the optimizer after the repair: %d (the worst goes first; the rest wait for more capacity)", len(blocked), found)
	}
	st, err = cli.Status()
	if err != nil {
		return nil, err
	}
	r.AddRow("final status", "-", fmt.Sprintf("disabled=%d active_corrupting=%d", st.Disabled, st.ActiveCorrupting))
	return r, nil
}
