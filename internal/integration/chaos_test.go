// Chaos matrix: the deployment-path protocols (ctlplane over TCP, snmplite
// over UDP) are replayed through deterministic netchaos fault injection —
// drops, duplicates, reorders, bit-flips, and resets on both directions —
// and must converge to the exact same application-level transcript as the
// clean run. The whole matrix is additionally pinned byte-identical across
// runner worker counts, the same contract the experiment reports carry
// (DESIGN.md §7.2, §7.3).
package integration_test

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"corropt/internal/core"
	"corropt/internal/ctlplane"
	"corropt/internal/netchaos"
	"corropt/internal/rngutil"
	"corropt/internal/runner"
	"corropt/internal/snmplite"
	"corropt/internal/topology"
)

// chaosProfiles are the fault mixes of the matrix. Every profile bounds its
// damage with MaxFaults so a client whose retry budget exceeds the fault
// budget is guaranteed to converge.
var chaosProfiles = []struct {
	name string
	cfg  netchaos.Config
}{
	{"drop", netchaos.Config{Drop: 0.3, MaxFaults: 4}},
	{"dup", netchaos.Config{Dup: 0.3, MaxFaults: 4}},
	{"reorder", netchaos.Config{Reorder: 0.3, MaxFaults: 4}},
	{"corrupt", netchaos.Config{Corrupt: 0.3, MaxFaults: 4}},
	{"reset", netchaos.Config{Reset: 0.3, MaxFaults: 4}},
}

var chaosSeeds = []uint64{11, 23, 47}

// retryAttempts comfortably exceeds the worst case of both injectors
// spending their whole fault budget on one exchange.
const retryAttempts = 16

// runCtlScenario replays a fixed capacity-pressure workload against a live
// controller, with the client's dialer and the server's listener wrapped in
// fault injection, and returns the decision transcript.
func runCtlScenario(injClient, injServer *netchaos.Injector) (string, error) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 4, Spines: 4, SpineUplinksPerAgg: 1,
	})
	if err != nil {
		return "", err
	}
	cnet, err := core.NewNetwork(topo, 0.5)
	if err != nil {
		return "", err
	}
	engine := core.NewEngine(cnet, core.EngineConfig{})

	rawLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	ctl, err := ctlplane.ServeListener(injServer.Listener(rawLn), engine, nil)
	if err != nil {
		return "", err
	}
	defer ctl.Close()

	agent, err := ctlplane.DialConfig(ctl.Addr().String(), ctlplane.ClientConfig{
		Timeout:  200 * time.Millisecond,
		Dial:     injClient.Dialer(),
		Attempts: retryAttempts,
		AgentID:  "chaos-agent",
		Sleep:    func(time.Duration) {},
	})
	if err != nil {
		return "", err
	}
	defer agent.Close()

	var b strings.Builder
	tor := topo.ToRs()[0]
	up := topo.Uplinks(tor)
	rates := []float64{1e-2, 1e-3, 1e-4, 1e-5}
	for i, l := range up {
		d, err := agent.Report(l, rates[i])
		if err != nil {
			return "", fmt.Errorf("report %d: %w", l, err)
		}
		fmt.Fprintf(&b, "report link=%d rate=%.0e disabled=%v\n", l, rates[i], d.Disabled)
	}
	newly, err := agent.Activate(up[0])
	if err != nil {
		return "", fmt.Errorf("activate: %w", err)
	}
	fmt.Fprintf(&b, "activate link=%d newly=%v\n", up[0], newly)
	st, err := agent.Status()
	if err != nil {
		return "", fmt.Errorf("status: %w", err)
	}
	fmt.Fprintf(&b, "status disabled=%d corrupting=%d worst=%.3f\n",
		st.Disabled, st.ActiveCorrupting, st.WorstToRFraction)
	return b.String(), nil
}

// runSnmpScenario polls a deterministic provider over real UDP, with the
// client's dialer and the server's socket wrapped in fault injection, and
// returns the reading transcript.
func runSnmpScenario(injClient, injServer *netchaos.Injector) (string, error) {
	provider := snmplite.ProviderFunc(func(link uint32, counter snmplite.CounterID) (uint64, error) {
		return uint64(link)*1000 + uint64(counter)*7, nil
	})
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv, err := snmplite.NewServerConn(injServer.PacketConn(conn), provider, nil)
	if err != nil {
		_ = conn.Close() // constructor failed; nothing else owns the socket
		return "", err
	}
	defer srv.Close()

	cli, err := snmplite.DialConfig(srv.Addr().String(), snmplite.ClientConfig{
		Timeout:  200 * time.Millisecond,
		Attempts: retryAttempts,
		Dial:     injClient.DatagramDialer(),
		Sleep:    func(time.Duration) {},
	})
	if err != nil {
		return "", err
	}
	defer cli.Close()

	var b strings.Builder
	queries := make([]snmplite.Query, snmplite.NumCounters)
	for link := topology.LinkID(0); link < 6; link++ {
		// One datagram asks for every counter of the link.
		for ctr := range queries {
			queries[ctr] = snmplite.Query{Link: uint32(link), Counter: snmplite.CounterID(ctr)}
		}
		values, err := cli.Get(queries)
		if err != nil {
			return "", fmt.Errorf("poll link %d: %w", link, err)
		}
		var v [snmplite.NumCounters]uint64
		for _, x := range values {
			v[x.Counter] = x.Value
		}
		fmt.Fprintf(&b, "link=%d packets=%v errors=%v drops=%v\n", link,
			v[snmplite.CounterPacketsUp:snmplite.CounterPacketsDown+1],
			v[snmplite.CounterErrorsUp:snmplite.CounterErrorsDown+1],
			v[snmplite.CounterDropsUp:snmplite.CounterDropsDown+1])
	}
	return b.String(), nil
}

type chaosCell struct {
	proto   string // "ctlplane" or "snmplite"
	profile string
	seed    uint64
	cfg     netchaos.Config
}

func chaosCells() []chaosCell {
	var cells []chaosCell
	for _, proto := range []string{"ctlplane", "snmplite"} {
		for _, p := range chaosProfiles {
			for _, seed := range chaosSeeds {
				cells = append(cells, chaosCell{proto: proto, profile: p.name, seed: seed, cfg: p.cfg})
			}
		}
	}
	return cells
}

// runCell executes one matrix cell: both directions are faulted, each from
// its own substream of the cell's seed.
func runCell(c chaosCell) (string, error) {
	root := rngutil.New(c.seed).Split("chaos-" + c.proto + "-" + c.profile)
	injClient := netchaos.New(root.Split("client"), c.cfg)
	injServer := netchaos.New(root.Split("server"), c.cfg)
	if c.proto == "ctlplane" {
		return runCtlScenario(injClient, injServer)
	}
	return runSnmpScenario(injClient, injServer)
}

// cleanTranscripts runs both scenarios through zero-config (transparent)
// injectors: the baseline every chaos cell must converge to.
func cleanTranscripts(t *testing.T) (ctl, snmp string) {
	t.Helper()
	cleanInj := func() *netchaos.Injector { return netchaos.New(rngutil.New(0), netchaos.Config{}) }
	ctl, err := runCtlScenario(cleanInj(), cleanInj())
	if err != nil {
		t.Fatalf("clean ctlplane run: %v", err)
	}
	snmp, err = runSnmpScenario(cleanInj(), cleanInj())
	if err != nil {
		t.Fatalf("clean snmplite run: %v", err)
	}
	return ctl, snmp
}

// TestChaosMatrixConvergesToCleanRun is the tentpole assertion: for every
// fault profile, protocol, and seed, the hardened deployment path reaches
// the same application-level decisions as a fault-free run.
func TestChaosMatrixConvergesToCleanRun(t *testing.T) {
	cleanCtl, cleanSnmp := cleanTranscripts(t)
	for _, cell := range chaosCells() {
		cell := cell
		name := fmt.Sprintf("%s/%s/seed%d", cell.proto, cell.profile, cell.seed)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got, err := runCell(cell)
			if err != nil {
				t.Fatalf("chaos run failed (retry budget %d vs 2×%d faults): %v",
					retryAttempts, cell.cfg.MaxFaults, err)
			}
			want := cleanCtl
			if cell.proto == "snmplite" {
				want = cleanSnmp
			}
			if got != want {
				t.Errorf("chaos transcript diverged from clean run:\n--- clean ---\n%s--- chaos ---\n%s", want, got)
			}
		})
	}
}

// TestChaosMatrixDeterministicAcrossWorkers replays the full matrix under
// different runner worker counts and requires the concatenated transcripts
// to be byte-identical — the same determinism contract the experiment
// reports carry.
func TestChaosMatrixDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix replay is seconds-long; skipped in -short")
	}
	cells := chaosCells()
	runMatrix := func(workers int) string {
		t.Helper()
		transcripts, err := runner.Map(workers, len(cells), func(i int) (string, error) {
			return runCell(cells[i])
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b strings.Builder
		for i, tr := range transcripts {
			fmt.Fprintf(&b, "=== %s/%s/seed%d ===\n%s", cells[i].proto, cells[i].profile, cells[i].seed, tr)
		}
		return b.String()
	}
	serial := runMatrix(1)
	parallel := runMatrix(runner.Workers(0))
	if serial != parallel {
		t.Fatal("matrix transcript differs between 1 worker and the full pool")
	}
	// And replaying with the same worker count is stable, too.
	if again := runMatrix(runner.Workers(0)); again != parallel {
		t.Fatal("matrix transcript differs between identical replays")
	}
}
