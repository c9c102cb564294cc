// Binary-level tests: build corropt-agent once and run it the way an
// operator does — bad flags refused before it dials anything, and a run
// against a controller that disables links and brings them back.
package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"corropt"
	"corropt/internal/core"
	"corropt/internal/ctlplane"
)

// agentBin is the test-built binary, compiled once in TestMain.
var agentBin string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "corropt-agent-test-*")
	if err != nil {
		panic(err)
	}
	agentBin = filepath.Join(tmp, "corropt-agent")
	if out, err := exec.Command("go", "build", "-o", agentBin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(tmp)
		panic("building corropt-agent: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// runAgent runs the agent with args and returns its exit code and output.
func runAgent(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(agentBin, args...)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), out.String(), errOut.String()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, out.String(), errOut.String()
}

func TestBadFlagsExitBeforeDialing(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // in stderr
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag"},
		{"no pods", []string{"-pods", "0"}, 1, "corropt-agent: topology:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Nothing listens on port 1: a dial would fail differently.
			code, stdout, stderr := runAgent(t, append([]string{"-controller", "127.0.0.1:1", "-retries", "0"}, tc.args...)...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not name %q", stderr, tc.want)
			}
			if stdout != "" {
				t.Errorf("printed %q before exiting: it started", stdout)
			}
		})
	}
}

// TestRunAgainstController runs the agent against an in-process controller
// over loopback: faults are detected over snmplite, reported, disabled,
// repaired and brought back up, and the agent exits cleanly.
func TestRunAgainstController(t *testing.T) {
	const pods = 2 // the agent builds the same Clos from -pods
	topo, err := corropt.NewClos(corropt.ClosConfig{
		Pods: pods, ToRsPerPod: 12, AggsPerPod: 4,
		Spines: 32, SpineUplinksPerAgg: 8, BreakoutSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := corropt.NewNetwork(topo, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewPolicyEngine(net, core.PolicyCorrOpt, core.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := ctlplane.NewController("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	code, stdout, stderr := runAgent(t, "-controller", ctl.Addr().String(), "-pods", "2",
		"-events", "8", "-gap", "0", "-repair-after", "1ms")
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, want := range []string{"-> DISABLED", "back up", "final controller state:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("no %q line in\n%s", want, stdout)
		}
	}
}
