// Binary-level tests: build corroptd once and run it the way an operator
// does — bad flags refused before anything listens, and a -state file
// carried across a SIGTERM restart, restored links still repairable.
package main

import (
	"bufio"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"corropt/internal/ctlplane"
	"corropt/internal/topology"
)

// daemonBin is the test-built binary, compiled once in TestMain.
var daemonBin string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "corroptd-test-*")
	if err != nil {
		panic(err)
	}
	daemonBin = filepath.Join(tmp, "corroptd")
	if out, err := exec.Command("go", "build", "-o", daemonBin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(tmp)
		panic("building corroptd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

func TestBadFlagsExitBeforeListening(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // in stderr
	}{
		{"capacity", []string{"-capacity", "2"}, "capacity constraint 2 out of [0,1]"},
		{"threshold", []string{"-threshold", "-1"}, "detection threshold -1 out of (0,1]"},
		{"missing topology", []string{"-topology", "no-such.json"}, "no-such.json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(daemonBin, append([]string{"-addr", "127.0.0.1:0", "-agent-timeout", "0"}, tc.args...)...)
			cmd.Dir = t.TempDir()
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				t.Fatalf("exit %v, want status 1\nstderr:\n%s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not name %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("printed %q before exiting: it served", stdout.String())
			}
		})
	}
}

// daemon is one running corroptd and a client connected to it.
type daemon struct {
	cmd *exec.Cmd
	cli *ctlplane.Client
}

var servingOn = regexp.MustCompile(` on (127\.0\.0\.1:\d+),`)

// startDaemon runs corroptd on an ephemeral port with the given state file
// and connects to the address its banner names.
func startDaemon(t *testing.T, state string) *daemon {
	t.Helper()
	cmd := exec.Command(daemonBin, "-addr", "127.0.0.1:0", "-pods", "2", "-agent-timeout", "0", "-state", state)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		if d.cli != nil {
			d.cli.Close()
		}
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		if t.Failed() {
			t.Logf("corroptd stderr:\n%s", stderr.String())
		}
	})
	banner := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(out).ReadString('\n')
		banner <- line
		_, _ = io.Copy(io.Discard, out)
	}()
	var line string
	select {
	case line = <-banner:
	case <-time.After(30 * time.Second):
		t.Fatal("corroptd printed no banner")
	}
	m := servingOn.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("banner %q names no address", line)
	}
	if d.cli, err = ctlplane.DialConfig(m[1], ctlplane.ClientConfig{Timeout: 5 * time.Second, AgentID: "test"}); err != nil {
		t.Fatal(err)
	}
	return d
}

// stop sends SIGTERM and waits for a clean exit, which saves the state.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.cli.Close()
	d.cli = nil
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("corroptd after SIGTERM: %v", err)
	}
}

func (d *daemon) status(t *testing.T) *ctlplane.StatusResult {
	t.Helper()
	st, err := d.cli.Status()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStateSurvivesRestart(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state.json")
	d := startDaemon(t, state)
	var down []topology.LinkID
	for l := topology.LinkID(0); len(down) < 2; l++ {
		dec, err := d.cli.Report(l, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Disabled {
			down = append(down, l)
		}
	}
	before := d.status(t)
	d.stop(t)

	d = startDaemon(t, state)
	after := d.status(t)
	if after.Disabled != before.Disabled || after.ActiveCorrupting != before.ActiveCorrupting {
		t.Fatalf("restored status %+v, saved %+v", *after, *before)
	}
	// The restarted loop adopted the restored links: repairing one
	// re-enables it.
	newly, err := d.cli.Activate(down[0])
	if err != nil {
		t.Fatalf("activate restored link %d: %v", down[0], err)
	}
	if got, want := d.status(t).Disabled, before.Disabled-1+len(newly); got != want {
		t.Errorf("after activating restored link %d: %d disabled, want %d", down[0], got, want)
	}
	d.stop(t)
}
