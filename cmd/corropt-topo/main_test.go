// Binary-level tests: build corropt-topo once and run it the way a user
// does — generate a fabric, write a state file with mkstate, draw it with
// dot -state — pinning exit statuses and which links the drawing dashes.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"corropt/internal/topology"
)

// topoBin is the test-built binary, compiled once in TestMain.
var topoBin string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "corropt-topo-test-*")
	if err != nil {
		panic(err)
	}
	topoBin = filepath.Join(tmp, "corropt-topo")
	if out, err := exec.Command("go", "build", "-o", topoBin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(tmp)
		panic("building corropt-topo: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// runTopo executes the binary in dir and returns stdout, stderr and the exit
// code.
func runTopo(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(topoBin, args...)
	cmd.Dir = dir
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %s: %v", topoBin, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// genSmall writes a small Clos to name in dir: pods pods of 2 ToRs and 2
// aggregation switches each, under 2 spines, one uplink per aggregation
// switch and no breakout cables.
func genSmall(t *testing.T, dir, name string, pods int) {
	t.Helper()
	_, stderr, code := runTopo(t, dir, "gen", "-pods", fmt.Sprint(pods), "-tors", "2", "-aggs", "2",
		"-spines", "2", "-uplinks", "1", "-breakout", "0", "-o", name)
	if code != 0 {
		t.Fatalf("gen exited %d\nstderr:\n%s", code, stderr)
	}
}

func TestMkstateThenDotDashesExactlyTheDisabledLinks(t *testing.T) {
	dir := t.TempDir()
	genSmall(t, dir, "small.topo", 2)
	if _, stderr, code := runTopo(t, dir, "mkstate", "-disable", "1,4", "-o", "state.json", "small.topo"); code != 0 {
		t.Fatalf("mkstate exited %d\nstderr:\n%s", code, stderr)
	} else if !strings.Contains(stderr, "state: 2 of 12 links disabled") {
		t.Errorf("mkstate reported %q, want 2 of 12 links disabled", stderr)
	}
	stdout, stderr, code := runTopo(t, dir, "dot", "-state", "state.json", "small.topo")
	if code != 0 {
		t.Fatalf("dot exited %d\nstderr:\n%s", code, stderr)
	}

	f, err := os.Open(filepath.Join(dir, "small.topo"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	topo, err := topology.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, id := range []topology.LinkID{1, 4} {
		l := topo.Link(id)
		want[fmt.Sprintf("%q -- %q", topo.Switch(l.Lower).Name, topo.Switch(l.Upper).Name)] = true
	}
	edges, dashed := 0, 0
	for _, line := range strings.Split(stdout, "\n") {
		edge, attrs, _ := strings.Cut(strings.TrimSuffix(strings.TrimSpace(line), ";"), " [")
		if !strings.Contains(edge, " -- ") {
			continue
		}
		edges++
		isDashed := strings.Contains(attrs, "style=dashed")
		if isDashed {
			dashed++
		}
		if isDashed != want[edge] {
			t.Errorf("edge %s: dashed %v, want %v", edge, isDashed, want[edge])
		}
	}
	if edges != topo.NumLinks() || dashed != len(want) {
		t.Errorf("dot drew %d edges, %d dashed; want %d and %d:\n%s", edges, dashed, topo.NumLinks(), len(want), stdout)
	}
}

func TestMkstateRejectsBadLinkIDs(t *testing.T) {
	dir := t.TempDir()
	genSmall(t, dir, "small.topo", 2)
	for _, tc := range []struct{ ids, want string }{
		{"x", `bad link id "x"`},
		{"1,-1", "link id -1 out of range [0,12)"},
		{"12", "link id 12 out of range [0,12)"},
	} {
		stdout, stderr, code := runTopo(t, dir, "mkstate", "-disable", tc.ids, "small.topo")
		if code != 1 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("-disable %s: exit %d, stderr %q, stdout %q; want exit 1 with %q and no state",
				tc.ids, code, stderr, stdout, tc.want)
		}
	}
}

func TestDotRejectsStateOfAnotherTopology(t *testing.T) {
	dir := t.TempDir()
	genSmall(t, dir, "small.topo", 2)
	genSmall(t, dir, "other.topo", 3)
	if _, stderr, code := runTopo(t, dir, "mkstate", "-disable", "1", "-o", "state.json", "small.topo"); code != 0 {
		t.Fatalf("mkstate exited %d\nstderr:\n%s", code, stderr)
	}
	stdout, stderr, code := runTopo(t, dir, "dot", "-state", "state.json", "other.topo")
	if code != 1 || !strings.Contains(stderr, "does not match this topology") || stdout != "" {
		t.Errorf("dot with another fabric's state: exit %d, stderr %q, stdout %q; want exit 1 with a fingerprint mismatch",
			code, stderr, stdout)
	}
}
