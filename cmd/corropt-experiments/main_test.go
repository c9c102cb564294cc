// Binary-level tests: build corropt-experiments once and run it the way a
// user does, pinning exit statuses, that a rejected flag leaves an existing
// -o file untouched, and that -workers does not change the report.
package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// expBin is the test-built binary, compiled once in TestMain.
var expBin string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "corropt-experiments-test-*")
	if err != nil {
		panic(err)
	}
	expBin = filepath.Join(tmp, "corropt-experiments")
	if out, err := exec.Command("go", "build", "-o", expBin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(tmp)
		panic("building corropt-experiments: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// runExp executes the binary in dir and returns stdout, stderr and the exit
// code.
func runExp(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(expBin, args...)
	cmd.Dir = dir
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %s: %v", expBin, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// TestBadFlagsKeepOutputFile: a bad or empty -exp, -format or -scale exits
// non-zero before -o is created, so an existing report survives byte for
// byte.
func TestBadFlagsKeepOutputFile(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"unknown experiment", []string{"-exp", "nosuch"}, 1},
		{"one unknown id in a list", []string{"-exp", "tab1,nosuch"}, 1},
		{"unknown format", []string{"-exp", "tab1", "-format", "xml"}, 2},
		{"unknown scale", []string{"-exp", "tab1", "-scale", "huge"}, 2},
		{"empty id list", []string{"-exp", " , "}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			const report = "experiment\tmetric\tvalue\nfig14\tpenalty\t1\n"
			path := filepath.Join(dir, "out.tsv")
			if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
				t.Fatal(err)
			}
			_, stderr, code := runExp(t, dir, append(c.args, "-o", "out.tsv")...)
			if code != c.code {
				t.Errorf("exit %d, want %d\nstderr:\n%s", code, c.code, stderr)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != report {
				t.Errorf("out.tsv is now %q, want it untouched", got)
			}
		})
	}
}

// TestWorkersDoNotChangeReport: the same experiments print the same bytes
// at -workers 1 and -workers 4.
func TestWorkersDoNotChangeReport(t *testing.T) {
	dir := t.TempDir()
	var outs [2]string
	for i, workers := range []string{"1", "4"} {
		stdout, stderr, code := runExp(t, dir, "-exp", "sec72,ticketq", "-scale", "small", "-seed", "1", "-workers", workers)
		if code != 0 {
			t.Fatalf("-workers %s exited %d\nstderr:\n%s", workers, code, stderr)
		}
		outs[i] = stdout
	}
	if outs[0] == "" || outs[0] != outs[1] {
		t.Fatalf("-workers 1 and 4 differ:\n%s\n---\n%s", outs[0], outs[1])
	}
}
