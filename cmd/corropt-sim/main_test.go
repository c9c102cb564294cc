// Binary-level tests: build corropt-sim once and run it the way a user
// does, pinning exit statuses and what `validate` and `run -golden` print.
package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// simBin is the test-built binary, compiled once in TestMain.
var simBin string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "corropt-sim-test-*")
	if err != nil {
		panic(err)
	}
	simBin = filepath.Join(tmp, "corropt-sim")
	if out, err := exec.Command("go", "build", "-o", simBin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(tmp)
		panic("building corropt-sim: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// runSim executes the binary in dir and returns stdout, stderr and the exit
// code.
func runSim(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(simBin, args...)
	cmd.Dir = dir
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %s: %v", simBin, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

func TestValidateCommittedScenarios(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed scenarios: %v", err)
	}
	stdout, stderr, code := runSim(t, ".", append([]string{"validate"}, files...)...)
	if code != 0 {
		t.Fatalf("validate exited %d\nstderr:\n%s", code, stderr)
	}
	if n := strings.Count(stdout, ": ok ("); n != len(files) {
		t.Fatalf("validate reported %d ok lines for %d files:\n%s", n, len(files), stdout)
	}
}

// TestValidateBadScenarios runs validate on each malformed file and wants
// exit 1 and, on stderr, exactly the error internal/scenario's golden pins
// for that file.
func TestValidateBadScenarios(t *testing.T) {
	badDir := filepath.Join("..", "..", "internal", "scenario", "testdata")
	golden, err := os.Open(filepath.Join(badDir, "bad_errors.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer golden.Close()
	seen := 0
	sc := bufio.NewScanner(golden)
	for sc.Scan() {
		file, want, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		seen++
		_, stderr, code := runSim(t, filepath.Join(badDir, "bad"), "validate", file)
		if code != 1 || stderr != want+"\n" {
			t.Errorf("validate %s: exit %d, stderr %q; want exit 1, stderr %q", file, code, stderr, want+"\n")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(badDir, "bad", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(files) || seen == 0 {
		t.Fatalf("golden pins %d files, testdata/bad holds %d", seen, len(files))
	}
}

// TestRunGoldenCatchesOneByte replays a scenario against its golden, then
// against a copy of the golden with one byte flipped.
func TestRunGoldenCatchesOneByte(t *testing.T) {
	const name = "smoke_policies"
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	copyFile(t, filepath.Join("..", "..", "scenarios", name+".json"), filepath.Join(dir, name+".json"))
	goldenPath := filepath.Join(dir, "golden", name+".txt")
	golden := copyFile(t, filepath.Join("..", "..", "scenarios", "golden", name+".txt"), goldenPath)

	if _, stderr, code := runSim(t, dir, "run", "-golden", name+".json"); code != 0 {
		t.Fatalf("run -golden against the committed golden: exit %d\n%s", code, stderr)
	}
	golden[len(golden)/2] ^= 1
	if err := os.WriteFile(goldenPath, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runSim(t, dir, "run", "-golden", name+".json")
	if code != 1 || !strings.Contains(stderr, "transcript differs from golden") {
		t.Fatalf("run -golden against a flipped byte: exit %d, stderr %q; want exit 1 and a golden diff", code, stderr)
	}
}

func TestLegacyUnknownPolicy(t *testing.T) {
	_, stderr, code := runSim(t, ".", "-policy", "bogus")
	if code == 0 || !strings.Contains(stderr, `unknown policy "bogus"`) {
		t.Fatalf("-policy bogus: exit %d, stderr %q; want a non-zero exit naming the policy", code, stderr)
	}
}

// copyFile copies src to dst and returns the bytes.
func copyFile(t *testing.T, src, dst string) []byte {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}
