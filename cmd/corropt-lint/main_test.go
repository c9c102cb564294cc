// Driver-level tests: build the corropt-lint binary once and run it against
// throwaway modules, pinning the -json object shape, exit codes on dirty vs
// clean trees, and the -diff affected-package restriction. These complement the internal/analysis selfcheck tests by
// exercising the process boundary — flag parsing, exit statuses, and output
// formatting — exactly as `make lint` and the pre-commit hook consume them.
package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// lintBin is the test-built driver binary, compiled once in TestMain.
var lintBin string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "corropt-lint-test-*")
	if err != nil {
		panic(err)
	}
	lintBin = filepath.Join(tmp, "corropt-lint")
	cmd := exec.Command("go", "build", "-o", lintBin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(tmp)
		panic("building corropt-lint: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// writeTree materializes a file tree under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runLint executes the built driver in dir and returns stdout, stderr, and
// the exit code (0, 1 findings, 2 operational error).
func runLint(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(lintBin, args...)
	cmd.Dir = dir
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %s: %v", lintBin, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// cleanModule is a violation-free throwaway module.
func cleanModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"a/a.go": "package a\n\n// Sum folds xs.\nfunc Sum(xs []int) int {\n\ts := 0\n\tfor _, x := range xs {\n\t\ts += x\n\t}\n\treturn s\n}\n",
	})
	return dir
}

// dirtyModule seeds a float fold in map iteration order — maprange's fold
// rule applies in every package, so it fires in any module regardless of
// the per-repository analyzer configs — next to a clean //lint:hotpath
// root for the -json stats.
func dirtyModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"a/a.go": `package a

// Hot is the per-event path.
//
//lint:hotpath per-event replay cost
func Hot(x int) int { return x + 1 }

// Sum folds float terms in map order.
func Sum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}
`,
	})
	return dir
}

// wireReport mirrors the -json object shape the doc comment promises.
type wireReport struct {
	Stats struct {
		Packages     int `json:"packages"`
		Functions    int `json:"functions"`
		FuncLits     int `json:"func_lits"`
		CallEdges    int `json:"call_edges"`
		HotpathRoots int `json:"hotpath_roots"`
	} `json:"stats"`
	Findings []struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Col        int    `json:"col"`
		Analyzer   string `json:"analyzer"`
		Message    string `json:"message"`
		Suppressed bool   `json:"suppressed"`
	} `json:"findings"`
}

func TestExitCodeCleanTree(t *testing.T) {
	dir := cleanModule(t)
	stdout, stderr, code := runLint(t, dir, "./...")
	if code != 0 {
		t.Fatalf("clean tree: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if strings.TrimSpace(stdout) != "" {
		t.Fatalf("clean tree produced output:\n%s", stdout)
	}
}

func TestExitCodeAndJSONShapeDirtyTree(t *testing.T) {
	dir := dirtyModule(t)
	stdout, stderr, code := runLint(t, dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("dirty tree: exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	var report wireReport
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, stdout)
	}
	if report.Stats.Packages == 0 || report.Stats.Functions == 0 || report.Stats.HotpathRoots != 1 {
		t.Fatalf("stats = %+v, want nonzero packages/functions and exactly 1 hotpath root", report.Stats)
	}
	found := false
	for _, f := range report.Findings {
		if f.Analyzer != "maprange" {
			continue
		}
		found = true
		if f.File != filepath.Join("a", "a.go") || f.Line == 0 || f.Col == 0 {
			t.Errorf("finding position = %s:%d:%d, want a/a.go with nonzero line/col", f.File, f.Line, f.Col)
		}
		if f.Suppressed {
			t.Errorf("finding is suppressed, want live")
		}
		if !strings.Contains(f.Message, "folds map values in iteration order") {
			t.Errorf("message %q does not name the map-order fold", f.Message)
		}
	}
	if !found {
		t.Fatalf("no maprange finding in -json output:\n%s", stdout)
	}
}

func TestDiffRestrictsPackages(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := dirtyModule(t)
	writeTree(t, dir, map[string]string{
		"b/b.go": "package b\n\n// N is a constant-ish helper.\nfunc N() int { return 1 }\n",
	})
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.email=test@test", "-c", "user.name=test"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	git("init", "-q")
	git("add", ".")
	git("commit", "-q", "-m", "seed")

	// Touch only the clean package: the committed maprange violation in a/
	// is outside the affected closure, so the diff-restricted run passes
	// while the full run still fails.
	writeTree(t, dir, map[string]string{
		"b/b.go": "package b\n\n// N is a constant-ish helper.\nfunc N() int { return 2 }\n",
	})
	stdout, stderr, code := runLint(t, dir, "-diff", "HEAD", "./...")
	if code != 0 {
		t.Fatalf("-diff HEAD over clean edit: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "1 of 2 packages affected") {
		t.Fatalf("-diff note missing or wrong:\n%s", stderr)
	}
	if _, _, code := runLint(t, dir, "./..."); code != 1 {
		t.Fatalf("full run: exit %d, want 1 (a/'s violation must still fail)", code)
	}
}
