package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden transcripts and error goldens")

const scenarioDir = "../../scenarios"

// minProfiles is the floor on the committed chaos-profile library; the
// golden gate fails if the corpus ever shrinks below it.
const minProfiles = 8

func scenarioFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(scenarioDir, "*.json"))
	if err != nil {
		t.Fatalf("glob scenarios: %v", err)
	}
	if len(files) < minProfiles {
		t.Fatalf("scenario corpus has %d profiles, want at least %d", len(files), minProfiles)
	}
	return files
}

// TestScenarioGoldens runs every committed profile at Workers=1 and
// Workers=8 and requires the transcripts to be byte-identical to each
// other and to the committed golden, with every declared assertion
// passing. Run with -update to regenerate the goldens.
func TestScenarioGoldens(t *testing.T) {
	for _, file := range scenarioFiles(t) {
		file := file
		base := strings.TrimSuffix(filepath.Base(file), ".json")
		t.Run(base, func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			s, err := Parse(data, filepath.Base(file))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if s.Name != base {
				t.Fatalf("scenario name %q does not match file base %q", s.Name, base)
			}
			c, err := Compile(s)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			one, err := Execute(c, Options{Workers: 1})
			if err != nil {
				t.Fatalf("execute workers=1: %v", err)
			}
			eight, err := Execute(c, Options{Workers: 8})
			if err != nil {
				t.Fatalf("execute workers=8: %v", err)
			}
			t1, t8 := []byte(one.Transcript()), []byte(eight.Transcript())
			if !bytes.Equal(t1, t8) {
				t.Fatalf("transcript differs between Workers=1 and Workers=8:\n%s", diffLines(t1, t8))
			}
			if !one.Passed {
				for _, a := range one.Assertions {
					if !a.Pass {
						t.Errorf("assertion failed: %s (got %.6g)", a.Desc, a.Value)
					}
				}
				t.Fatalf("scenario assertions failed")
			}
			goldenPath := filepath.Join(scenarioDir, "golden", base+".txt")
			if *update {
				if err := os.WriteFile(goldenPath, t1, 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(t1, want) {
				t.Fatalf("transcript differs from golden %s (run with -update to regenerate):\n%s",
					goldenPath, diffLines(want, t1))
			}
		})
	}
}

// TestExecuteErrorNamesRun: a run the simulator rejects fails Execute
// with an error naming the scenario and that run, at any worker count.
func TestExecuteErrorNamesRun(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(scenarioDir, "fig14_small.json"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(data, "fig14_small.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	c.Runs[1].Config.DetectionThreshold = -1
	for _, workers := range []int{1, 2} {
		_, err := Execute(c, Options{Workers: workers})
		if err == nil || !strings.HasPrefix(err.Error(), `scenario "fig14_small": run "corropt": sim: `) {
			t.Errorf("workers %d: error %v, want it to name scenario fig14_small and run corropt", workers, err)
		}
	}
}

func diffLines(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	var b strings.Builder
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	shown := 0
	for i := 0; i < n && shown < 20; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&b, "line %d:\n  want: %s\n  got:  %s\n", i+1, w, g)
			shown++
		}
	}
	return b.String()
}
