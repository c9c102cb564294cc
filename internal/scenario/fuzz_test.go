package scenario

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScenarioParse drives the strict parser with arbitrary bytes. The
// contract under fuzzing: never a panic; parsing is a function of the bytes
// alone (a second parse is deeply equal to the first); Parse agrees with
// the reference decoder (decode_reference_test.go) but for rejecting a
// schedule that overflows time.Duration; every rejection is a *Error
// pointing inside the input — a 1-based line that exists and a byte column
// no further than one past that line's end; and a document that parses and
// compiles schedules nothing before t=0. The seeds include every committed
// scenario and every malformed file, the two overflowing schedules among
// them.
func FuzzScenarioParse(f *testing.F) {
	for _, dir := range []string{filepath.Join("..", "..", "scenarios"), filepath.Join("testdata", "bad")} {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte(`# comment only`))
	f.Add([]byte(`{"version": 1, "name": "f", "horizon": "1d",
  "topology": {"kind": "fattree", "k": 4},
  "runs": [{"name": "a", "policy": "none"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data, "fuzz")
		s2, err2 := Parse(data, "fuzz")
		if !reflect.DeepEqual(s, s2) || !reflect.DeepEqual(err, err2) {
			t.Fatalf("two parses differ\ninput: %q\nfirst:  %+v, %v\nsecond: %+v, %v", data, s, err, s2, err2)
		}
		rs, rerr := refParse(data, "fuzz")
		if msg := agree(s, err, rs, rerr); msg != "" {
			t.Fatalf("Parse and the reference decoder differ: %s\ninput: %q", msg, data)
		}
		if err == nil {
			checkSchedule(t, s, data)
			return
		}
		var perr *Error
		if !errors.As(err, &perr) {
			t.Fatalf("rejection is %T, want *scenario.Error: %v\ninput: %q", err, err, data)
		}
		lines := bytes.Split(data, []byte("\n"))
		if perr.Line < 1 || perr.Line > len(lines) || perr.Col < 1 || perr.Col > len(lines[perr.Line-1])+1 {
			t.Fatalf("error position %d:%d lies outside the input: %v\ninput: %q", perr.Line, perr.Col, err, data)
		}
	})
}

// checkSchedule compiles s, when that stays small, and requires every
// fault to start and every clear to land at or after t=0.
func checkSchedule(t *testing.T, s *Scenario, data []byte) {
	if !cheapToCompile(s) {
		return
	}
	c, err := Compile(s)
	if err != nil {
		return
	}
	for _, f := range c.Trace {
		if f.Start < 0 {
			t.Fatalf("fault %d starts at %v, before t=0\ninput: %q", f.ID, f.Start, data)
		}
	}
	for _, cl := range c.Clears {
		if cl.At < 0 {
			t.Fatalf("clear of fault %d at %v, before t=0\ninput: %q", cl.Fault, cl.At, data)
		}
	}
}

// cheapToCompile reports whether Compile of s builds at most a few thousand
// links and a chaos trace of at most a few thousand faults: a fuzzed
// document can ask for far more than a fuzzer's memory and time.
func cheapToCompile(s *Scenario) bool {
	t := s.Topology
	for _, n := range []int{t.Pods, t.ToRsPerPod, t.AggsPerPod, t.Spines, t.SpineUplinksPerAgg, t.K} {
		if n > 64 {
			return false
		}
	}
	links := t.Pods*(t.ToRsPerPod*t.AggsPerPod+t.AggsPerPod*t.SpineUplinksPerAgg) + t.K*t.K*t.K/2
	if links > 4096 {
		return false
	}
	return s.Chaos == nil || s.Chaos.FaultsPerLinkPerDay*float64(links)*s.Horizon.Hours()/24 <= 5000
}
