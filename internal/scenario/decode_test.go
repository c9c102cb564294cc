package scenario

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// base is a valid document; each case of TestDecoderMatchesReference swaps
// one piece of it for a bad one.
const base = `{"version": 1, "name": "t", "horizon": "1d",
  "topology": {"kind": "fattree", "k": 4},
  "runs": [{"name": "a", "policy": "none"}]}`

// sub returns base with each old piece (pairs of old, new) replaced once.
func sub(pairs ...string) string {
	doc := base
	for i := 0; i < len(pairs); i += 2 {
		if !strings.Contains(doc, pairs[i]) {
			panic(fmt.Sprintf("base has no %q", pairs[i]))
		}
		doc = strings.Replace(doc, pairs[i], pairs[i+1], 1)
	}
	return doc
}

// withEvents, withChaos and withAssertions add a part to base; withRun adds
// fields to its run.
func withEvents(events string) string { return sub(`"runs":`, `"events": `+events+`, "runs":`) }
func withChaos(chaos string) string   { return sub(`"runs":`, `"chaos": `+chaos+`, "runs":`) }
func withRun(extra string) string     { return sub(`"policy": "none"`, `"policy": "none", `+extra) }
func withAssertions(assertions string) string {
	return sub(`"policy": "none"}]`, `"policy": "none"}], "assertions": `+assertions)
}

// decoderCases holds at least one document per error the reference decoder
// can report, named after the reference's message. The errors a parsed
// document cannot carry (a NaN or infinite number) are built on the tree in
// TestDecoderMatchesReference.
var decoderCases = map[string]string{
	"valid":                                        base,
	"scenario must be an object":                   `[1]`,
	"missing required field":                       `{}`,
	"unknown field":                                sub(`"name": "t"`, `"name": "t", "bogus": 1`),
	"must be a string":                             sub(`"name": "t"`, `"name": "t", "description": 5`),
	"must be a number":                             withChaos(`{"faults_per_link_per_day": "x"}`),
	"must be a boolean":                            withRun(`"drain_mode": 1`),
	"must be an integer, got":                      sub(`"k": 4`, `"k": "4"`),
	"integer out of range":                         sub(`"k": 4`, `"k": 99999999999`),
	"must be an integer":                           sub(`"k": 4`, `"k": 4.5`),
	"integer as a float":                           sub(`"k": 4`, `"k": 4e0`),
	"must be a non-negative integer, got":          sub(`"name": "t"`, `"name": "t", "seed": "1"`),
	"must be a non-negative integer":               sub(`"name": "t"`, `"name": "t", "seed": -1`),
	"seed as a float":                              sub(`"name": "t"`, `"name": "t", "seed": 1e3`),
	"must be a duration string":                    sub(`"horizon": "1d"`, `"horizon": 5`),
	"invalid duration":                             sub(`"horizon": "1d"`, `"horizon": "soon"`),
	"days out of range":                            sub(`"horizon": "1d"`, `"horizon": "1e300d"`),
	"must be positive (duration)":                  sub(`"horizon": "1d"`, `"horizon": "-1h"`),
	"is before t=0":                                withEvents(`[{"kind": "corrupt", "at": "-1h", "link": 0, "rate": 0.1}]`),
	"must be in [lo, hi]":                          withRun(`"capacity": 2`),
	"stream must match":                            withChaos(`{"stream": "Bad", "faults_per_link_per_day": 1}`),
	"name must match":                              sub(`"name": "t"`, `"name": "T!"`),
	"unsupported scenario version":                 sub(`"version": 1`, `"version": 2`),
	"topology must be >= min":                      sub(`"k": 4`, `"k": 0`),
	"unknown topology kind":                        sub(`"kind": "fattree"`, `"kind": "ring"`),
	"clos":                                         sub(`"kind": "fattree", "k": 4`, `"kind": "clos", "pods": 1, "tors_per_pod": 2, "aggs_per_pod": 2, "spines": 2, "spine_uplinks_per_agg": 2, "breakout_size": 0`),
	"topology unknown field":                       sub(`"k": 4`, `"k": 4, "pods": 2`),
	"faults_per_link_per_day must be positive":     withChaos(`{"faults_per_link_per_day": 0}`),
	"shared_min_links must be >= 2":                withChaos(`{"faults_per_link_per_day": 1, "shared_min_links": 1}`),
	"shared_max_links must be >= shared_min_links": withChaos(`{"faults_per_link_per_day": 1, "shared_min_links": 3, "shared_max_links": 2}`),
	"shared_max_links below the default":           withChaos(`{"faults_per_link_per_day": 1, "shared_max_links": -1}`),
	"chaos":                                        withChaos(`{"faults_per_link_per_day": 1, "max_rate": 0.01, "shared_min_links": 2, "shared_max_links": 5}`),
	"events must be an array":                      withEvents(`{}`),
	"event must be an object":                      withEvents(`[3]`),
	"link must be >= 0":                            withEvents(`[{"kind": "corrupt", "at": "1h", "link": -1, "rate": 0.1}]`),
	"rate must be in (0, 1]":                       withEvents(`[{"kind": "corrupt", "at": "1h", "link": 0, "rate": 2}]`),
	"direction must be":                            withEvents(`[{"kind": "corrupt", "at": "1h", "link": 0, "rate": 0.1, "direction": "left"}]`),
	"id already used":                              withEvents(`[{"kind": "corrupt", "id": "x", "at": "1h", "link": 0, "rate": 0.1}, {"kind": "breakout", "id": "x", "at": "1h", "link": 0, "rate": 0.1}]`),
	"id must match":                                withEvents(`[{"kind": "corrupt", "id": "X", "at": "1h", "link": 0, "rate": 0.1}]`),
	"unknown cause":                                withEvents(`[{"kind": "corrupt", "at": "1h", "link": 0, "rate": 0.1, "cause": "shared-component"}]`),
	"cause and forward repair":                     withEvents(`[{"kind": "repair", "at": "2h", "target": "x"}, {"kind": "corrupt", "id": "x", "at": "1h", "link": 0, "rate": 0.1, "direction": "both", "cause": "damaged-fiber"}]`),
	"repair targets unknown event id":              withEvents(`[{"kind": "repair", "at": "1h", "target": "x"}]`),
	"count must be in":                             withEvents(`[{"kind": "flap", "link": 0, "rate": 0.1, "start": "1h", "count": 0, "up": "1h", "down": "1h"}]`),
	"flap":                                         withEvents(`[{"kind": "flap", "link": 0, "rate": 0.1, "start": "1h", "count": 3, "up": "1h", "down": "1h", "direction": "down"}]`),
	"steps must be in":                             withEvents(`[{"kind": "ramp", "link": 0, "start": "1h", "duration": "1d", "steps": 1, "from": 0.001, "to": 0.1}]`),
	"from must be in (0, 1]":                       withEvents(`[{"kind": "ramp", "link": 0, "start": "1h", "duration": "1d", "steps": 2, "from": 0, "to": 0.1}]`),
	"ramp":                                         withEvents(`[{"kind": "ramp", "link": 0, "start": "1h", "duration": "1d", "steps": 2, "from": 0.001, "to": 0.1}]`),
	"event field of another kind":                  withEvents(`[{"kind": "ramp", "link": 0, "start": "1h", "duration": "1d", "steps": 2, "from": 0.001, "to": 0.1, "rate": 0.1}]`),
	"unknown event kind":                           withEvents(`[{"kind": "meteor"}]`),
	"runs must be an array":                        sub(`[{"name": "a", "policy": "none"}]`, `{}`),
	"runs must name at least one run":              sub(`[{"name": "a", "policy": "none"}]`, `[]`),
	"duplicate run name":                           sub(`{"name": "a", "policy": "none"}`, `{"name": "a", "policy": "none"}, {"name": "a", "policy": "none"}`),
	"unknown policy":                               sub(`"policy": "none"`, `"policy": "telepathy"`),
	"detection_delay must be >= 0":                 withRun(`"detection_delay": "-1h"`),
	"repair_mode must be":                          withRun(`"repair_mode": "magic"`),
	"technicians must be >= 0":                     withRun(`"technicians": -1`),
	"flaps must be >= 1":                           withRun(`"dampening": {"window": "1h", "flaps": 0, "holddown": "1h"}`),
	"every run field":                              withRun(`"capacity": 0.5, "detection_threshold": 1e-5, "detection_delay": "1h", "repair_mode": "recommendation", "accuracy": 0.9, "ignore_prob": 0.3, "deployed_engine": true, "no_optics_fraction": 0.25, "drain_mode": true, "repair_collateral": false, "service_time": "2d", "technicians": 3, "seed": 9, "dampening": {"window": "1h", "flaps": 2, "holddown": "3h"}`),
	"assertions must be an array":                  withAssertions(`{}`),
	"runs must be a pair":                          withAssertions(`[{"metric": "penalty_ratio", "runs": ["a"], "max": 1}]`),
	"runs entry must be a string":                  withAssertions(`[{"metric": "penalty_ratio", "runs": ["a", 1], "max": 1}]`),
	"ratio references unknown run":                 withAssertions(`[{"metric": "penalty_ratio", "runs": ["a", "z"], "max": 1}]`),
	"run references unknown run":                   withAssertions(`[{"metric": "samples", "run": "z", "max": 1}]`),
	"run is required":                              sub(`{"name": "a", "policy": "none"}`, `{"name": "a", "policy": "none"}, {"name": "b", "policy": "corropt"}], "assertions": [{"metric": "samples", "max": 1}`),
	"unknown assertion metric":                     withAssertions(`[{"metric": "frobnication", "max": 1}]`),
	"must bound the metric":                        withAssertions(`[{"metric": "samples"}]`),
	"min exceeds max":                              withAssertions(`[{"metric": "samples", "min": 2, "max": 1}]`),
	"assertion unknown field":                      withAssertions(`[{"metric": "samples", "runs": ["a", "a"], "max": 1}]`),
	"assertions":                                   withAssertions(`[{"metric": "tickets_ratio", "runs": ["a", "a"], "min": 0, "max": 2}, {"metric": "samples", "run": "a", "min": 1}]`),
	"flap overflows":                               withEvents(`[{"kind": "flap", "link": 0, "rate": 0.1, "start": "1d", "count": 10000, "up": "1000d", "down": "1d"}]`),
	"flap period overflows":                        withEvents(`[{"kind": "flap", "link": 0, "rate": 0.1, "start": "0s", "count": 1, "up": "100000d", "down": "100000d"}]`),
	"ramp overflows":                               withEvents(`[{"kind": "ramp", "link": 0, "start": "100000d", "duration": "100000d", "steps": 2, "from": 0.001, "to": 0.1}]`),
}

// TestDecoderMatchesReference holds Parse's table-driven decoder to the
// hand-written reference on one document per reference error, on every
// committed scenario and on every malformed file.
func TestDecoderMatchesReference(t *testing.T) {
	docs := make(map[string][]byte)
	for name, doc := range decoderCases {
		docs[name] = []byte(doc)
	}
	for _, pattern := range []string{filepath.Join(scenarioDir, "*.json"), filepath.Join("testdata", "bad", "*.json")} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			docs[file] = data
		}
	}
	for name, data := range docs {
		root, err := parseTree(data, "doc")
		if err != nil {
			continue // parse.go's errors, the same for both decoders
		}
		if msg := matchReference(root); msg != "" {
			t.Errorf("%s: %s\ninput: %s", name, msg, data)
		}
	}

	// A JSON number is never NaN or infinite, so these bounds are reached
	// only through a tree the parser could not have built.
	for _, tc := range []struct{ doc, num string }{
		{withRun(`"capacity": 0.5`), "0.5"},
		{withChaos(`{"faults_per_link_per_day": 7}`), "7"},
		{withEvents(`[{"kind": "corrupt", "at": "1h", "link": 0, "rate": 0.25}]`), "0.25"},
		{withAssertions(`[{"metric": "samples", "min": 3}]`), "3"},
	} {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			root, err := parseTree([]byte(tc.doc), "doc")
			if err != nil {
				t.Fatal(err)
			}
			setNumber(root, tc.num, x)
			if msg := matchReference(root); msg != "" {
				t.Errorf("%s with %s = %v: %s", tc.doc, tc.num, x, msg)
			}
		}
	}
}

// everyField is a valid document that sets every field of every object.
const everyField = `{"version": 1, "name": "every_field", "description": "d", "seed": 3,
  "horizon": "2d", "sample_interval": "2h",
  "topology": {"kind": "clos", "pods": 1, "tors_per_pod": 2, "aggs_per_pod": 2, "spines": 2,
    "spine_uplinks_per_agg": 2, "breakout_size": 2},
  "chaos": {"stream": "c-1", "faults_per_link_per_day": 0.01, "max_rate": 0.01,
    "shared_min_links": 2, "shared_max_links": 3},
  "events": [
    {"kind": "corrupt", "id": "c1", "at": "1h", "link": 0, "rate": 0.01, "direction": "both", "cause": "damaged-fiber"},
    {"kind": "repair", "at": "3h", "target": "c1"},
    {"kind": "flap", "link": 1, "rate": 0.01, "direction": "down", "start": "1h", "count": 2, "up": "1h", "down": "1h"},
    {"kind": "ramp", "link": 2, "direction": "up", "start": "1h", "duration": "4h", "steps": 2, "from": 0.001, "to": 0.01},
    {"kind": "breakout", "id": "b1", "at": "2h", "link": 4, "rate": 0.01, "direction": "up"}],
  "runs": [
    {"name": "a", "policy": "corropt", "capacity": 0.5, "detection_threshold": 1e-5, "detection_delay": "1h",
     "repair_mode": "recommendation", "accuracy": 0.9, "ignore_prob": 0.3, "deployed_engine": true,
     "no_optics_fraction": 0.25, "drain_mode": true, "repair_collateral": true, "service_time": "2d",
     "technicians": 3, "seed": 9, "dampening": {"window": "1h", "flaps": 2, "holddown": "3h"}},
    {"name": "b", "policy": "none"}],
  "assertions": [
    {"metric": "penalty_ratio", "runs": ["a", "b"], "min": 0, "max": 10},
    {"metric": "samples", "run": "a", "min": 1, "max": 100}]}`

// TestDecoderCheckOrderMatchesReference pins the order fields are checked
// in, which decides the error a document with several gets: with every
// field of everyField set to null, each decode reports the first field in
// table order, the test restores that one field, and the two decoders must
// agree at every step until the document decodes.
func TestDecoderCheckOrderMatchesReference(t *testing.T) {
	root, err := parseTree([]byte(everyField), "doc")
	if err != nil {
		t.Fatal(err)
	}
	if msg := matchReference(root); msg != "" {
		t.Fatalf("everyField: %s", msg)
	}
	slots, orig := make(map[pos]*vfield), make(map[pos]*value)
	nullAll(root, slots, orig)
	for len(orig) > 0 {
		if msg := matchReference(root); msg != "" {
			t.Fatalf("with %d fields null: %s", len(orig), msg)
		}
		_, err := (&decoder{file: "doc"}).scenario(root)
		var perr *Error
		if !errors.As(err, &perr) {
			t.Fatalf("with %d fields still null the document decodes (err %v)", len(orig), err)
		}
		at := pos{line: perr.Line, col: perr.Col}
		if orig[at] == nil {
			t.Fatalf("error %v is not at a null field", err)
		}
		slots[at].val = orig[at]
		delete(orig, at)
	}
	if msg := matchReference(root); msg != "" {
		t.Fatalf("restored: %s", msg)
	}
}

// nullAll replaces the value of every object member in the tree with a null
// at the same position, recording each member and its value by position.
func nullAll(v *value, slots map[pos]*vfield, orig map[pos]*value) {
	for i := range v.fields {
		f := &v.fields[i]
		nullAll(f.val, slots, orig)
		slots[f.val.at], orig[f.val.at] = f, f.val
		f.val = &value{at: f.val.at, kind: vNull}
	}
	for _, item := range v.items {
		nullAll(item, slots, orig)
	}
}

// setNumber replaces the value of every number token raw in the tree.
func setNumber(v *value, raw string, x float64) {
	if v.kind == vNum && v.raw == raw {
		v.num, v.raw = x, fmt.Sprint(x)
	}
	for _, f := range v.fields {
		setNumber(f.val, raw, x)
	}
	for _, item := range v.items {
		setNumber(item, raw, x)
	}
}

// matchReference decodes root with Parse's decoder and with the reference
// and describes how the two disagree.
func matchReference(root *value) string {
	s, err := (&decoder{file: "doc"}).scenario(root)
	rs, rerr := (&refDecoder{file: "doc"}).scenario(root)
	return agree(s, err, rs, rerr)
}

// agree describes how Parse's result differs from the reference's ("" when
// they agree). The one difference allowed: Parse rejects an event schedule
// that overflows time.Duration, which the reference accepted.
func agree(s *Scenario, err error, rs *Scenario, rerr error) string {
	if rerr != nil {
		// The reference returned a partly filled scenario beside an unknown
		// top-level field; Parse returns nil with every error.
		rs = nil
	}
	if i := overflowingEvent(rs); i >= 0 {
		var perr *Error
		want := fmt.Sprintf("events[%d]: ", i)
		if s == nil && errors.As(err, &perr) && strings.HasPrefix(perr.Msg, want) && strings.Contains(perr.Msg, "overflows") {
			return ""
		}
		return fmt.Sprintf("reference accepts an overflowing %s; Parse returned %v", want, err)
	}
	if !reflect.DeepEqual(err, rerr) {
		return fmt.Sprintf("error %v, reference %v", err, rerr)
	}
	if !reflect.DeepEqual(s, rs) {
		return fmt.Sprintf("scenario\n  %+v\nreference\n  %+v", s, rs)
	}
	return ""
}

// overflowingEvent returns the index of the first event whose expansion
// ends past the largest time.Duration, computed exactly, or -1.
func overflowingEvent(s *Scenario) int {
	if s == nil {
		return -1
	}
	limit := big.NewInt(math.MaxInt64)
	for i, ev := range s.Events {
		end := new(big.Int)
		switch ev.Kind {
		case EventFlap:
			end.Add(big.NewInt(int64(ev.Up)), big.NewInt(int64(ev.Down)))
			end.Mul(end, big.NewInt(int64(ev.Count)))
			end.Add(end, big.NewInt(int64(ev.Start)))
		case EventRamp:
			end.Add(big.NewInt(int64(ev.Start)), big.NewInt(int64(ev.Duration)))
		}
		if end.Cmp(limit) > 0 {
			return i
		}
	}
	return -1
}
