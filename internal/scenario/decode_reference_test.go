// The hand-written per-field scenario decoder that decode.go's field tables
// replaced, kept verbatim as the oracle except for renamed identifiers (and
// the two metric sets it read from scenario.go, copied below it).
// TestDecoderMatchesReference and FuzzScenarioParse hold the table-driven
// Parse to the same scenario and the same error on every input; the only
// difference they allow is Parse's rejection of an event schedule that
// overflows time.Duration, which this decoder accepted.

package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// refParse parses, validates, and default-fills a scenario document. file is
// used only for error positions ("file:line:col: msg"). The grammar is
// strict: unknown fields, duplicate keys, wrong types, bad enum values,
// events before t=0, and assertions on unknown metrics or runs are all
// rejected with a position-bearing *Error. The returned Scenario has every
// default filled in.
func refParse(data []byte, file string) (*Scenario, error) {
	root, err := parseTree(data, file)
	if err != nil {
		return nil, err
	}
	d := &refDecoder{file: file}
	return d.scenario(root)
}

type refDecoder struct {
	file string
}

func (d *refDecoder) errAt(at pos, format string, args ...any) error {
	return &Error{File: d.file, Line: at.line, Col: at.col, Msg: fmt.Sprintf(format, args...)}
}

// refObj wraps an object value for strict field consumption: get marks a
// field as known, finish rejects the first unknown one.
type refObj struct {
	d    *refDecoder
	v    *value
	what string
	used map[string]bool
}

func (d *refDecoder) object(v *value, what string) (*refObj, error) {
	if v.kind != vObj {
		return nil, d.errAt(v.at, "%s must be an object, got %s", what, v.kind)
	}
	return &refObj{d: d, v: v, what: what, used: make(map[string]bool)}, nil
}

func (o *refObj) get(key string) *value {
	o.used[key] = true
	return o.v.field(key)
}

func (o *refObj) require(key string) (*value, error) {
	v := o.get(key)
	if v == nil {
		return nil, o.d.errAt(o.v.at, "missing required field %q in %s", key, o.what)
	}
	return v, nil
}

func (o *refObj) finish() error {
	for _, f := range o.v.fields {
		if !o.used[f.key] {
			return o.d.errAt(f.at, "unknown field %q in %s", f.key, o.what)
		}
	}
	return nil
}

func (d *refDecoder) str(v *value, what string) (string, error) {
	if v.kind != vStr {
		return "", d.errAt(v.at, "%s must be a string, got %s", what, v.kind)
	}
	return v.str, nil
}

func (d *refDecoder) num(v *value, what string) (float64, error) {
	if v.kind != vNum {
		return 0, d.errAt(v.at, "%s must be a number, got %s", what, v.kind)
	}
	return v.num, nil
}

func (d *refDecoder) boolean(v *value, what string) (bool, error) {
	if v.kind != vBool {
		return false, d.errAt(v.at, "%s must be a boolean, got %s", what, v.kind)
	}
	return v.boolv, nil
}

func (d *refDecoder) integer(v *value, what string) (int, error) {
	if v.kind != vNum {
		return 0, d.errAt(v.at, "%s must be an integer, got %s", what, v.kind)
	}
	if n, err := strconv.ParseInt(v.raw, 10, 64); err == nil {
		if n < math.MinInt32 || n > math.MaxInt32 {
			return 0, d.errAt(v.at, "%s out of range", what)
		}
		return int(n), nil
	}
	if v.num != math.Trunc(v.num) || math.Abs(v.num) > math.MaxInt32 {
		return 0, d.errAt(v.at, "%s must be an integer", what)
	}
	return int(v.num), nil
}

func (d *refDecoder) uintval(v *value, what string) (uint64, error) {
	if v.kind != vNum {
		return 0, d.errAt(v.at, "%s must be a non-negative integer, got %s", what, v.kind)
	}
	if n, err := strconv.ParseUint(v.raw, 10, 64); err == nil {
		return n, nil
	}
	if v.num != math.Trunc(v.num) || v.num < 0 || v.num > 1<<53 {
		return 0, d.errAt(v.at, "%s must be a non-negative integer", what)
	}
	return uint64(v.num), nil
}

// dur decodes a duration string: Go time.ParseDuration syntax plus a "Nd"
// days form ("30d", "1.5d").
func (d *refDecoder) dur(v *value, what string) (time.Duration, error) {
	if v.kind != vStr {
		return 0, d.errAt(v.at, "%s must be a duration string (e.g. \"48h\", \"30d\"), got %s", what, v.kind)
	}
	dur, err := refParseDur(v.str)
	if err != nil {
		return 0, d.errAt(v.at, "%s: invalid duration %q", what, v.str)
	}
	return dur, nil
}

func (d *refDecoder) durPos(v *value, what string) (time.Duration, error) {
	dur, err := d.dur(v, what)
	if err != nil {
		return 0, err
	}
	if dur <= 0 {
		return 0, d.errAt(v.at, "%s must be positive, got %q", what, v.str)
	}
	return dur, nil
}

// durEventTime decodes an event timestamp, rejecting times before t=0.
func (d *refDecoder) durEventTime(v *value, what string) (time.Duration, error) {
	dur, err := d.dur(v, what)
	if err != nil {
		return 0, err
	}
	if dur < 0 {
		return 0, d.errAt(v.at, "%s is before t=0 (%q)", what, v.str)
	}
	return dur, nil
}

func refParseDur(s string) (time.Duration, error) {
	if rest, ok := strings.CutSuffix(s, "d"); ok {
		if f, err := strconv.ParseFloat(rest, 64); err == nil {
			ns := f * float64(24*time.Hour)
			if math.IsNaN(ns) || math.Abs(ns) >= math.MaxInt64 {
				return 0, fmt.Errorf("duration %q out of range", s)
			}
			return time.Duration(ns), nil
		}
	}
	return time.ParseDuration(s)
}

// fraction decodes a number constrained to a half-open or closed unit
// interval; lo/hi are inclusive bounds.
func (d *refDecoder) fraction(v *value, what string, lo, hi float64) (float64, error) {
	f, err := d.num(v, what)
	if err != nil {
		return 0, err
	}
	if f < lo || f > hi || math.IsNaN(f) {
		return 0, d.errAt(v.at, "%s must be in [%v, %v], got %v", what, lo, hi, f)
	}
	return f, nil
}

func refValidName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, c := range s {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// refValidStream additionally admits '-': chaos streams name rngutil
// substreams, and the pre-DSL experiment drivers use hyphenated stream
// labels (e.g. "fig14-small") that scenarios must reproduce exactly to
// get the same fault trace.
func refValidStream(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, c := range s {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' && c != '-' {
			return false
		}
	}
	return true
}

func (d *refDecoder) stream(v *value, what string) (string, error) {
	s, err := d.str(v, what)
	if err != nil {
		return "", err
	}
	if !refValidStream(s) {
		return "", d.errAt(v.at, "%s must match [a-z0-9_-]{1,64}, got %q", what, s)
	}
	return s, nil
}

func (d *refDecoder) name(v *value, what string) (string, error) {
	s, err := d.str(v, what)
	if err != nil {
		return "", err
	}
	if !refValidName(s) {
		return "", d.errAt(v.at, "%s must match [a-z0-9_]{1,64}, got %q", what, s)
	}
	return s, nil
}

func (d *refDecoder) scenario(root *value) (*Scenario, error) {
	o, err := d.object(root, "scenario")
	if err != nil {
		return nil, err
	}
	s := &Scenario{SampleInterval: time.Hour, Seed: 1}

	vv, err := o.require("version")
	if err != nil {
		return nil, err
	}
	ver, err := d.integer(vv, `"version"`)
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, d.errAt(vv.at, "unsupported scenario version %d (this build reads version %d)", ver, Version)
	}
	s.Version = ver

	nv, err := o.require("name")
	if err != nil {
		return nil, err
	}
	if s.Name, err = d.name(nv, `"name"`); err != nil {
		return nil, err
	}
	if v := o.get("description"); v != nil {
		if s.Description, err = d.str(v, `"description"`); err != nil {
			return nil, err
		}
	}
	if v := o.get("seed"); v != nil {
		if s.Seed, err = d.uintval(v, `"seed"`); err != nil {
			return nil, err
		}
	}
	hv, err := o.require("horizon")
	if err != nil {
		return nil, err
	}
	if s.Horizon, err = d.durPos(hv, `"horizon"`); err != nil {
		return nil, err
	}
	if v := o.get("sample_interval"); v != nil {
		if s.SampleInterval, err = d.durPos(v, `"sample_interval"`); err != nil {
			return nil, err
		}
	}

	tv, err := o.require("topology")
	if err != nil {
		return nil, err
	}
	if s.Topology, err = d.topology(tv); err != nil {
		return nil, err
	}
	if v := o.get("chaos"); v != nil {
		if s.Chaos, err = d.chaos(v); err != nil {
			return nil, err
		}
	}
	if v := o.get("events"); v != nil {
		if s.Events, err = d.events(v); err != nil {
			return nil, err
		}
	}

	rv, err := o.require("runs")
	if err != nil {
		return nil, err
	}
	if s.Runs, err = d.runs(rv, s.Seed); err != nil {
		return nil, err
	}
	if v := o.get("assertions"); v != nil {
		if s.Assertions, err = d.assertions(v, s.Runs); err != nil {
			return nil, err
		}
	}
	return s, o.finish()
}

func (d *refDecoder) topology(v *value) (Topology, error) {
	var t Topology
	o, err := d.object(v, `"topology"`)
	if err != nil {
		return t, err
	}
	kv, err := o.require("kind")
	if err != nil {
		return t, err
	}
	kind, err := d.str(kv, `topology "kind"`)
	if err != nil {
		return t, err
	}
	t.Kind = kind
	intField := func(key string, dst *int, min int) error {
		fv, err := o.require(key)
		if err != nil {
			return err
		}
		n, err := d.integer(fv, fmt.Sprintf("topology %q", key))
		if err != nil {
			return err
		}
		if n < min {
			return d.errAt(fv.at, "topology %q must be >= %d, got %d", key, min, n)
		}
		*dst = n
		return nil
	}
	switch kind {
	case "clos":
		for _, f := range []struct {
			key string
			dst *int
			min int
		}{
			{"pods", &t.Pods, 1},
			{"tors_per_pod", &t.ToRsPerPod, 1},
			{"aggs_per_pod", &t.AggsPerPod, 1},
			{"spines", &t.Spines, 1},
			{"spine_uplinks_per_agg", &t.SpineUplinksPerAgg, 1},
			{"breakout_size", &t.BreakoutSize, 1},
		} {
			if err := intField(f.key, f.dst, f.min); err != nil {
				return t, err
			}
		}
	case "fattree":
		if err := intField("k", &t.K, 2); err != nil {
			return t, err
		}
	default:
		return t, d.errAt(kv.at, "unknown topology kind %q (want \"clos\" or \"fattree\")", kind)
	}
	return t, o.finish()
}

func (d *refDecoder) chaos(v *value) (*Chaos, error) {
	o, err := d.object(v, `"chaos"`)
	if err != nil {
		return nil, err
	}
	c := &Chaos{Stream: "chaos"}
	if sv := o.get("stream"); sv != nil {
		if c.Stream, err = d.stream(sv, `chaos "stream"`); err != nil {
			return nil, err
		}
	}
	rv, err := o.require("faults_per_link_per_day")
	if err != nil {
		return nil, err
	}
	rate, err := d.num(rv, `chaos "faults_per_link_per_day"`)
	if err != nil {
		return nil, err
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, d.errAt(rv.at, `chaos "faults_per_link_per_day" must be positive, got %v`, rate)
	}
	c.FaultsPerLinkPerDay = rate
	if mv := o.get("max_rate"); mv != nil {
		if c.MaxRate, err = d.fraction(mv, `chaos "max_rate"`, 1e-9, 1); err != nil {
			return nil, err
		}
	}
	if sv := o.get("shared_min_links"); sv != nil {
		if c.SharedMinLinks, err = d.integer(sv, `chaos "shared_min_links"`); err != nil {
			return nil, err
		}
		if c.SharedMinLinks < 2 {
			return nil, d.errAt(sv.at, `chaos "shared_min_links" must be >= 2, got %d`, c.SharedMinLinks)
		}
	}
	if sv := o.get("shared_max_links"); sv != nil {
		if c.SharedMaxLinks, err = d.integer(sv, `chaos "shared_max_links"`); err != nil {
			return nil, err
		}
		lo := c.SharedMinLinks
		if lo == 0 {
			lo = 2
		}
		if c.SharedMaxLinks < lo {
			return nil, d.errAt(sv.at, `chaos "shared_max_links" must be >= shared_min_links (%d), got %d`, lo, c.SharedMaxLinks)
		}
	}
	return c, o.finish()
}

var refCauseNames = map[string]bool{
	"connector-contamination": true,
	"damaged-fiber":           true,
	"decaying-transmitter":    true,
	"bad-transceiver":         true,
}

func (d *refDecoder) events(v *value) ([]Event, error) {
	if v.kind != vArr {
		return nil, d.errAt(v.at, `"events" must be an array, got %s`, v.kind)
	}
	// First sweep: collect the labels so repair events may target forward
	// declarations; duplicates are caught during the strict decode below.
	labels := make(map[string]bool)
	for _, item := range v.items {
		if item.kind != vObj {
			continue
		}
		if id := item.field("id"); id != nil && id.kind == vStr {
			labels[id.str] = true
		}
	}
	var out []Event
	seenLabels := make(map[string]bool)
	for i, item := range v.items {
		ev, err := d.event(item, i, labels, seenLabels)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

func (d *refDecoder) event(v *value, idx int, labels, seenLabels map[string]bool) (Event, error) {
	var ev Event
	what := fmt.Sprintf("events[%d]", idx)
	o, err := d.object(v, what)
	if err != nil {
		return ev, err
	}
	kv, err := o.require("kind")
	if err != nil {
		return ev, err
	}
	kind, err := d.str(kv, what+` "kind"`)
	if err != nil {
		return ev, err
	}
	ev.Kind = kind
	ev.Direction = "up"

	link := func() error {
		lv, err := o.require("link")
		if err != nil {
			return err
		}
		n, err := d.integer(lv, what+` "link"`)
		if err != nil {
			return err
		}
		if n < 0 {
			return d.errAt(lv.at, "%s \"link\" must be >= 0, got %d", what, n)
		}
		ev.Link = n
		return nil
	}
	at := func() error {
		av, err := o.require("at")
		if err != nil {
			return err
		}
		ev.At, err = d.durEventTime(av, what+` "at"`)
		return err
	}
	rate := func() error {
		rv, err := o.require("rate")
		if err != nil {
			return err
		}
		f, err := d.num(rv, what+` "rate"`)
		if err != nil {
			return err
		}
		if f <= 0 || f > 1 || math.IsNaN(f) {
			return d.errAt(rv.at, "%s \"rate\" must be in (0, 1], got %v", what, f)
		}
		ev.Rate = f
		return nil
	}
	direction := func() error {
		dv := o.get("direction")
		if dv == nil {
			return nil
		}
		s, err := d.str(dv, what+` "direction"`)
		if err != nil {
			return err
		}
		if s != "up" && s != "down" && s != "both" {
			return d.errAt(dv.at, "%s \"direction\" must be \"up\", \"down\", or \"both\", got %q", what, s)
		}
		ev.Direction = s
		return nil
	}
	label := func() error {
		iv := o.get("id")
		if iv == nil {
			return nil
		}
		s, err := d.name(iv, what+` "id"`)
		if err != nil {
			return err
		}
		if seenLabels[s] {
			return d.errAt(iv.at, "%s \"id\" %q already used by an earlier event", what, s)
		}
		seenLabels[s] = true
		ev.Label = s
		return nil
	}

	switch kind {
	case EventCorrupt:
		ev.Cause = "bad-transceiver"
		if err := refFirst(at, link, rate, direction, label); err != nil {
			return ev, err
		}
		if cv := o.get("cause"); cv != nil {
			s, err := d.str(cv, what+` "cause"`)
			if err != nil {
				return ev, err
			}
			if !refCauseNames[s] {
				return ev, d.errAt(cv.at, "%s: unknown cause %q (single-link causes only)", what, s)
			}
			ev.Cause = s
		}
	case EventRepair:
		if err := at(); err != nil {
			return ev, err
		}
		tv, err := o.require("target")
		if err != nil {
			return ev, err
		}
		target, err := d.str(tv, what+` "target"`)
		if err != nil {
			return ev, err
		}
		if !labels[target] {
			return ev, d.errAt(tv.at, "%s: repair targets unknown event id %q", what, target)
		}
		ev.Target = target
	case EventFlap:
		if err := refFirst(link, rate, direction); err != nil {
			return ev, err
		}
		sv, err := o.require("start")
		if err != nil {
			return ev, err
		}
		if ev.Start, err = d.durEventTime(sv, what+` "start"`); err != nil {
			return ev, err
		}
		cv, err := o.require("count")
		if err != nil {
			return ev, err
		}
		if ev.Count, err = d.integer(cv, what+` "count"`); err != nil {
			return ev, err
		}
		if ev.Count < 1 || ev.Count > 10000 {
			return ev, d.errAt(cv.at, "%s \"count\" must be in [1, 10000], got %d", what, ev.Count)
		}
		uv, err := o.require("up")
		if err != nil {
			return ev, err
		}
		if ev.Up, err = d.durPos(uv, what+` "up"`); err != nil {
			return ev, err
		}
		dv, err := o.require("down")
		if err != nil {
			return ev, err
		}
		if ev.Down, err = d.durPos(dv, what+` "down"`); err != nil {
			return ev, err
		}
	case EventRamp:
		if err := refFirst(link, direction); err != nil {
			return ev, err
		}
		sv, err := o.require("start")
		if err != nil {
			return ev, err
		}
		if ev.Start, err = d.durEventTime(sv, what+` "start"`); err != nil {
			return ev, err
		}
		dv, err := o.require("duration")
		if err != nil {
			return ev, err
		}
		if ev.Duration, err = d.durPos(dv, what+` "duration"`); err != nil {
			return ev, err
		}
		stv, err := o.require("steps")
		if err != nil {
			return ev, err
		}
		if ev.Steps, err = d.integer(stv, what+` "steps"`); err != nil {
			return ev, err
		}
		if ev.Steps < 2 || ev.Steps > 1000 {
			return ev, d.errAt(stv.at, "%s \"steps\" must be in [2, 1000], got %d", what, ev.Steps)
		}
		for _, fld := range []struct {
			key string
			dst *float64
		}{{"from", &ev.From}, {"to", &ev.To}} {
			fv, err := o.require(fld.key)
			if err != nil {
				return ev, err
			}
			f, err := d.num(fv, fmt.Sprintf("%s %q", what, fld.key))
			if err != nil {
				return ev, err
			}
			if f <= 0 || f > 1 || math.IsNaN(f) {
				return ev, d.errAt(fv.at, "%s %q must be in (0, 1], got %v", what, fld.key, f)
			}
			*fld.dst = f
		}
	case EventBreakout:
		if err := refFirst(at, link, rate, direction, label); err != nil {
			return ev, err
		}
	default:
		return ev, d.errAt(kv.at, "%s: unknown event kind %q", what, kind)
	}
	return ev, o.finish()
}

// refFirst runs the checks in order, returning the first error.
func refFirst(checks ...func() error) error {
	for _, c := range checks {
		if err := c(); err != nil {
			return err
		}
	}
	return nil
}

var refPolicyNames = map[string]bool{
	"none":         true,
	"switch-local": true,
	"fast-only":    true,
	"corropt":      true,
}

func (d *refDecoder) runs(v *value, scenarioSeed uint64) ([]Run, error) {
	if v.kind != vArr {
		return nil, d.errAt(v.at, `"runs" must be an array, got %s`, v.kind)
	}
	if len(v.items) == 0 {
		return nil, d.errAt(v.at, `"runs" must name at least one run`)
	}
	seen := make(map[string]bool)
	var out []Run
	for i, item := range v.items {
		r, err := d.run(item, i, scenarioSeed)
		if err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, d.errAt(item.at, "duplicate run name %q", r.Name)
		}
		seen[r.Name] = true
		out = append(out, r)
	}
	return out, nil
}

func (d *refDecoder) run(v *value, idx int, scenarioSeed uint64) (Run, error) {
	what := fmt.Sprintf("runs[%d]", idx)
	r := Run{
		Capacity:           0.75,
		DetectionThreshold: 1e-6,
		RepairMode:         "fixed",
		Accuracy:           0.8,
		ServiceTime:        48 * time.Hour,
		Seed:               scenarioSeed,
	}
	o, err := d.object(v, what)
	if err != nil {
		return r, err
	}
	nv, err := o.require("name")
	if err != nil {
		return r, err
	}
	if r.Name, err = d.name(nv, what+` "name"`); err != nil {
		return r, err
	}
	pv, err := o.require("policy")
	if err != nil {
		return r, err
	}
	policy, err := d.str(pv, what+` "policy"`)
	if err != nil {
		return r, err
	}
	if !refPolicyNames[policy] {
		return r, d.errAt(pv.at, "%s: unknown policy %q (want \"none\", \"switch-local\", \"fast-only\", or \"corropt\")", what, policy)
	}
	r.Policy = policy

	if fv := o.get("capacity"); fv != nil {
		if r.Capacity, err = d.fraction(fv, what+` "capacity"`, 1e-9, 1); err != nil {
			return r, err
		}
	}
	if fv := o.get("detection_threshold"); fv != nil {
		if r.DetectionThreshold, err = d.fraction(fv, what+` "detection_threshold"`, 1e-12, 1); err != nil {
			return r, err
		}
	}
	if fv := o.get("detection_delay"); fv != nil {
		if r.DetectionDelay, err = d.dur(fv, what+` "detection_delay"`); err != nil {
			return r, err
		}
		if r.DetectionDelay < 0 {
			return r, d.errAt(fv.at, "%s \"detection_delay\" must be >= 0", what)
		}
	}
	if fv := o.get("repair_mode"); fv != nil {
		mode, err := d.str(fv, what+` "repair_mode"`)
		if err != nil {
			return r, err
		}
		if mode != "fixed" && mode != "recommendation" {
			return r, d.errAt(fv.at, "%s \"repair_mode\" must be \"fixed\" or \"recommendation\", got %q", what, mode)
		}
		r.RepairMode = mode
	}
	if fv := o.get("accuracy"); fv != nil {
		if r.Accuracy, err = d.fraction(fv, what+` "accuracy"`, 1e-9, 1); err != nil {
			return r, err
		}
	}
	if fv := o.get("ignore_prob"); fv != nil {
		if r.IgnoreProb, err = d.fraction(fv, what+` "ignore_prob"`, 0, 1); err != nil {
			return r, err
		}
	}
	if fv := o.get("deployed_engine"); fv != nil {
		if r.DeployedEngine, err = d.boolean(fv, what+` "deployed_engine"`); err != nil {
			return r, err
		}
	}
	if fv := o.get("no_optics_fraction"); fv != nil {
		if r.NoOpticsFraction, err = d.fraction(fv, what+` "no_optics_fraction"`, 0, 1); err != nil {
			return r, err
		}
	}
	if fv := o.get("drain_mode"); fv != nil {
		if r.DrainMode, err = d.boolean(fv, what+` "drain_mode"`); err != nil {
			return r, err
		}
	}
	if fv := o.get("repair_collateral"); fv != nil {
		if r.RepairCollateral, err = d.boolean(fv, what+` "repair_collateral"`); err != nil {
			return r, err
		}
	}
	if fv := o.get("service_time"); fv != nil {
		if r.ServiceTime, err = d.durPos(fv, what+` "service_time"`); err != nil {
			return r, err
		}
	}
	if fv := o.get("technicians"); fv != nil {
		if r.Technicians, err = d.integer(fv, what+` "technicians"`); err != nil {
			return r, err
		}
		if r.Technicians < 0 {
			return r, d.errAt(fv.at, "%s \"technicians\" must be >= 0, got %d", what, r.Technicians)
		}
	}
	if fv := o.get("seed"); fv != nil {
		if r.Seed, err = d.uintval(fv, what+` "seed"`); err != nil {
			return r, err
		}
	}
	if fv := o.get("dampening"); fv != nil {
		if r.Dampening, err = d.dampening(fv, what); err != nil {
			return r, err
		}
	}
	return r, o.finish()
}

func (d *refDecoder) dampening(v *value, runWhat string) (*Dampening, error) {
	what := runWhat + ` "dampening"`
	o, err := d.object(v, what)
	if err != nil {
		return nil, err
	}
	dmp := &Dampening{}
	wv, err := o.require("window")
	if err != nil {
		return nil, err
	}
	if dmp.Window, err = d.durPos(wv, what+` "window"`); err != nil {
		return nil, err
	}
	fv, err := o.require("flaps")
	if err != nil {
		return nil, err
	}
	if dmp.Flaps, err = d.integer(fv, what+` "flaps"`); err != nil {
		return nil, err
	}
	if dmp.Flaps < 1 {
		return nil, d.errAt(fv.at, "%s \"flaps\" must be >= 1, got %d", what, dmp.Flaps)
	}
	hv, err := o.require("holddown")
	if err != nil {
		return nil, err
	}
	if dmp.Holddown, err = d.durPos(hv, what+` "holddown"`); err != nil {
		return nil, err
	}
	return dmp, o.finish()
}

func (d *refDecoder) assertions(v *value, runs []Run) ([]Assertion, error) {
	if v.kind != vArr {
		return nil, d.errAt(v.at, `"assertions" must be an array, got %s`, v.kind)
	}
	names := make(map[string]bool, len(runs))
	for _, r := range runs {
		names[r.Name] = true
	}
	var out []Assertion
	for i, item := range v.items {
		a, err := d.assertion(item, i, names, runs[0].Name, len(runs))
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func (d *refDecoder) assertion(v *value, idx int, runNames map[string]bool, firstRun string, numRuns int) (Assertion, error) {
	var a Assertion
	what := fmt.Sprintf("assertions[%d]", idx)
	o, err := d.object(v, what)
	if err != nil {
		return a, err
	}
	mv, err := o.require("metric")
	if err != nil {
		return a, err
	}
	metric, err := d.str(mv, what+` "metric"`)
	if err != nil {
		return a, err
	}
	a.Metric = metric
	switch {
	case refRatioMetrics[metric]:
		rv, err := o.require("runs")
		if err != nil {
			return a, err
		}
		if rv.kind != vArr || len(rv.items) != 2 {
			return a, d.errAt(rv.at, "%s \"runs\" must be a [numerator, denominator] pair of run names", what)
		}
		for j, item := range rv.items {
			name, err := d.str(item, what+` "runs" entry`)
			if err != nil {
				return a, err
			}
			if !runNames[name] {
				return a, d.errAt(item.at, "%s references unknown run %q", what, name)
			}
			a.Runs[j] = name
		}
	case refRunMetrics[metric]:
		if rv := o.get("run"); rv != nil {
			name, err := d.str(rv, what+` "run"`)
			if err != nil {
				return a, err
			}
			if !runNames[name] {
				return a, d.errAt(rv.at, "%s references unknown run %q", what, name)
			}
			a.Run = name
		} else if numRuns == 1 {
			a.Run = firstRun
		} else {
			return a, d.errAt(v.at, "%s: \"run\" is required when the scenario has multiple runs", what)
		}
	default:
		return a, d.errAt(mv.at, "%s: unknown assertion metric %q", what, metric)
	}
	for _, fld := range []struct {
		key string
		dst **float64
	}{{"min", &a.Min}, {"max", &a.Max}} {
		fv := o.get(fld.key)
		if fv == nil {
			continue
		}
		f, err := d.num(fv, fmt.Sprintf("%s %q", what, fld.key))
		if err != nil {
			return a, err
		}
		if math.IsNaN(f) {
			return a, d.errAt(fv.at, "%s %q must not be NaN", what, fld.key)
		}
		val := f
		*fld.dst = &val
	}
	if a.Min == nil && a.Max == nil {
		return a, d.errAt(v.at, "%s must bound the metric with \"min\", \"max\", or both", what)
	}
	if a.Min != nil && a.Max != nil && *a.Min > *a.Max {
		return a, d.errAt(v.at, "%s: \"min\" (%v) exceeds \"max\" (%v)", what, *a.Min, *a.Max)
	}
	return a, o.finish()
}

// refRunMetrics enumerates the per-run assertion metrics: how each name maps
// onto the sim result is documented in DESIGN.md §7.6.
var refRunMetrics = map[string]bool{
	"integrated_penalty":         true,
	"corruption_reports":         true,
	"tickets_opened":             true,
	"links_disabled":             true,
	"undisabled_events":          true,
	"dampened_holds":             true,
	"first_attempt_success_rate": true,
	"mean_attempts":              true,
	"min_worst_tor_fraction":     true,
	"mean_tor_fraction":          true,
	"final_disabled":             true,
	"final_active_corrupting":    true,
	"max_disabled":               true,
	"max_active_corrupting":      true,
	"samples":                    true,
}

// refRatioMetrics enumerates the cross-run ratio metrics.
var refRatioMetrics = map[string]bool{
	"penalty_ratio": true,
	"tickets_ratio": true,
}
