package scenario

import (
	"fmt"
	"math"
	"slices"
	"time"

	"corropt/internal/core"
	"corropt/internal/faults"
)

// Parse parses, validates, and default-fills a scenario document. file is
// used only for error positions ("file:line:col: msg"). The grammar is
// strict: unknown fields, duplicate keys, wrong types, bad enum values,
// events before t=0, event schedules that run past the largest
// time.Duration, and assertions on unknown metrics or runs are all rejected
// with a position-bearing *Error (and a nil Scenario). The returned Scenario
// has every default filled in.
//
// The field tables below are the format's one definition: each object's
// fields, in the order they are checked, with their kinds, bounds and
// defaults (the struct each table fills starts from them).
func Parse(data []byte, file string) (*Scenario, error) {
	root, err := parseTree(data, file)
	if err != nil {
		return nil, err
	}
	d := &decoder{file: file}
	return d.scenario(root)
}

func (d *decoder) scenario(root *value) (*Scenario, error) {
	s := &Scenario{SampleInterval: time.Hour, Seed: 1}
	labels, seenLabels := eventLabels(root.field("events")), make(map[string]bool)
	runNames := make(map[string]bool)
	err := d.fields(root, "scenario", "",
		field{key: "version", kind: kInt, req: true, lo: Version, hi: Version, dst: &s.Version,
			bad: fmt.Sprintf("unsupported scenario version {got} (this build reads version %d)", Version)},
		field{key: "name", kind: kName, req: true, dst: &s.Name},
		field{key: "description", kind: kStr, dst: &s.Description},
		field{key: "seed", kind: kUint, dst: &s.Seed},
		field{key: "horizon", kind: kPosDur, req: true, dst: &s.Horizon},
		field{key: "sample_interval", kind: kPosDur, dst: &s.SampleInterval},
		field{key: "topology", kind: kFunc, req: true, fn: func(v *value, what string) error {
			t := &s.Topology
			dim := func(key string, lo float64, dst *int) field {
				return field{key: key, kind: kInt, req: true, lo: lo, dst: dst}
			}
			return d.fields(v, what, "topology", field{key: "kind", kind: kTag, req: true, dst: &t.Kind,
				bad: `unknown topology kind {got} (want "clos" or "fattree")`,
				variants: map[string][]field{
					"clos": {dim("pods", 1, &t.Pods), dim("tors_per_pod", 1, &t.ToRsPerPod),
						dim("aggs_per_pod", 1, &t.AggsPerPod), dim("spines", 1, &t.Spines),
						dim("spine_uplinks_per_agg", 1, &t.SpineUplinksPerAgg), dim("breakout_size", 1, &t.BreakoutSize)},
					"fattree": {dim("k", 2, &t.K)},
				}})
		}},
		field{key: "chaos", kind: kFunc, fn: func(v *value, what string) (err error) {
			s.Chaos, err = d.chaos(v, what)
			return err
		}},
		field{key: "events", kind: kList, fn: func(v *value, what string) error {
			ev, err := d.event(v, what, labels, seenLabels)
			s.Events = append(s.Events, ev)
			return err
		}},
		field{key: "runs", kind: kList, req: true, lo: 1, bad: "{field} must name at least one run",
			fn: func(v *value, what string) error {
				r, err := d.run(v, what, s.Seed)
				if err == nil && runNames[r.Name] {
					err = d.errAt(v.at, "duplicate run name %q", r.Name)
				}
				runNames[r.Name] = true
				s.Runs = append(s.Runs, r)
				return err
			}},
		field{key: "assertions", kind: kList, fn: func(v *value, what string) error {
			a, err := d.assertion(v, what, s.Runs, runNames)
			s.Assertions = append(s.Assertions, a)
			return err
		}},
	)
	if err == nil {
		err = d.schedule(root.field("events"), s.Events)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (d *decoder) chaos(v *value, what string) (*Chaos, error) {
	c := &Chaos{Stream: "chaos"}
	return c, d.fields(v, what, "chaos",
		field{key: "stream", kind: kStream, dst: &c.Stream},
		field{key: "faults_per_link_per_day", kind: kPositive, req: true, dst: &c.FaultsPerLinkPerDay},
		field{key: "max_rate", kind: kFrac, lo: 1e-9, hi: 1, dst: &c.MaxRate},
		field{key: "shared_min_links", kind: kInt, lo: 2, dst: &c.SharedMinLinks},
		field{key: "shared_max_links", kind: kFunc, fn: func(v *value, what string) (err error) {
			lo := max(c.SharedMinLinks, 2)
			if c.SharedMaxLinks, err = d.integer(v, what); err == nil && c.SharedMaxLinks < lo {
				err = d.errAt(v.at, "%s must be >= shared_min_links (%d), got %d", what, lo, c.SharedMaxLinks)
			}
			return err
		}},
	)
}

// singleLinkCauses are the causes a corrupt event may name: all but the
// shared component, whose faults span a breakout group.
var singleLinkCauses = slices.DeleteFunc(faults.CauseNames(), func(name string) bool {
	return name == faults.SharedComponent.String()
})

// eventLabels collects every event's "id" before any event decodes, so a
// repair may target an event declared after it.
func eventLabels(events *value) map[string]bool {
	labels := make(map[string]bool)
	if events != nil {
		for _, item := range events.items {
			if id := item.field("id"); id != nil && id.kind == vStr {
				labels[id.str] = true
			}
		}
	}
	return labels
}

// event decodes one schedule entry; its "kind" selects the rest of its
// table.
func (d *decoder) event(v *value, what string, labels, seenLabels map[string]bool) (Event, error) {
	ev := Event{Direction: "up"}
	at := field{key: "at", kind: kTime, req: true, dst: &ev.At}
	start := field{key: "start", kind: kTime, req: true, dst: &ev.Start}
	link := field{key: "link", kind: kInt, req: true, dst: &ev.Link}
	rate := field{key: "rate", kind: kRate, req: true, dst: &ev.Rate}
	dir := field{key: "direction", kind: kOneOf, names: []string{"up", "down", "both"}, dst: &ev.Direction}
	id := field{key: "id", kind: kName, dst: &ev.Label, check: func(v *value, idWhat string) error {
		if seenLabels[ev.Label] {
			return d.errAt(v.at, "%s %q already used by an earlier event", idWhat, ev.Label)
		}
		seenLabels[ev.Label] = true
		return nil
	}}
	err := d.fields(v, what, what, field{key: "kind", kind: kTag, req: true, dst: &ev.Kind,
		bad: "{obj}: unknown event kind {got}",
		variants: map[string][]field{
			EventCorrupt: {at, link, rate, dir, id, {key: "cause", kind: kOneOf, names: singleLinkCauses,
				bad: "{obj}: unknown cause {got} (single-link causes only)", dst: &ev.Cause}},
			EventRepair: {at, {key: "target", kind: kStr, req: true, dst: &ev.Target, check: func(v *value, _ string) error {
				if !labels[ev.Target] {
					return d.errAt(v.at, "%s: repair targets unknown event id %q", what, ev.Target)
				}
				return nil
			}}},
			EventFlap: {link, rate, dir, start,
				{key: "count", kind: kInt, req: true, lo: 1, hi: 10000, dst: &ev.Count},
				{key: "up", kind: kPosDur, req: true, dst: &ev.Up},
				{key: "down", kind: kPosDur, req: true, dst: &ev.Down}},
			EventRamp: {link, dir, start,
				{key: "duration", kind: kPosDur, req: true, dst: &ev.Duration},
				{key: "steps", kind: kInt, req: true, lo: 2, hi: 1000, dst: &ev.Steps},
				{key: "from", kind: kRate, req: true, dst: &ev.From},
				{key: "to", kind: kRate, req: true, dst: &ev.To}},
			EventBreakout: {at, link, rate, dir, id},
		}})
	if ev.Kind == EventCorrupt && ev.Cause == "" {
		ev.Cause = faults.BadTransceiver.String()
	}
	return ev, err
}

// schedule rejects an event that Compile would expand past the largest
// time.Duration, where its times wrap to before t=0: a flap's start +
// count·(up+down), or a ramp's start + duration. It runs once the whole
// document has decoded; events is the array the schedule came from.
func (d *decoder) schedule(events *value, schedule []Event) error {
	const end = time.Duration(math.MaxInt64)
	for i, ev := range schedule {
		var span string
		switch {
		case ev.Kind == EventFlap && (ev.Up > end-ev.Down || time.Duration(ev.Count) > (end-ev.Start)/(ev.Up+ev.Down)):
			span = `"start" + "count" * ("up" + "down")`
		case ev.Kind == EventRamp && ev.Duration > end-ev.Start:
			span = `"start" + "duration"`
		default:
			continue
		}
		return d.errAt(events.items[i].at, "events[%d]: %s ends past the largest representable time (%s overflows)", i, ev.Kind, span)
	}
	return nil
}

func (d *decoder) run(v *value, what string, seed uint64) (Run, error) {
	r := Run{Capacity: 0.75, DetectionThreshold: 1e-6, RepairMode: "fixed", Accuracy: 0.8, ServiceTime: 48 * time.Hour, Seed: seed}
	err := d.fields(v, what, what,
		field{key: "name", kind: kName, req: true, dst: &r.Name},
		field{key: "policy", kind: kOneOf, req: true, names: core.PolicyNames(), dst: &r.Policy,
			bad: "{obj}: unknown policy {got} (want {want})"},
		field{key: "capacity", kind: kFrac, lo: 1e-9, hi: 1, dst: &r.Capacity},
		field{key: "detection_threshold", kind: kFrac, lo: 1e-12, hi: 1, dst: &r.DetectionThreshold},
		field{key: "detection_delay", kind: kDur, dst: &r.DetectionDelay},
		field{key: "repair_mode", kind: kOneOf, names: []string{"fixed", "recommendation"}, dst: &r.RepairMode},
		field{key: "accuracy", kind: kFrac, lo: 1e-9, hi: 1, dst: &r.Accuracy},
		field{key: "ignore_prob", kind: kFrac, hi: 1, dst: &r.IgnoreProb},
		field{key: "deployed_engine", kind: kBool, dst: &r.DeployedEngine},
		field{key: "no_optics_fraction", kind: kFrac, hi: 1, dst: &r.NoOpticsFraction},
		field{key: "drain_mode", kind: kBool, dst: &r.DrainMode},
		field{key: "repair_collateral", kind: kBool, dst: &r.RepairCollateral},
		field{key: "service_time", kind: kPosDur, dst: &r.ServiceTime},
		field{key: "technicians", kind: kInt, dst: &r.Technicians},
		field{key: "seed", kind: kUint, dst: &r.Seed},
		field{key: "dampening", kind: kFunc, fn: func(v *value, what string) error {
			r.Dampening = &Dampening{}
			return d.fields(v, what, what,
				field{key: "window", kind: kPosDur, req: true, dst: &r.Dampening.Window},
				field{key: "flaps", kind: kInt, req: true, lo: 1, dst: &r.Dampening.Flaps},
				field{key: "holddown", kind: kPosDur, req: true, dst: &r.Dampening.Holddown})
		}},
	)
	return r, err
}

// assertion decodes one check. Its metric decides whether it names one run
// or a [numerator, denominator] pair of runs.
func (d *decoder) assertion(v *value, what string, runs []Run, runNames map[string]bool) (Assertion, error) {
	var a Assertion
	known := func(v *value, name string) error {
		if !runNames[name] {
			return d.errAt(v.at, "%s references unknown run %q", what, name)
		}
		return nil
	}
	o, err := d.object(v, what, what)
	if err == nil {
		err = o.walk(field{key: "metric", kind: kStr, req: true, dst: &a.Metric})
	}
	if err != nil {
		return a, err
	}
	m, ok := metrics[a.Metric]
	switch {
	case !ok:
		return a, d.errAt(v.field("metric").at, "%s: unknown assertion metric %q", what, a.Metric)
	case m.ratio:
		err = o.walk(field{key: "runs", kind: kFunc, req: true, fn: func(v *value, pairWhat string) error {
			if v.kind != vArr || len(v.items) != 2 {
				return d.errAt(v.at, "%s must be a [numerator, denominator] pair of run names", pairWhat)
			}
			for j, item := range v.items {
				err := d.expect(item, pairWhat+" entry", vStr, "a string")
				if err == nil {
					a.Runs[j], err = item.str, known(item, item.str)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}})
	default:
		err = o.walk(field{key: "run", kind: kStr, dst: &a.Run, check: func(v *value, _ string) error {
			return known(v, a.Run)
		}})
		if err == nil && a.Run == "" {
			if len(runs) > 1 {
				return a, d.errAt(v.at, `%s: "run" is required when the scenario has multiple runs`, what)
			}
			a.Run = runs[0].Name
		}
	}
	if err == nil {
		err = o.walk(field{key: "min", kind: kBound, dst: &a.Min}, field{key: "max", kind: kBound, dst: &a.Max})
	}
	switch {
	case err != nil:
	case a.Min == nil && a.Max == nil:
		err = d.errAt(v.at, `%s must bound the metric with "min", "max", or both`, what)
	case a.Min != nil && a.Max != nil && *a.Min > *a.Max:
		err = d.errAt(v.at, `%s: "min" (%v) exceeds "max" (%v)`, what, *a.Min, *a.Max)
	default:
		err = o.finish()
	}
	return a, err
}
