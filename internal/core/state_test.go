package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"corropt/internal/topology"
)

func TestStateRoundTrip(t *testing.T) {
	topo := smallClos(t)
	n, _ := NewNetwork(topo, 0.5)
	n.Disable(1)
	n.Disable(3)
	n.SetCorruption(1, 1e-3)
	n.SetCorruption(5, 1e-4)
	tor := topo.ToRs()[0]
	if err := n.SetToRConstraint(tor, 0.9); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := n.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	// A freshly built network over the same topology resumes identically.
	m, _ := NewNetwork(topo, 0.5)
	if err := m.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < topo.NumLinks(); l++ {
		id := topology.LinkID(l)
		if m.Disabled(id) != n.Disabled(id) {
			t.Fatalf("link %d disabled state differs", l)
		}
		if m.CorruptionRate(id) != n.CorruptionRate(id) {
			t.Fatalf("link %d rate differs", l)
		}
	}
	if m.Constraint(tor) != 0.9 {
		t.Fatalf("constraint = %v", m.Constraint(tor))
	}
}

func TestLoadStateClearsPrevious(t *testing.T) {
	topo := smallClos(t)
	n, _ := NewNetwork(topo, 0.5)
	var empty bytes.Buffer
	if err := n.SaveState(&empty); err != nil {
		t.Fatal(err)
	}
	m, _ := NewNetwork(topo, 0.5)
	m.Disable(2)
	m.SetCorruption(2, 1e-2)
	if err := m.LoadState(&empty); err != nil {
		t.Fatal(err)
	}
	if m.Disabled(2) || m.CorruptionRate(2) != 0 {
		t.Fatal("LoadState did not replace prior state")
	}
}

func TestLoadStateRejectsWrongTopology(t *testing.T) {
	topo := smallClos(t)
	n, _ := NewNetwork(topo, 0.5)
	var buf bytes.Buffer
	if err := n.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewNetwork(other, 0.5)
	if err := m.LoadState(&buf); err == nil {
		t.Fatal("state for a different topology accepted")
	}
}

func TestLoadStateRejectsGarbage(t *testing.T) {
	topo := smallClos(t)
	n, _ := NewNetwork(topo, 0.5)
	cases := []string{
		`{not json`,
		`{"fingerprint":1}`,
	}
	for i, c := range cases {
		if err := n.LoadState(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Valid fingerprint but invalid contents.
	var buf bytes.Buffer
	n.SaveState(&buf)
	s := strings.Replace(buf.String(), `"disabled": null`, `"disabled": [99999]`, 1)
	if err := n.LoadState(strings.NewReader(s)); err == nil {
		t.Error("out-of-range link id accepted")
	}
}

// TestLoadStateRejectsBadConstraint holds LoadState's constraint names to
// the topology's ToRs: a name no switch has, or the name of a switch above
// stage 0, is an error naming it, and a ToR's name restores its constraint.
func TestLoadStateRejectsBadConstraint(t *testing.T) {
	topo := smallClos(t)
	n, _ := NewNetwork(topo, 0.5)
	var buf bytes.Buffer
	if err := n.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	agg := topo.Link(topo.Uplinks(topo.ToRs()[0])[0]).Upper
	tor := topo.ToRs()[len(topo.ToRs())-1]
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"no-such-switch", false},
		{topo.Switch(agg).Name, false},
		{topo.Switch(tor).Name, true},
	} {
		var sf stateFile
		if err := json.Unmarshal(saved, &sf); err != nil {
			t.Fatal(err)
		}
		sf.Constraints[c.name] = 0.9
		b, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := NewNetwork(topo, 0.5)
		err = m.LoadState(bytes.NewReader(b))
		switch {
		case c.ok && err != nil:
			t.Errorf("constraint on ToR %q: %v", c.name, err)
		case c.ok && m.Constraint(tor) != 0.9:
			t.Errorf("constraint on ToR %q restored as %v, want 0.9", c.name, m.Constraint(tor))
		case !c.ok && (err == nil || !strings.Contains(err.Error(), c.name)):
			t.Errorf("constraint on %q: err = %v, want one naming it", c.name, err)
		}
	}
}
