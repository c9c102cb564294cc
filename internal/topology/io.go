package topology

import (
	"encoding/json"
	"fmt"
	"io"
)

// The wire format is a plain JSON document so topologies can be shared with
// external tooling and checked into test fixtures.

type wireTopology struct {
	Switches []wireSwitch `json:"switches"`
	Links    []wireLink   `json:"links"`
}

type wireSwitch struct {
	Name  string `json:"name"`
	Stage int    `json:"stage"`
	Pod   int    `json:"pod"`
}

type wireLink struct {
	Lower         string `json:"lower"`
	Upper         string `json:"upper"`
	BreakoutGroup int    `json:"breakout_group"`
}

// WriteTo serializes the topology as JSON.
func (t *Topology) WriteTo(w io.Writer) (int64, error) {
	var wt wireTopology
	t.Switches(func(s *Switch) {
		wt.Switches = append(wt.Switches, wireSwitch{Name: s.Name, Stage: int(s.Stage), Pod: s.Pod})
	})
	t.Links(func(l *Link) {
		wt.Links = append(wt.Links, wireLink{
			Lower:         t.Switch(l.Lower).Name,
			Upper:         t.Switch(l.Upper).Name,
			BreakoutGroup: int(l.BreakoutGroup),
		})
	})
	cw := &countingWriter{w: w}
	enc := json.NewEncoder(cw)
	if err := enc.Encode(wt); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// Read parses a topology from its JSON serialization.
func Read(r io.Reader) (*Topology, error) {
	var wt wireTopology
	if err := json.NewDecoder(r).Decode(&wt); err != nil {
		return nil, fmt.Errorf("topology: decode: %w", err)
	}
	b := NewBuilder()
	ids := make(map[string]SwitchID, len(wt.Switches))
	for _, s := range wt.Switches {
		ids[s.Name] = b.AddSwitch(s.Name, Stage(s.Stage), s.Pod)
	}
	for _, l := range wt.Links {
		lo, ok := ids[l.Lower]
		if !ok {
			return nil, fmt.Errorf("topology: link references unknown switch %q", l.Lower)
		}
		up, ok := ids[l.Upper]
		if !ok {
			return nil, fmt.Errorf("topology: link references unknown switch %q", l.Upper)
		}
		b.AddLink(lo, up, l.BreakoutGroup)
	}
	return b.Build()
}

// WriteDOT renders the topology in Graphviz DOT form, stages as ranks,
// for quick visual inspection of generated fabrics. disabled, if non-nil,
// draws administratively-down links dashed and red.
func (t *Topology) WriteDOT(w io.Writer, disabled DisabledFunc) error {
	cw := &countingWriter{w: w}
	fmt.Fprintln(cw, "graph dcn {")
	fmt.Fprintln(cw, "  rankdir=BT;")
	byStage := make([][]string, t.Stages())
	t.Switches(func(s *Switch) {
		byStage[s.Stage] = append(byStage[s.Stage], s.Name)
	})
	for st, names := range byStage {
		fmt.Fprintf(cw, "  { rank=same; // stage %d\n", st)
		for _, n := range names {
			fmt.Fprintf(cw, "    %q;\n", n)
		}
		fmt.Fprintln(cw, "  }")
	}
	var err error
	t.Links(func(l *Link) {
		attrs := ""
		if disabled != nil && disabled(l.ID) {
			attrs = ` [style=dashed, color=red]`
		}
		if _, werr := fmt.Fprintf(cw, "  %q -- %q%s;\n",
			t.Switch(l.Lower).Name, t.Switch(l.Upper).Name, attrs); werr != nil {
			err = werr
		}
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(cw, "}")
	return err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
