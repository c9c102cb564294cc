// Package topology models multi-stage Clos data center networks: switches
// arranged in stages (ToR at the bottom, spine at the top), bidirectional
// optical links between adjacent stages, pods, and breakout-cable groups.
//
// It provides the structural queries CorrOpt's algorithms are built on:
// valley-free path counting from every ToR to the spine (total and under a
// set of disabled links), and upstream/downstream closures used by the
// optimizer's topology pruning.
//
// A Topology is immutable once built. Mutable link state (enabled/disabled,
// corrupting) lives with the algorithms that own it, so several mitigation
// strategies can be simulated against one topology concurrently.
package topology

import (
	"fmt"
	"math"
	"sort"
)

// SwitchID identifies a switch within one Topology.
type SwitchID int32

// LinkID identifies a bidirectional link within one Topology.
type LinkID int32

// NoSwitch and NoLink are sentinel invalid identifiers.
const (
	NoSwitch SwitchID = -1
	NoLink   LinkID   = -1
)

// Stage is the vertical position of a switch: 0 for ToR, increasing toward
// the spine. The paper's "r tiers above the ToR-level" corresponds to a
// topology whose top stage is r.
type Stage int

// Switch is one network switch. Its links are Topology.Uplinks and
// Topology.Downlinks.
type Switch struct {
	ID SwitchID
	// tor is the switch's position in Topology.ToRs, or -1 above stage 0;
	// it sits in the padding after ID.
	tor   int32
	Name  string
	Stage Stage
	// Pod groups switches that share a pod; -1 for spine switches.
	Pod int
}

// Link is a bidirectional switch-to-switch optical link between adjacent
// stages. Corruption is directional (§3: only 8.2% of corrupting links
// corrupt both ways) but disabling a link always takes down both directions,
// as current hardware cannot run unidirectional links.
type Link struct {
	ID LinkID
	// Lower is the endpoint at the smaller stage, Upper at Lower's stage+1.
	Lower, Upper SwitchID
	// seg is the link's segment (Topology.LinkSegment).
	seg int32
	// BreakoutGroup is a shared breakout-cable identifier: links on the
	// same switch with equal non-negative groups share a physical cable
	// (root cause 5 in §4 takes all of them down together). -1 if none.
	BreakoutGroup int32
}

// Direction selects one of the two directions of a Link.
type Direction int

const (
	// Up is the Lower→Upper direction (toward the spine).
	Up Direction = iota
	// Down is the Upper→Lower direction.
	Down
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Topology is an immutable multi-stage network.
type Topology struct {
	switches []Switch
	links    []Link
	// adj holds every switch's links, switch by switch in id order: its
	// uplinks, then its downlinks, each in link-id order. Switch s's
	// uplinks are adj[off[2s]:off[2s+1]] and its downlinks
	// adj[off[2s+1]:off[2s+2]]; every link appears twice, once per end.
	adj      []LinkID
	off      []int32
	stages   int // number of stages = top stage + 1
	tors     []SwitchID
	spines   []SwitchID
	segments int // number of link segments (see Partition)
	// below is one past the highest id of a ToR or of a switch under the
	// top stage: every switch at or past it sits in the top stage, where
	// each path count is 1, so a PathCounter keeps no count for it.
	below int
	// The path-count skeleton every PathCounter over t shares: the
	// evaluation order (stages top-down) and each switch's path count with
	// every link active.
	order []SwitchID
	total []int64
}

// NumSwitches reports the number of switches.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// NumLinks reports the number of bidirectional links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Stages reports the number of stages (ToR plus r tiers above it gives
// r+1 stages).
func (t *Topology) Stages() int { return t.stages }

// Tiers reports r, the number of tiers above the ToR level, the quantity
// that drives the switch-local checker's sc = c^(1/r) threshold mapping.
func (t *Topology) Tiers() int { return t.stages - 1 }

// Switch returns the switch with the given id. The returned pointer is into
// the topology's storage; callers must not mutate it.
func (t *Topology) Switch(id SwitchID) *Switch { return &t.switches[id] }

// Link returns the link with the given id. The returned pointer is into the
// topology's storage; callers must not mutate it.
func (t *Topology) Link(id LinkID) *Link { return &t.links[id] }

// Uplinks returns the links whose lower endpoint is s, in id order. The
// slice is shared and clipped to its length, so an append copies it rather
// than writing into the next switch's links; callers must not mutate it.
func (t *Topology) Uplinks(s SwitchID) []LinkID {
	lo, hi := t.off[2*s], t.off[2*s+1]
	return t.adj[lo:hi:hi]
}

// Downlinks returns the links whose upper endpoint is s, in id order, shared
// and clipped like Uplinks.
func (t *Topology) Downlinks(s SwitchID) []LinkID {
	lo, hi := t.off[2*s+1], t.off[2*s+2]
	return t.adj[lo:hi:hi]
}

// ToRs returns the stage-0 switches. The returned slice is shared; callers
// must not mutate it.
func (t *Topology) ToRs() []SwitchID { return t.tors }

// ToRIndex returns ToR s's position in ToRs(), or -1 when s is not a ToR.
// Per-ToR state indexed by it holds no slot for the other switches.
func (t *Topology) ToRIndex(s SwitchID) int { return int(t.switches[s].tor) }

// LinkSegment returns the index of link l's segment in Partition(): links
// in different segments share no ToR's upstream cone, so toggling l changes
// path counts only inside its own segment.
func (t *Topology) LinkSegment(l LinkID) int { return int(t.links[l].seg) }

// NumSegments reports how many segments the links fall into; every
// LinkSegment is below it. A topology without links has none.
func (t *Topology) NumSegments() int { return t.segments }

// Spines returns the top-stage switches. The returned slice is shared;
// callers must not mutate it.
func (t *Topology) Spines() []SwitchID { return t.spines }

// Switches calls fn for every switch in id order.
func (t *Topology) Switches(fn func(*Switch)) {
	for i := range t.switches {
		fn(&t.switches[i])
	}
}

// Links calls fn for every link in id order.
func (t *Topology) Links(fn func(*Link)) {
	for i := range t.links {
		fn(&t.links[i])
	}
}

// Opposite returns the switch on the other end of link l from s.
func (t *Topology) Opposite(l LinkID, s SwitchID) SwitchID {
	lk := &t.links[l]
	if lk.Lower == s {
		return lk.Upper
	}
	return lk.Lower
}

// LinksOnSwitch returns all links attached to s, its uplinks then its
// downlinks, in a new slice.
func (t *Topology) LinksOnSwitch(s SwitchID) []LinkID {
	return append([]LinkID(nil), t.adj[t.off[2*s]:t.off[2*s+2]]...)
}

// SameBreakout returns the links that share l's breakout cable, including l
// itself. A link with no breakout group is alone in its cable.
func (t *Topology) SameBreakout(l LinkID) []LinkID {
	lk := &t.links[l]
	if lk.BreakoutGroup < 0 {
		return []LinkID{l}
	}
	var out []LinkID
	for _, cand := range t.LinksOnSwitch(lk.Lower) {
		c := &t.links[cand]
		if c.BreakoutGroup == lk.BreakoutGroup && sharesEndpoint(c, lk) {
			out = append(out, cand)
		}
	}
	return out
}

func sharesEndpoint(a, b *Link) bool {
	return a.Lower == b.Lower || a.Lower == b.Upper || a.Upper == b.Lower || a.Upper == b.Upper
}

// Builder assembles a Topology. It is the low-level construction interface;
// most callers use the Clos or fat-tree generators instead. Builders are not
// safe for concurrent use.
type Builder struct {
	switches []Switch
	links    []Link
	// byName serves AddSwitch's duplicate check; Build drops it.
	byName map[string]SwitchID
	err    error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{byName: make(map[string]SwitchID)}
}

// AddSwitch adds a switch and returns its id. Names must be unique.
func (b *Builder) AddSwitch(name string, stage Stage, pod int) SwitchID {
	if b.err != nil {
		return NoSwitch
	}
	if stage < 0 {
		b.err = fmt.Errorf("topology: switch %q has negative stage %d", name, stage)
		return NoSwitch
	}
	if _, dup := b.byName[name]; dup {
		b.err = fmt.Errorf("topology: duplicate switch name %q", name)
		return NoSwitch
	}
	id := SwitchID(len(b.switches))
	b.switches = append(b.switches, Switch{ID: id, Name: name, Stage: stage, Pod: pod})
	b.byName[name] = id
	return id
}

// AddLink adds a bidirectional link between lower and upper, which must sit
// on adjacent stages (upper one stage above lower). breakoutGroup is -1 for
// links not on a breakout cable, and must fit in an int32.
func (b *Builder) AddLink(lower, upper SwitchID, breakoutGroup int) LinkID {
	if b.err != nil {
		return NoLink
	}
	if int(lower) >= len(b.switches) || int(upper) >= len(b.switches) || lower < 0 || upper < 0 {
		b.err = fmt.Errorf("topology: link endpoints out of range (%d, %d)", lower, upper)
		return NoLink
	}
	lo, up := &b.switches[lower], &b.switches[upper]
	if up.Stage != lo.Stage+1 {
		b.err = fmt.Errorf("topology: link %s(stage %d) -> %s(stage %d) does not connect adjacent stages",
			lo.Name, lo.Stage, up.Name, up.Stage)
		return NoLink
	}
	if breakoutGroup < math.MinInt32 || breakoutGroup > math.MaxInt32 {
		b.err = fmt.Errorf("topology: breakout group %d out of int32 range", breakoutGroup)
		return NoLink
	}
	id := LinkID(len(b.links))
	b.links = append(b.links, Link{ID: id, Lower: lower, Upper: upper, BreakoutGroup: int32(breakoutGroup)})
	return id
}

// Build validates the topology and returns it. After Build the Builder must
// not be reused.
func (b *Builder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.switches) == 0 {
		return nil, fmt.Errorf("topology: no switches")
	}
	// The topology keeps exact-length copies; the builder's append-grown
	// slices and its name index are left to the collector.
	t := &Topology{
		switches: append(make([]Switch, 0, len(b.switches)), b.switches...),
		links:    append(make([]Link, 0, len(b.links)), b.links...),
	}
	t.layOut()
	top := Stage(0)
	for i := range t.switches {
		if s := t.switches[i].Stage; s > top {
			top = s
		}
	}
	t.stages = int(top) + 1
	for i := range t.switches {
		sw := &t.switches[i]
		switch {
		case sw.Stage == 0:
			t.tors = append(t.tors, sw.ID)
		case sw.Stage == top:
			t.spines = append(t.spines, sw.ID)
		}
		if sw.Stage < top && len(t.Uplinks(sw.ID)) == 0 {
			return nil, fmt.Errorf("topology: switch %q at stage %d has no uplinks", sw.Name, sw.Stage)
		}
		if sw.Stage < top || sw.Stage == 0 {
			t.below = i + 1
		}
	}
	if len(t.tors) == 0 {
		return nil, fmt.Errorf("topology: no ToR (stage 0) switches")
	}
	sort.Slice(t.tors, func(i, j int) bool { return t.tors[i] < t.tors[j] })
	sort.Slice(t.spines, func(i, j int) bool { return t.spines[i] < t.spines[j] })
	for i := range t.switches {
		t.switches[i].tor = -1
	}
	for p, tor := range t.tors {
		t.switches[tor].tor = int32(p)
	}
	t.order = make([]SwitchID, 0, len(t.switches))
	for st := top; st >= 0; st-- {
		for i := range t.switches {
			if t.switches[i].Stage == st {
				t.order = append(t.order, SwitchID(i))
			}
		}
	}
	t.total = make([]int64, len(t.switches))
	t.sweep(t.total, nil)
	t.numberSegments()
	return t, nil
}

// layOut fills adj and off from the links. A counting pass sizes every
// run, a prefix sum puts each run's end in off, and a fill in descending
// link-id order walks each run's offset back to its start, so every run
// lists its links in ascending id order.
func (t *Topology) layOut() {
	t.off = make([]int32, 2*len(t.switches)+1)
	for i := range t.links {
		t.off[2*t.links[i].Lower]++
		t.off[2*t.links[i].Upper+1]++
	}
	for i := 1; i < len(t.off); i++ {
		t.off[i] += t.off[i-1]
	}
	t.adj = make([]LinkID, 2*len(t.links))
	for i := len(t.links) - 1; i >= 0; i-- {
		lk := &t.links[i]
		for _, run := range [2]int32{2 * int32(lk.Lower), 2*int32(lk.Upper) + 1} {
			t.off[run]--
			t.adj[t.off[run]] = lk.ID
		}
	}
}

// numberSegments sets every link's segment: two links share one iff they
// are joined through switches below the top stage. Top-stage switches do
// not join — valley-free paths end there, so two pods hanging off the same
// spine stay separate segments. Segments are numbered by ascending smallest
// member link, so the numbering is a pure function of the topology.
func (t *Topology) numberSegments() {
	// Union-find over links, each switch below the top joining its links
	// to its first one; roots are the smallest member.
	parent := make([]int32, len(t.links))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	top := Stage(t.stages - 1)
	for i := range t.switches {
		sw := &t.switches[i]
		if sw.Stage == top {
			continue
		}
		first := int32(-1)
		for _, l := range t.adj[t.off[2*i]:t.off[2*i+2]] {
			if first < 0 {
				first = find(int32(l))
				continue
			}
			if r := find(int32(l)); r != first {
				parent[max(r, first)] = min(r, first)
				first = min(r, first)
			}
		}
	}
	// A root precedes the rest of its segment, so one ascending pass
	// numbers each root before any link points at it.
	for i := range t.links {
		if r := find(int32(i)); r == int32(i) {
			t.links[i].seg = int32(t.segments)
			t.segments++
		} else {
			t.links[i].seg = t.links[r].seg
		}
	}
}
