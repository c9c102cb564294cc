// Package fleet shards the corruption-mitigation controller across many data
// center networks. It turns the paper's §8 topology segmentation into a
// sharding axis: every DCN is partitioned into cone-closed segments, each
// ToR-bearing segment (with any ToR-less orphan segments glued to it) is one
// shard, and each shard runs its own core.Network, core.Engine and
// core.RepairLoop over a standalone sub-topology. A supervisor routes events
// to shards by link ownership, drains the shards on the worker pool, and
// sums across them: tickets, penalty and capacity headroom.
//
// For a fixed event sequence, Snapshot output is byte-identical for any
// worker count and flush batching: by the segment boundary invariant a
// shard's path counts are exact, and every float is summed in shard order.
package fleet

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"corropt/internal/core"
	"corropt/internal/runner"
	"corropt/internal/topology"
)

// DCN is one data center network in the fleet.
type DCN struct {
	// Name labels the DCN in snapshots; defaults to "dcn<i>".
	Name string
	// Topo is the DCN's topology. Several DCNs may share one *Topology;
	// partitioning and sub-topology construction are then shared too.
	Topo *topology.Topology
}

// Config parameterizes a Supervisor. Every shard runs the CorrOpt policy
// at core.DefaultDetectionThreshold and scores its penalty with
// core.LinearPenalty.
type Config struct {
	// Workers bounds the Flush fan-out; zero or negative means
	// runtime.NumCPU. Byte-identical output for every value.
	Workers int
	// Capacity is the per-ToR capacity constraint c (fraction of
	// ToR→spine paths that must survive). Defaults to 0.75.
	Capacity float64
}

func (c *Config) fillDefaults() {
	if c.Capacity == 0 {
		c.Capacity = 0.75
	}
}

// EventKind is core's input kind; a fleet routes two of them.
type EventKind = core.InputKind

const (
	// Corruption reports a link's current worst-direction corruption
	// rate (a rate of zero clears a previous report).
	Corruption = core.InputReport
	// Repair reports a finished repair and the rate it left: a link the
	// controller had disabled returns to service, and a fixed one (rate
	// under the threshold) has its freed capacity re-optimized.
	Repair = core.InputRepaired
)

// Event is one fleet input: a corruption report or a completed repair on one
// link of one DCN. Events must be routed in nondecreasing At order.
type Event struct {
	At   time.Duration
	DCN  int
	Link topology.LinkID // in the DCN's own link-id space
	Kind EventKind
	Rate float64 // worst-direction corruption rate; zero for a fixed link
}

// Supervisor owns a fleet of per-unit shards and aggregates across them.
// Methods must not be called concurrently; the parallelism is internal to
// Flush.
type Supervisor struct {
	cfg    Config
	dcns   []DCN
	shards []*shard

	// sets[d] is DCN d's shape cut into units, which routes its links;
	// shared by every DCN of one shape. dcnShards[d] is the contiguous
	// [lo, hi) range of d's shards.
	sets      []*shardSet
	dcnShards [][2]int

	pending  int
	segments int
	links    int
	tors     int

	// Cumulative event tallies, merged from shards at Flush.
	totals shardStats
	perDCN []shardStats
}

// New builds a Supervisor over the given DCNs. Identical *Topology values
// are partitioned and routed once, into one shared shardSet.
func New(dcns []DCN, cfg Config) (*Supervisor, error) {
	if len(dcns) == 0 {
		return nil, fmt.Errorf("fleet: no DCNs")
	}
	cfg.fillDefaults()

	s := &Supervisor{
		cfg:       cfg,
		dcns:      slices.Clone(dcns),
		sets:      make([]*shardSet, len(dcns)),
		dcnShards: make([][2]int, len(dcns)),
		perDCN:    make([]shardStats, len(dcns)),
	}
	for i := range s.dcns {
		d := &s.dcns[i]
		if d.Topo == nil {
			return nil, fmt.Errorf("fleet: DCN %d has no topology", i)
		}
		if d.Name == "" {
			d.Name = fmt.Sprintf("dcn%d", i)
		}
		// Cut every distinct topology once. A plain slice scan keeps the
		// memo deterministic and cheap: fleets have few distinct shapes.
		var set *shardSet
		var err error
		if j := slices.IndexFunc(s.sets[:i], func(o *shardSet) bool { return o.topo == d.Topo }); j >= 0 {
			set = s.sets[j]
		} else if set, err = newShardSet(d.Topo); err != nil {
			return nil, fmt.Errorf("fleet: DCN %s: %w", d.Name, err)
		}
		lo := len(s.shards)
		for _, sub := range set.subs {
			sh, err := newShard(i, sub, &cfg)
			if err != nil {
				return nil, fmt.Errorf("fleet: DCN %s: %w", d.Name, err)
			}
			s.shards = append(s.shards, sh)
		}
		s.sets[i] = set
		s.dcnShards[i] = [2]int{lo, len(s.shards)}
		s.links += d.Topo.NumLinks()
		s.tors += len(d.Topo.ToRs())
		s.segments += d.Topo.NumSegments()
	}
	return s, nil
}

// Route validates ev and queues it on the owning shard. Events must arrive
// in nondecreasing At order.
//
//lint:hotpath per-event fleet ingress
func (s *Supervisor) Route(ev Event) error {
	if ev.DCN < 0 || ev.DCN >= len(s.dcns) {
		//lint:allow escapes error construction on the reject path only
		return fmt.Errorf("fleet: event for unknown DCN %d", ev.DCN)
	}
	if ev.Link < 0 || int(ev.Link) >= s.dcns[ev.DCN].Topo.NumLinks() {
		//lint:allow escapes error construction on the reject path only
		return fmt.Errorf("fleet: event for unknown link %d in DCN %s", ev.Link, s.dcns[ev.DCN].Name)
	}
	if ev.Kind != Corruption && ev.Kind != Repair {
		//lint:allow escapes error construction on the reject path only
		return fmt.Errorf("fleet: unknown event kind %d", ev.Kind)
	}
	//lint:allow escapes CheckRate, inlined here, builds its error on the reject path only
	if err := core.CheckRate(ev.Rate); err != nil {
		//lint:allow escapes error construction on the reject path only
		return fmt.Errorf("fleet: %w", err)
	}
	set := s.sets[ev.DCN]
	sh := s.shards[s.dcnShards[ev.DCN][0]+int(set.shardOf[ev.Link])]
	sh.pending = append(sh.pending, core.Input{At: ev.At, Link: set.localOf[ev.Link], Kind: ev.Kind, Rate: ev.Rate})
	s.pending++
	return nil
}

// Ingest routes a batch of events.
func (s *Supervisor) Ingest(evs []Event) error {
	for _, ev := range evs {
		if err := s.Route(ev); err != nil {
			return err
		}
	}
	return nil
}

// Flush drains every shard's pending events through its engine and repair
// loop, fanned out over the worker pool, each shard touching only its own
// state.
func (s *Supervisor) Flush() error {
	if err := runner.ForEach(s.cfg.Workers, len(s.shards), func(i int) error {
		return s.shards[i].drain()
	}); err != nil {
		return err
	}
	s.pending = 0

	for _, sh := range s.shards {
		s.perDCN[sh.dcn].add(sh.stats)
		s.totals.add(sh.stats)
		sh.stats = shardStats{}
	}
	return nil
}

// Pending reports the number of routed-but-not-yet-flushed events.
func (s *Supervisor) Pending() int { return s.pending }

// Disabled returns the links the fleet currently has disabled in the given
// DCN, ascending, in the DCN's own link-id space.
func (s *Supervisor) Disabled(dcn int) []topology.LinkID {
	var out []topology.LinkID
	lo, hi := s.dcnShards[dcn][0], s.dcnShards[dcn][1]
	for _, sh := range s.shards[lo:hi] {
		sh.net.DisabledLinks().Each(func(l topology.LinkID) {
			out = append(out, sh.sub.Links[l])
		})
	}
	slices.Sort(out)
	return out
}

// Headroom aggregates capacity-constraint headroom across the fleet: the
// minimum and mean surviving-path fraction over every ToR, and the number of
// ToRs currently violating their constraint. Each ToR's fraction and status
// are its shard Network's, by core's rule.
func (s *Supervisor) Headroom() (minFrac, meanFrac float64, violated int) {
	minFrac = 1.0
	sum := 0.0
	for _, sh := range s.shards {
		for _, tor := range sh.sub.Topo.ToRs() {
			frac := sh.net.ToRFraction(tor)
			if frac < minFrac {
				minFrac = frac
			}
			sum += frac
			if !sh.net.ToRMeets(tor) {
				violated++
			}
		}
	}
	if s.tors > 0 {
		meanFrac = sum / float64(s.tors)
	}
	return minFrac, meanFrac, violated
}

// DCNStat is one DCN's slice of a Snapshot.
type DCNStat struct {
	Name                   string
	Links, Segments, ToRs  int
	Corruptions, Repairs   int
	Disabled, Blocked      int
	ReoptDisabled, Cleared int
	DisabledNow            int
	Penalty                float64
}

// Snapshot is a deterministic summary of the fleet's state. It contains no
// worker-count-dependent fields: the segment count is a property of the
// topologies, and every float aggregates in shard order.
type Snapshot struct {
	DCNs, Links, ToRs, Segments int

	Events, Corruptions, Repairs int
	Disabled, Blocked            int
	ReoptDisabled, Cleared       int

	TicketsOpened, TicketsResolved, TicketsOpen int

	DisabledNow  int
	PenaltySum   float64
	MinFraction  float64
	MeanFraction float64
	ViolatedToRs int

	PerDCN []DCNStat
}

// Snapshot summarizes the fleet. Pending (unflushed) events are not
// reflected; call Flush first.
func (s *Supervisor) Snapshot() Snapshot {
	snap := Snapshot{
		DCNs:          len(s.dcns),
		Links:         s.links,
		ToRs:          s.tors,
		Segments:      s.segments,
		Events:        s.totals.corruptions + s.totals.repairs,
		Corruptions:   s.totals.corruptions,
		Repairs:       s.totals.repairs,
		Disabled:      s.totals.disabled,
		Blocked:       s.totals.blocked,
		ReoptDisabled: s.totals.reoptDisabled,
		Cleared:       s.totals.cleared,
		PerDCN:        make([]DCNStat, len(s.dcns)),
	}
	for _, sh := range s.shards {
		ts := sh.loop.TicketStats()
		snap.TicketsOpened += ts.Resolved + ts.Open
		snap.TicketsResolved += ts.Resolved
		snap.TicketsOpen += ts.Open
	}
	snap.MinFraction, snap.MeanFraction, snap.ViolatedToRs = s.Headroom()
	for i := range s.dcns {
		st := &snap.PerDCN[i]
		st.Name = s.dcns[i].Name
		st.Links = s.dcns[i].Topo.NumLinks()
		st.ToRs = len(s.dcns[i].Topo.ToRs())
		st.Corruptions = s.perDCN[i].corruptions
		st.Repairs = s.perDCN[i].repairs
		st.Disabled = s.perDCN[i].disabled
		st.Blocked = s.perDCN[i].blocked
		st.ReoptDisabled = s.perDCN[i].reoptDisabled
		st.Cleared = s.perDCN[i].cleared
		lo, hi := s.dcnShards[i][0], s.dcnShards[i][1]
		for _, sh := range s.shards[lo:hi] {
			st.Segments += sh.sub.Topo.NumSegments()
			st.DisabledNow += sh.net.NumDisabled()
			// Summed from the network state at read time, so the float
			// depends only on the shard's current state, not on worker
			// count or flush batching.
			st.Penalty += sh.net.TotalPenalty(core.LinearPenalty)
		}
		snap.DisabledNow += st.DisabledNow
		snap.PenaltySum += st.Penalty
	}
	return snap
}

// String renders the snapshot as a stable multi-line summary; equal
// snapshots render to equal bytes.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d DCNs, %d links, %d ToRs, %d segments\n",
		s.DCNs, s.Links, s.ToRs, s.Segments)
	fmt.Fprintf(&b, "events: %d routed (%d corruption, %d repair); %d disabled, %d capacity-blocked, %d re-optimized, %d cleared\n",
		s.Events, s.Corruptions, s.Repairs, s.Disabled, s.Blocked, s.ReoptDisabled, s.Cleared)
	fmt.Fprintf(&b, "tickets: %d opened, %d resolved, %d open\n",
		s.TicketsOpened, s.TicketsResolved, s.TicketsOpen)
	fmt.Fprintf(&b, "state: %d links down, penalty %.6g, ToR fraction min %.6g mean %.6g (%d violated)\n",
		s.DisabledNow, s.PenaltySum, s.MinFraction, s.MeanFraction, s.ViolatedToRs)
	for _, d := range s.PerDCN {
		fmt.Fprintf(&b, "  %s: links=%d segs=%d tors=%d corr=%d rep=%d disabled=%d blocked=%d reopt=%d cleared=%d down=%d penalty=%.6g\n",
			d.Name, d.Links, d.Segments, d.ToRs, d.Corruptions, d.Repairs,
			d.Disabled, d.Blocked, d.ReoptDisabled, d.Cleared, d.DisabledNow, d.Penalty)
	}
	return b.String()
}
