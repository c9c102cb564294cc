// Package fleet shards the corruption-mitigation controller across many data
// center networks at once. It promotes the paper's §8 topology segmentation
// (the trick that made CorrOpt tractable on 15 production DCNs) into a
// static sharding axis: every DCN is partitioned into cone-closed segments
// (topology.Partition), segments are packed into shards, and each shard owns
// a standalone sub-topology with its own core.Network, incremental path
// counter and core.Engine. A supervisor routes corruption events to shards
// by link ownership, fans shard drains out on internal/runner, and owns
// every cross-segment invariant: the global ticket queue, the fleet-wide
// penalty sum, and capacity-constraint headroom aggregation.
//
// The determinism contract matches the rest of the repository: for a fixed
// event sequence, Snapshot output is byte-identical for any shard count and
// any worker count. Shard-locality makes that cheap to guarantee — the
// segment boundary invariant (a ToR's valley-free path counts depend only on
// links in its own segment) means shard-local Apply/Revert deltas are exact,
// and every float is summed per segment, in global segment order, no matter
// how segments are packed into shards.
package fleet

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"corropt/internal/core"
	"corropt/internal/faults"
	"corropt/internal/runner"
	"corropt/internal/tickets"
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

// Config parameterizes a Supervisor.
type Config struct {
	// Shards is the target number of shards across the whole fleet. It is
	// approximate: shards never span DCNs and never split a segment, so
	// each DCN gets a proportional share of at least one. Zero or
	// negative means one shard per segment (maximum parallelism). The
	// shard count is a packing knob only — Snapshot output is
	// byte-identical for every value.
	Shards int
	// Workers bounds the Flush fan-out; zero or negative means
	// runtime.NumCPU. Byte-identical output for every value.
	Workers int
	// Capacity is the per-ToR capacity constraint c (fraction of
	// ToR→spine paths that must survive). Defaults to 0.75.
	Capacity float64
	// Threshold is the corruption rate at or above which a link should be
	// disabled. Defaults to core.DefaultDetectionThreshold.
	Threshold float64
	// Penalty scores a corrupting link left enabled. Defaults to
	// core.LinearPenalty.
	Penalty core.PenaltyFunc
	// Optimizer tunes the per-shard segment optimizers.
	Optimizer core.OptimizerConfig
	// ServiceTime and Technicians configure the global ticket queue (see
	// tickets.QueueConfig); zero values take that package's defaults.
	ServiceTime time.Duration
	Technicians int
}

func (c *Config) fillDefaults() {
	if c.Capacity == 0 {
		c.Capacity = 0.75
	}
	if c.Threshold == 0 {
		c.Threshold = core.DefaultDetectionThreshold
	}
	if c.Penalty == nil {
		c.Penalty = core.LinearPenalty
	}
}

// EventKind discriminates fleet input events.
type EventKind uint8

const (
	// Corruption reports a link's current worst-direction corruption
	// rate (a rate of zero clears a previous report).
	Corruption EventKind = iota
	// Repair reports that a link's fault was physically fixed: its
	// corruption clears, and if the controller had disabled it, it is
	// re-enabled and the freed capacity is re-optimized.
	Repair
)

// Event is one fleet input: a corruption report or a completed repair on one
// link of one DCN. Events must be routed in nondecreasing At order.
type Event struct {
	At   time.Duration
	DCN  int
	Link topology.LinkID // in the DCN's own link-id space
	Kind EventKind
	Rate float64 // worst-direction corruption rate; ignored for Repair
}

// Supervisor owns a fleet of per-segment shards and every cross-segment
// invariant. Methods must not be called concurrently; the parallelism is
// internal to Flush.
type Supervisor struct {
	cfg    Config
	dcns   []DCN
	shards []*shard

	// Per-DCN routing tables: source link id → owning shard (index into
	// shards) and the link's id inside that shard's sub-topology.
	shardOf [][]int32
	localOf [][]topology.LinkID
	// dcnShards[d] is the contiguous [lo, hi) range of d's shards.
	dcnShards [][2]int

	// linkBase[d] is d's offset in the fleet-global link-id space that
	// keys the shared ticket queue.
	linkBase []int64

	queue *tickets.Queue
	open  map[int64]*tickets.Ticket

	nextSeq  uint64
	pending  int
	segments int
	links    int
	tors     int

	// Cumulative event tallies, merged from shards at Flush.
	routedCorruptions int
	routedRepairs     int
	totals            shardStats
	perDCN            []shardStats

	mergeBuf []decision
}

// New builds a Supervisor over the given DCNs. Identical *Topology values
// are partitioned and materialized into sub-topologies once and shared.
func New(dcns []DCN, cfg Config) (*Supervisor, error) {
	if len(dcns) == 0 {
		return nil, fmt.Errorf("fleet: no DCNs")
	}
	cfg.fillDefaults()

	s := &Supervisor{
		cfg:       cfg,
		dcns:      slices.Clone(dcns),
		shardOf:   make([][]int32, len(dcns)),
		localOf:   make([][]topology.LinkID, len(dcns)),
		dcnShards: make([][2]int, len(dcns)),
		linkBase:  make([]int64, len(dcns)),
		open:      make(map[int64]*tickets.Ticket),
		perDCN:    make([]shardStats, len(dcns)),
		queue: tickets.NewQueue(tickets.QueueConfig{
			ServiceTime: cfg.ServiceTime,
			Technicians: cfg.Technicians,
			Quiet:       true,
		}),
	}
	for i := range s.dcns {
		if s.dcns[i].Topo == nil {
			return nil, fmt.Errorf("fleet: DCN %d has no topology", i)
		}
		if s.dcns[i].Name == "" {
			s.dcns[i].Name = fmt.Sprintf("dcn%d", i)
		}
	}

	// Partition every distinct topology once. A plain slice scan keeps
	// the memo deterministic and cheap: fleets have few distinct shapes.
	parts := newPartCache()
	totalUnits := 0
	for i := range s.dcns {
		p, err := parts.get(s.dcns[i].Topo)
		if err != nil {
			return nil, fmt.Errorf("fleet: DCN %s: %w", s.dcns[i].Name, err)
		}
		totalUnits += len(p.units)
		base := int64(0)
		if i > 0 {
			base = s.linkBase[i-1] + int64(s.dcns[i-1].Topo.NumLinks())
		}
		s.linkBase[i] = base
		s.links += s.dcns[i].Topo.NumLinks()
		s.tors += len(s.dcns[i].Topo.ToRs())
		s.segments += len(p.segs)
	}

	globalSeg := 0
	for i := range s.dcns {
		p, err := parts.get(s.dcns[i].Topo)
		if err != nil {
			return nil, err
		}
		target := dcnShardTarget(cfg.Shards, len(p.units), totalUnits)
		built, err := parts.shards(s.dcns[i].Topo, target)
		if err != nil {
			return nil, fmt.Errorf("fleet: DCN %s: %w", s.dcns[i].Name, err)
		}
		lo := len(s.shards)
		s.shardOf[i] = make([]int32, s.dcns[i].Topo.NumLinks())
		s.localOf[i] = make([]topology.LinkID, s.dcns[i].Topo.NumLinks())
		for _, bs := range built {
			sh, err := newShard(i, bs, &cfg, globalSeg)
			if err != nil {
				return nil, fmt.Errorf("fleet: DCN %s: %w", s.dcns[i].Name, err)
			}
			globalSeg += len(sh.segs)
			idx := len(s.shards)
			s.shards = append(s.shards, sh)
			for local, src := range sh.sub.Links {
				s.shardOf[i][src] = int32(idx)
				s.localOf[i][src] = topology.LinkID(local)
			}
		}
		s.dcnShards[i] = [2]int{lo, len(s.shards)}
	}
	return s, nil
}

// dcnShardTarget apportions the fleet-wide shard budget to one DCN with
// units packable segment-groups out of totalUnits fleet-wide. Zero or
// negative budget, or a budget at least the unit count, means one shard per
// unit.
func dcnShardTarget(budget, units, totalUnits int) int {
	if budget <= 0 {
		return units
	}
	share := budget * units / totalUnits
	if share < 1 {
		share = 1
	}
	if share > units {
		share = units
	}
	return share
}

// Route validates ev and queues it on the owning shard. Events must arrive
// in nondecreasing At order; the assigned sequence number is what keeps
// decision merging byte-identical across shard and worker counts.
//
//lint:hotpath per-event fleet ingress
func (s *Supervisor) Route(ev Event) error {
	if ev.DCN < 0 || ev.DCN >= len(s.dcns) {
		//lint:allow hotalloc error construction on the reject path only
		return fmt.Errorf("fleet: event for unknown DCN %d", ev.DCN)
	}
	if ev.Link < 0 || int(ev.Link) >= s.dcns[ev.DCN].Topo.NumLinks() {
		//lint:allow hotalloc error construction on the reject path only
		return fmt.Errorf("fleet: event for unknown link %d in DCN %s", ev.Link, s.dcns[ev.DCN].Name)
	}
	if ev.Kind != Corruption && ev.Kind != Repair {
		//lint:allow hotalloc error construction on the reject path only
		return fmt.Errorf("fleet: unknown event kind %d", ev.Kind)
	}
	if !(ev.Rate >= 0 && ev.Rate <= 1) { // written so that NaN is rejected too
		//lint:allow hotalloc error construction on the reject path only
		return fmt.Errorf("fleet: corruption rate %g out of [0,1]", ev.Rate)
	}
	sh := s.shards[s.shardOf[ev.DCN][ev.Link]]
	//lint:allow hotalloc append into per-shard pending buffer, steady capacity after warmup
	sh.pending = append(sh.pending, shardEvent{
		seq:  s.nextSeq,
		at:   ev.At,
		link: s.localOf[ev.DCN][ev.Link],
		kind: ev.Kind,
		rate: ev.Rate,
	})
	s.nextSeq++
	s.pending++
	if ev.Kind == Corruption {
		s.routedCorruptions++
	} else {
		s.routedRepairs++
	}
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

// Flush drains every shard's pending events — fanned out over the worker
// pool, each shard touching only its own state — then applies the merged
// disable/enable decisions to the global ticket queue in event order.
func (s *Supervisor) Flush() error {
	if err := runner.ForEach(s.cfg.Workers, len(s.shards), func(i int) error {
		s.shards[i].drain()
		return nil
	}); err != nil {
		return err
	}
	s.pending = 0

	// Merge shard decisions back into the global event order: seq is the
	// routing order, ord the per-event decision order, and every event
	// belongs to exactly one shard, so (seq, ord) is a total order that
	// no shard packing or worker schedule can perturb.
	merged := s.mergeBuf[:0]
	for _, sh := range s.shards {
		merged = append(merged, sh.decisions...)
		sh.decisions = sh.decisions[:0]
	}
	slices.SortFunc(merged, func(a, b decision) int {
		if a.seq != b.seq {
			if a.seq < b.seq {
				return -1
			}
			return 1
		}
		return int(a.ord) - int(b.ord)
	})
	for _, d := range merged {
		fl := s.linkBase[d.dcn] + int64(d.link)
		switch d.act {
		case actDisable:
			t, _ := s.queue.Open(topology.LinkID(fl), faults.ActionUnknown, d.at)
			s.open[fl] = t
		case actRepair:
			if t := s.open[fl]; t != nil {
				if err := s.queue.Resolve(t, d.at, faults.ActionUnknown, true); err != nil {
					return fmt.Errorf("fleet: resolving ticket for fleet link %d: %w", fl, err)
				}
				delete(s.open, fl)
			}
		}
	}
	s.mergeBuf = merged

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
// ToRs currently violating their constraint.
func (s *Supervisor) Headroom() (minFrac, meanFrac float64, violated int) {
	minFrac = 1.0
	sum := 0.0
	for _, sh := range s.shards {
		counts, total := sh.net.PathCounter().IncCounts(), sh.net.PathCounter().Total()
		for i := range sh.segs {
			for _, tor := range sh.segs[i].tors {
				frac := 1.0
				if total[tor] > 0 {
					frac = float64(counts[tor]) / float64(total[tor])
				}
				if frac < minFrac {
					minFrac = frac
				}
				sum += frac
				if frac+constraintSlack < s.cfg.Capacity {
					violated++
				}
			}
		}
	}
	if s.tors > 0 {
		meanFrac = sum / float64(s.tors)
	}
	return minFrac, meanFrac, violated
}

// constraintSlack mirrors core's float tolerance on the capacity constraint.
const constraintSlack = 1e-9

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
// shard- or worker-count-dependent fields: the segment count is a property
// of the topologies, and every float aggregates in global segment order.
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
		DCNs:            len(s.dcns),
		Links:           s.links,
		ToRs:            s.tors,
		Segments:        s.segments,
		Events:          s.routedCorruptions + s.routedRepairs,
		Corruptions:     s.routedCorruptions,
		Repairs:         s.routedRepairs,
		Disabled:        s.totals.disabled,
		Blocked:         s.totals.blocked,
		ReoptDisabled:   s.totals.reoptDisabled,
		Cleared:         s.totals.cleared,
		TicketsResolved: len(s.queue.History()),
		TicketsOpened:   len(s.queue.History()) + s.queue.OpenCount(),
		TicketsOpen:     s.queue.OpenCount(),
		PerDCN:          make([]DCNStat, len(s.dcns)),
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
			st.Segments += len(sh.segs)
			st.DisabledNow += sh.net.NumDisabled()
			for j := range sh.segs {
				st.Penalty += sh.segPenalty(&sh.segs[j], s.cfg.Penalty)
			}
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
