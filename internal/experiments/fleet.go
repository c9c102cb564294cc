package experiments

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"corropt/internal/core"
	"corropt/internal/fleet"
	"corropt/internal/optics"
	"corropt/internal/sim"
	"corropt/internal/stats"
)

func init() {
	register("fleet", "§7.2 deployment scale: the recommendation engine across 70 DCNs of different sizes", fleetStudy)
}

// fleetStudy reproduces the deployment dimension of §7.2: the recommendation
// engine ran across 70 data centers of different sizes for three months,
// generating close to two thousand tickets. We simulate a fleet of DCNs
// with varying sizes, technology mixes, and fault rates under the deployed
// conditions (30% of recommendations ignored, a quarter of switch types
// without optical data) and report the per-DCN distribution of repair
// accuracy and ticket volume.
//
// The plan holds one replay per DCN, each built from its per-index rngutil
// substream (TechAssign covers every link, so the replay's Tech is unused),
// and the report closes with a fleet.Supervisor replay of the same fault
// traces as a corruption-event stream — the sharded controller path.
// Results are collected in DCN order and the supervisor snapshot is shard-
// and worker-count invariant, so reports stay byte-identical for any
// Workers or Shards value.
func fleetStudy(cfg Config) (*plan, error) {
	nDCNs := 70
	if cfg.Scale == ScaleSmall {
		nDCNs = 12
	}
	techs := optics.DefaultTechnologies()
	members := make([]*traceEntry, nDCNs)
	replays := make([]sim.Replay, nDCNs)
	for i := range replays {
		m, err := fleetMember(cfg.Seed, i)
		if err != nil {
			return nil, err
		}
		members[i] = m
		replays[i] = m.replay(sim.Config{
			Policy:           sim.PolicyCorrOpt,
			Capacity:         0.5,
			Repair:           sim.RepairRecommendation,
			IgnoreProb:       0.3,
			NoOpticsFraction: 0.25,
			RepairConfig:     core.RepairConfig{UseDeployedEngine: true},
			TechAssign:       fleetAssign(techs, i),
			Seed:             m.simSeed,
		})
	}
	finish := func(results []*sim.Result) (*Report, error) {
		r := &Report{
			ID:     "fleet",
			Title:  "Recommendation engine across a fleet of DCNs (deployed conditions)",
			Header: []string{"quantity", "p10", "median", "p90", "mean"},
		}
		var accuracies, tickets, attempts []float64
		totalTickets := 0
		for _, res := range results {
			if res.TicketsOpened == 0 {
				continue // a tiny quiet DCN contributes no repair statistics
			}
			accuracies = append(accuracies, res.FirstAttemptSuccessRate)
			tickets = append(tickets, float64(res.TicketsOpened))
			attempts = append(attempts, res.MeanAttempts)
			totalTickets += res.TicketsOpened
		}
		if len(accuracies) == 0 {
			return nil, fmt.Errorf("experiments: fleet produced no tickets")
		}
		row := func(name string, xs []float64) {
			sort.Float64s(xs)
			p10, _ := stats.Quantile(xs, 0.1)
			med, _ := stats.Quantile(xs, 0.5)
			p90, _ := stats.Quantile(xs, 0.9)
			r.AddRow(name, fmtF(p10), fmtF(med), fmtF(p90), fmtF(stats.Mean(xs)))
		}
		row("first-attempt success rate", accuracies)
		row("tickets per DCN (3 months)", tickets)
		row("mean repair attempts", attempts)
		r.AddNote("%d of %d simulated DCNs produced tickets; %d tickets fleet-wide (paper: ~2000 across 70 DCNs in the same window)",
			len(accuracies), nDCNs, totalTickets)
		r.AddNote("deployed conditions: simplified engine, 30%% of recommendations ignored, 25%% of links without optical data; paper measured 58%% overall success in this regime")
		note, err := fleetSupervisorNote(cfg, members)
		if err != nil {
			return nil, err
		}
		r.AddNote("%s", note)
		return r, nil
	}
	return &plan{replays: replays, finish: finish}, nil
}

// fleetRepairAfter is the replay's fixed fault-to-repair latency, matching
// the ticket queue's default 48h service time.
const fleetRepairAfter = 48 * time.Hour

// fleetSupervisorNote replays the fleet's fault traces as a corruption-event
// stream through a fleet.Supervisor — the sharded live-controller path, as
// opposed to the per-DCN full simulations above — and summarizes what the
// controller did. Every value in the note is shard- and worker-count
// invariant: the event stream is sorted deterministically, the supervisor
// snapshot contains no packing-dependent fields.
func fleetSupervisorNote(cfg Config, members []*traceEntry) (string, error) {
	dcns := make([]fleet.DCN, len(members))
	var evs []fleet.Event
	for i, m := range members {
		dcns[i] = fleet.DCN{Name: fmt.Sprintf("dcn%02d", i), Topo: m.topo}
		for _, f := range m.trace {
			for _, e := range f.Effects {
				rate := e.DirectRate[0]
				if e.DirectRate[1] > rate {
					rate = e.DirectRate[1]
				}
				if rate <= 0 {
					// Optics-mediated faults resolve their severity through
					// the optical model inside the full simulation; the
					// supervisor replay substitutes a nominal above-threshold
					// rate.
					rate = 4 * core.DefaultDetectionThreshold
				}
				evs = append(evs,
					fleet.Event{At: f.Start, DCN: i, Link: e.Link, Kind: fleet.Corruption, Rate: rate},
					fleet.Event{At: f.Start + fleetRepairAfter, DCN: i, Link: e.Link, Kind: fleet.Repair})
			}
		}
	}
	slices.SortStableFunc(evs, func(a, b fleet.Event) int {
		switch {
		case a.At != b.At:
			if a.At < b.At {
				return -1
			}
			return 1
		case a.DCN != b.DCN:
			return a.DCN - b.DCN
		case a.Link != b.Link:
			return int(a.Link) - int(b.Link)
		default:
			return int(a.Kind) - int(b.Kind)
		}
	})
	sup, err := fleet.New(dcns, fleet.Config{Workers: cfg.Workers, Capacity: 0.5})
	if err != nil {
		return "", err
	}
	if err := sup.Ingest(evs); err != nil {
		return "", err
	}
	if err := sup.Flush(); err != nil {
		return "", err
	}
	snap := sup.Snapshot()
	return fmt.Sprintf("fleet supervisor replay: %d corruption + %d repair events over %d DCNs / %d links (%d segments): %d disabled (%d by re-optimization), %d capacity-blocked, %d tickets; residual penalty %s, min ToR fraction %s",
		snap.Corruptions, snap.Repairs, snap.DCNs, snap.Links, snap.Segments,
		snap.Disabled+snap.ReoptDisabled, snap.ReoptDisabled, snap.Blocked,
		snap.TicketsOpened, fmtF(snap.PenaltySum), fmtF(snap.MinFraction)), nil
}
