package experiments

import (
	"fmt"
	"time"

	"corropt/internal/core"
	"corropt/internal/sim"
	"corropt/internal/stats"
	"corropt/internal/tickets"
)

func init() {
	register("ticketq", "§5.2 ticket economics: repair latency vs technician staffing", ticketq)
}

// ticketq reproduces the operational picture of §5.2: tickets wait in a
// FIFO queue, one repair attempt averages two days, and "the exact time
// needed for a fix depends on the number of tickets in the queue". We sweep
// the technician pool size and measure time-to-repair and the corruption
// penalty that queueing adds — the operational cost the recommendation
// engine's higher accuracy (fewer re-repairs, §7.2) buys back.
func ticketq(cfg Config) (*plan, error) {
	// A single capacity-blocked high-rate link dominates one trace's
	// penalty integral, so each cell averages several independent traces.
	const reps = 5
	staffing := []int{1, 2, 4, 0}
	accuracies := []float64{0.5, 0.8}
	// Flatten the whole staffing grid — (technicians × accuracy) cells ×
	// reps — into one replay list. All cells of one rep share one trace
	// (deterministic in rep and seed, so identical across cells and worker
	// counts) and the per-cell averages accumulate in rep order after
	// collection. Every rep's trace runs over one DCN, so the replays, which
	// cycle through the reps, all reuse one fabric's scratch.
	topo, err := DCN(cfg.Scale)
	if err != nil {
		return nil, err
	}
	traces := make([]*traceEntry, reps)
	for rep := range traces {
		e, err := evalTrace(topo, cfg.Seed+uint64(rep), fmt.Sprintf("ticketq-%d", rep), cfg.Scale)
		if err != nil {
			return nil, err
		}
		traces[rep] = e
	}
	var replays []sim.Replay
	for _, technicians := range staffing {
		for _, accuracy := range accuracies {
			for rep, e := range traces {
				replays = append(replays, e.replay(sim.Config{
					Policy:        sim.PolicyCorrOpt,
					Capacity:      0.75, // tight enough that queue depth costs penalty
					FixedAccuracy: accuracy,
					RepairConfig:  core.RepairConfig{Staffing: tickets.Staffing{Technicians: technicians, ServiceTime: 48 * time.Hour}},
					Seed:          cfg.Seed + uint64(rep),
				}))
			}
		}
	}
	finish := func(results []*sim.Result) (*Report, error) {
		r := &Report{
			ID:     "ticketq",
			Title:  "Repair latency and penalty vs technician staffing",
			Header: []string{"technicians", "accuracy", "tickets", "mean_attempts", "integrated_penalty", "mean_disabled_links"},
		}
		type cell struct {
			tickets, attempts, penalty, down float64
		}
		idx := 0
		for _, technicians := range staffing {
			for _, accuracy := range accuracies {
				var c cell
				for rep := 0; rep < reps; rep++ {
					res := results[idx]
					idx++
					var down []float64
					for _, smp := range res.Samples {
						down = append(down, float64(smp.Disabled))
					}
					c.tickets += float64(res.TicketsOpened) / reps
					c.attempts += res.MeanAttempts / reps
					c.penalty += res.IntegratedPenalty / reps
					c.down += stats.Mean(down) / reps
				}
				label := fmt.Sprintf("%d", technicians)
				if technicians == 0 {
					label = "unlimited"
				}
				r.AddRow(label, fmt.Sprintf("%.0f%%", accuracy*100),
					fmtF(c.tickets), fmtF(c.attempts), fmtF(c.penalty), fmtF(c.down))
			}
		}
		r.AddNote("a small crew lets the backlog grow: links stay down longer (higher mean disabled count) and blocked corrupting links wait longer for the optimizer's capacity (higher penalty)")
		r.AddNote("the 80%% accuracy column needs fewer repeat visits (mean attempts ≈ 1.2 vs ≈ 2.0), which is §7.2's point: accuracy is also a staffing multiplier")
		return r, nil
	}
	return &plan{replays: replays, finish: finish}, nil
}
