package core

import (
	"fmt"
	"time"

	"corropt/internal/faults"
	"corropt/internal/tickets"
	"corropt/internal/topology"
)

// RepairConfig holds the knobs of the repair half of Figure 13. The zero
// value is §7.1's model: unlimited technicians, two-day attempts, full
// Algorithm 1, and every repaired link re-enabled.
type RepairConfig struct {
	// Staffing staffs the ticket queue.
	tickets.Staffing
	// UseDeployedEngine recommends with RecommendDeployed (§7.2) instead
	// of full Algorithm 1.
	UseDeployedEngine bool
	// DrainMode is §8's "removing traffic instead of disabling links": a
	// failed repair shows on test traffic, so the link is re-ticketed
	// without re-exposing applications (no Figure 12 re-enable cycle).
	DrainMode bool
	// RepairCollateral takes a link's healthy breakout siblings down for
	// the duration of its repair (§8).
	RepairCollateral bool
	// Dampening enables flap dampening; nil disables it. The pointed-to
	// config is read, never written.
	Dampening *DampeningConfig
}

// DampeningConfig is link-flap dampening, the mitigation for flap storms: a
// link detected corrupting Flaps times within Window is held down for
// Holddown after its next successful repair, then re-enabled only if it is
// healthy — so a flapping link stops generating a ticket per flap. All
// three fields must be positive.
type DampeningConfig struct {
	Window   time.Duration
	Flaps    int
	Holddown time.Duration
}

// DiagnoseFunc returns Algorithm 1's inputs for link l, given whether it was
// reseated since its last successful repair; ok is false when l's switches
// expose none, and its ticket then carries no recommendation.
type DiagnoseFunc func(l topology.LinkID, reseated bool) (d Diagnostics, ok bool)

// Opened is a ticket a RepairLoop call opened and when its attempt is done.
type Opened struct {
	Ticket *tickets.Ticket
	Done   time.Duration
}

// Resolution is what Resolve or Release did with a link.
type Resolution uint8

const (
	// Enabled: back in service, and the policy re-checked around it.
	Enabled Resolution = iota
	// Reenabled: a failed repair back in service, still corrupting, for
	// monitoring to re-detect (Figure 12).
	Reenabled
	// Reticketed: still down, with a fresh ticket.
	Reticketed
	// Held: repaired, but dampening keeps it down; Release it at Until.
	Held
)

// RepairStep reports what one Resolve or Release call did. Opened lists the
// tickets it opened, in order: the loop's buffer, valid until its next call.
type RepairStep struct {
	Resolution Resolution
	Until      time.Duration
	Opened     []Opened
}

// TicketStats summarizes a RepairLoop's tickets, by tickets.Queue's rules.
type TicketStats struct {
	Resolved, Open                        int
	FirstAttemptSuccessRate, MeanAttempts float64
}

// RepairLoop is the other half of Figure 13, and its only implementation:
// disable → ticket → recommendation → repair → enable or re-ticket. It
// drives an Engine and owns everything from "the engine disabled a link" to
// "the link is back in service": the ticket queue, one open ticket per
// disabled link, the reseat history, breakout-collateral holds and flap
// holddowns. A driver keeps ground truth and time: it reports corruption,
// works each opened ticket until it is done, and resolves it.
type RepairLoop struct {
	eng      *Engine
	net      *Network
	cfg      RepairConfig
	diagnose DiagnoseFunc
	scope    func(topology.LinkID) Scope
	queue    *tickets.Queue

	open       map[topology.LinkID]*tickets.Ticket
	reseated   map[topology.LinkID]bool // since the last successful repair
	collateral map[topology.LinkID]int  // breakout repairs holding the link down
	flapAt     map[topology.LinkID][]time.Duration
	dampUntil  map[topology.LinkID]time.Duration // holddown armed by flaps

	opened []Opened
}

// NewRepairLoop returns a RepairLoop over eng. diagnose feeds each ticket's
// recommendation (nil: none); scope gives a repaired link's activation
// scope (nil: the whole topology).
func NewRepairLoop(eng *Engine, cfg RepairConfig, diagnose DiagnoseFunc, scope func(topology.LinkID) Scope) (*RepairLoop, error) {
	r := new(RepairLoop)
	return r, r.Reset(eng, cfg, diagnose, scope)
}

// Reset rebuilds the loop as NewRepairLoop would, keeping its ticket arena
// and map storage. Tickets handed out before Reset are invalidated.
func (r *RepairLoop) Reset(eng *Engine, cfg RepairConfig, diagnose DiagnoseFunc, scope func(topology.LinkID) Scope) error {
	if d := cfg.Dampening; d != nil && (d.Window <= 0 || d.Flaps <= 0 || d.Holddown <= 0) {
		return fmt.Errorf("core: dampening requires positive window, flaps, and holddown (got %v, %d, %v)",
			d.Window, d.Flaps, d.Holddown)
	}
	if r.queue == nil {
		r.queue = tickets.NewQueue(tickets.QueueConfig{})
		r.open, r.reseated = make(map[topology.LinkID]*tickets.Ticket), make(map[topology.LinkID]bool)
		r.collateral, r.dampUntil = make(map[topology.LinkID]int), make(map[topology.LinkID]time.Duration)
		r.flapAt = make(map[topology.LinkID][]time.Duration)
	}
	r.eng, r.net, r.cfg, r.diagnose, r.scope = eng, eng.Network(), cfg, diagnose, scope
	r.queue.Reset(tickets.QueueConfig{Staffing: cfg.Staffing, Quiet: true})
	clear(r.open)
	clear(r.reseated)
	clear(r.collateral)
	clear(r.flapAt)
	clear(r.dampUntil)
	return nil
}

// Report hands the engine a corruption report for link l at virtual time
// now. An above-threshold report on an enabled link counts toward its flap
// window; one that disables it opens its ticket, returned in opened (the
// loop's buffer, valid until its next call).
func (r *RepairLoop) Report(l topology.LinkID, rate float64, now time.Duration) (d Decision, opened []Opened) {
	r.opened = r.opened[:0]
	d = r.eng.ReportCorruption(l, rate)
	switch d.Outcome {
	case OutcomeBelowThreshold, OutcomeAlreadyDisabled:
		return d, nil
	}
	if r.cfg.Dampening != nil {
		r.noteFlap(l, now)
	}
	if d.Disabled {
		r.openTicket(l, now)
	}
	return d, r.opened
}

// Resolve closes link l's open ticket at virtual time now with the action
// taken and whether the link came back clean, then enables it (Enabled),
// puts a failed repair back in service (Reenabled), re-tickets it in drain
// mode (Reticketed), or holds it for its flap holddown (Held).
func (r *RepairLoop) Resolve(l topology.LinkID, now time.Duration, action faults.RepairAction, ok bool) (RepairStep, error) {
	r.opened = r.opened[:0]
	t := r.open[l]
	if t == nil {
		return RepairStep{}, fmt.Errorf("core: link %d has no open ticket", l)
	}
	if err := r.queue.Resolve(t, now, action, ok); err != nil {
		return RepairStep{}, err
	}
	delete(r.open, l)
	if !ok && (r.reseated[l] || action == faults.ActionReseatTransceiver) {
		r.reseated[l] = true
	} else {
		delete(r.reseated, l)
	}
	r.releaseCollateral(l)
	switch {
	case !ok && r.cfg.DrainMode:
		r.openTicket(l, now)
		return RepairStep{Resolution: Reticketed, Opened: r.opened}, nil
	case !ok:
		r.net.Enable(l)
		return RepairStep{Resolution: Reenabled}, nil
	}
	if until, held := r.dampUntil[l]; held && until > now {
		return RepairStep{Resolution: Held, Until: until}, nil
	}
	r.activate(l, now)
	return RepairStep{Resolution: Enabled, Opened: r.opened}, nil
}

// Release ends link l's flap holddown at virtual time now: it re-enters
// service (Enabled) unless its recorded rate is over the detection
// threshold, and then stays down with a fresh ticket (Reticketed).
func (r *RepairLoop) Release(l topology.LinkID, now time.Duration) RepairStep {
	r.opened = r.opened[:0]
	delete(r.dampUntil, l)
	if r.net.CorruptionRate(l) >= r.eng.Threshold() {
		r.openTicket(l, now)
		return RepairStep{Resolution: Reticketed, Opened: r.opened}
	}
	r.activate(l, now)
	return RepairStep{Resolution: Enabled, Opened: r.opened}
}

// TicketStats summarizes the loop's tickets so far.
func (r *RepairLoop) TicketStats() TicketStats {
	return TicketStats{
		Resolved:                r.queue.Resolved(),
		Open:                    r.queue.OpenCount(),
		FirstAttemptSuccessRate: r.queue.FirstAttemptSuccessRate(),
		MeanAttempts:            r.queue.MeanAttempts(),
	}
}

// Collateral reports whether l is held down by a breakout sibling's repair.
func (r *RepairLoop) Collateral(l topology.LinkID) bool { return r.collateral[l] > 0 }

// activate returns l to service and tickets what the re-check disables.
func (r *RepairLoop) activate(l topology.LinkID, now time.Duration) {
	var scope Scope
	if r.scope != nil {
		scope = r.scope(l)
	}
	for _, nl := range r.eng.Activate(l, scope) {
		r.openTicket(nl, now)
	}
}

// openTicket books a repair for the just-disabled link l, and in collateral
// mode takes its healthy breakout siblings down for it.
func (r *RepairLoop) openTicket(l topology.LinkID, now time.Duration) {
	if r.open[l] != nil {
		return
	}
	rec := faults.ActionUnknown
	if r.diagnose != nil {
		if d, ok := r.diagnose(l, r.reseated[l]); ok {
			if r.cfg.UseDeployedEngine {
				rec = RecommendDeployed(d)
			} else {
				rec = Recommend(d)
			}
		}
	}
	t, done := r.queue.Open(l, rec, now)
	r.open[l] = t
	if r.cfg.RepairCollateral {
		for _, sib := range r.net.Topology().SameBreakout(l) {
			if sib == l || r.net.Disabled(sib) {
				continue
			}
			r.collateral[sib]++
			r.net.Disable(sib)
		}
	}
	r.opened = append(r.opened, Opened{Ticket: t, Done: done})
}

// releaseCollateral re-enables the siblings held down by l's repair.
func (r *RepairLoop) releaseCollateral(l topology.LinkID) {
	if !r.cfg.RepairCollateral {
		return
	}
	for _, sib := range r.net.Topology().SameBreakout(l) {
		if sib == l || r.collateral[sib] == 0 {
			continue
		}
		if r.collateral[sib]--; r.collateral[sib] == 0 {
			delete(r.collateral, sib)
			r.net.Enable(sib)
		}
	}
}

// noteFlap records a detection of l and arms (or extends) its holddown once
// the flap count trips.
func (r *RepairLoop) noteFlap(l topology.LinkID, now time.Duration) {
	d := r.cfg.Dampening
	keep := r.flapAt[l][:0]
	for _, t := range r.flapAt[l] {
		if now-t <= d.Window {
			keep = append(keep, t)
		}
	}
	keep = append(keep, now)
	r.flapAt[l] = keep
	if until := now + d.Holddown; len(keep) >= d.Flaps && until > r.dampUntil[l] {
		r.dampUntil[l] = until
	}
}
