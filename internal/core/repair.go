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
	// UseDeployedEngine recommends from Diagnostics.Deployed (§7.2)
	// instead of the full Algorithm 1 inputs.
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

// InputKind is what an Input tells a RepairLoop.
type InputKind uint8

const (
	InputReport   InputKind = iota // monitoring measured the link's rate
	InputRepaired                  // a repair attempt with Action ended
	InputRelease                   // the link's flap holddown ended
)

// Input is one event of Figure 13's loop. Rate is the link's worst-direction
// rate as its driver sees it at At, so a repair succeeded iff Rate is under
// the detection threshold. Pointer-free: recorded inputs replay exactly.
type Input struct {
	At     time.Duration
	Link   topology.LinkID
	Kind   InputKind
	Rate   float64
	Action faults.RepairAction
}

// Resolution is what a repaired or release input did with a link.
type Resolution uint8

const (
	// Enabled: back in service, and the policy re-checked around it.
	Enabled Resolution = iota
	// Reenabled: a failed repair back in service, still corrupting, for
	// monitoring to re-detect (Figure 12).
	Reenabled
	// Reticketed: still down, with a fresh ticket.
	Reticketed
	// Held: repaired, but dampening keeps it down; release it at Until.
	Held
	// Cleared: repaired while up; only its recorded rate changed.
	Cleared
)

// RepairStep reports what one Step did. Opened lists the tickets it opened,
// in order: the loop's buffer, valid until its next call.
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
// holddowns. A driver keeps ground truth and time: it steps the loop with
// each report, each ticket it worked until done, and each holddown's end.
type RepairLoop struct {
	eng      *Engine
	net      *Network
	cfg      RepairConfig
	diagnose DiagnoseFunc
	queue    *tickets.Queue // owns each link's open ticket

	// Each map is made only for the feature that writes it (reseated: a
	// DiagnoseFunc; collateral: RepairCollateral; flapAt and dampUntil:
	// Dampening), and otherwise stays nil or empty.
	reseated   map[topology.LinkID]bool // since the last successful repair
	collateral map[topology.LinkID]int  // breakout repairs holding the link down
	flapAt     map[topology.LinkID][]time.Duration
	dampUntil  map[topology.LinkID]time.Duration // holddown armed by flaps

	opened []Opened
}

// NewRepairLoop returns a RepairLoop over eng. diagnose feeds each ticket's
// recommendation (nil: none).
func NewRepairLoop(eng *Engine, cfg RepairConfig, diagnose DiagnoseFunc) (*RepairLoop, error) {
	r := new(RepairLoop)
	return r, r.Reset(eng, cfg, diagnose)
}

// Reset rebuilds the loop as NewRepairLoop would, keeping its ticket arena
// and map storage; tickets handed out before Reset are invalidated. Every
// link eng's network already has down (a restored state) gets a ticket at
// time zero.
func (r *RepairLoop) Reset(eng *Engine, cfg RepairConfig, diagnose DiagnoseFunc) error {
	if d := cfg.Dampening; d != nil && (d.Window <= 0 || d.Flaps <= 0 || d.Holddown <= 0) {
		return fmt.Errorf("core: dampening requires positive window, flaps, and holddown (got %v, %d, %v)",
			d.Window, d.Flaps, d.Holddown)
	}
	if r.queue == nil {
		r.queue = tickets.NewQueue(tickets.QueueConfig{})
	}
	r.eng, r.net, r.cfg, r.diagnose = eng, eng.Network(), cfg, diagnose
	r.queue.Reset(tickets.QueueConfig{Staffing: cfg.Staffing})
	r.reseated = resetMap(r.reseated, diagnose != nil)
	r.collateral = resetMap(r.collateral, cfg.RepairCollateral)
	r.flapAt = resetMap(r.flapAt, cfg.Dampening != nil)
	r.dampUntil = resetMap(r.dampUntil, cfg.Dampening != nil)
	for l := range topology.LinkID(r.net.Topology().NumLinks()) {
		if r.net.Disabled(l) && r.collateral[l] == 0 {
			r.openTicket(l, 0)
		}
	}
	return nil
}

// resetMap returns m emptied, or a new map if m is nil and its feature is on.
func resetMap[M ~map[K]V, K comparable, V any](m M, on bool) M {
	if m == nil && on {
		return make(M)
	}
	clear(m)
	return m
}

// Step applies one input and reports what the engine decided (reports
// only) and what the loop did. A repaired input for a link that is up is
// Cleared; for one that is down without an open ticket, an error.
//
//lint:hotpath every input of the simulator, the fleet shards and the control plane
func (r *RepairLoop) Step(in Input) (Decision, RepairStep, error) {
	r.opened = r.opened[:0]
	l, now := in.Link, in.At
	switch in.Kind {
	case InputReport:
		d := r.eng.ReportCorruption(l, in.Rate)
		if r.cfg.Dampening != nil && (d.Outcome == OutcomeBlocked || d.Outcome == OutcomeDisabled) {
			r.noteFlap(l, now)
		}
		if d.Outcome == OutcomeDisabled {
			r.openTicket(l, now)
		}
		return d, RepairStep{Opened: r.opened}, nil
	case InputRepaired:
		if r.net.Disabled(l) {
			step, err := r.resolve(in)
			return Decision{}, step, err
		}
		r.net.SetCorruption(l, in.Rate)
		return Decision{}, RepairStep{Resolution: Cleared}, nil
	case InputRelease:
		// The holddown is over: back in service unless corrupting again.
		r.net.SetCorruption(l, in.Rate)
		delete(r.dampUntil, l)
		if r.net.CorruptionRate(l) >= r.eng.Threshold() {
			r.openTicket(l, now)
			return Decision{}, RepairStep{Resolution: Reticketed, Opened: r.opened}, nil
		}
		return Decision{}, r.activate(l, now), nil
	}
	//lint:allow escapes error construction on the reject path only
	return Decision{}, RepairStep{}, fmt.Errorf("core: unknown input kind %d", in.Kind)
}

// resolve records in.Rate on the down link in.Link and closes its ticket, a
// success iff the rate is under the threshold: the link is Enabled, Held
// (dampening), Reenabled (a failure) or Reticketed (a failure, drain mode).
func (r *RepairLoop) resolve(in Input) (RepairStep, error) {
	l, now := in.Link, in.At
	t := r.queue.OpenTicket(l)
	if t == nil {
		//lint:allow escapes error construction on the reject path only
		return RepairStep{}, fmt.Errorf("core: link %d has no open ticket", l)
	}
	r.net.SetCorruption(l, in.Rate)
	ok := in.Rate < r.eng.Threshold()
	if err := r.queue.Resolve(t, now, in.Action, ok); err != nil {
		return RepairStep{}, err
	}
	if r.diagnose != nil { // the reseat history's only reader
		if !ok && (r.reseated[l] || in.Action == faults.ActionReseatTransceiver) {
			r.reseated[l] = true
		} else {
			delete(r.reseated, l)
		}
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
	return r.activate(l, now), nil
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
func (r *RepairLoop) activate(l topology.LinkID, now time.Duration) RepairStep {
	//lint:allow escapes the re-check allocates its scratch once and the list it returns only when it disables a link
	for _, nl := range r.eng.Activate(l) {
		r.openTicket(nl, now)
	}
	return RepairStep{Resolution: Enabled, Opened: r.opened}
}

// openTicket books a repair for the just-disabled link l, and in collateral
// mode takes its healthy breakout siblings down for it.
func (r *RepairLoop) openTicket(l topology.LinkID, now time.Duration) {
	if r.queue.OpenTicket(l) != nil {
		return
	}
	rec := faults.ActionUnknown
	if r.diagnose != nil {
		if d, ok := r.diagnose(l, r.reseated[l]); ok {
			if r.cfg.UseDeployedEngine {
				d = d.Deployed()
			}
			rec = Recommend(d)
		}
	}
	t, done := r.queue.Open(l, rec, now)
	if r.cfg.RepairCollateral {
		//lint:allow escapes breakout collateral (§8) only: SameBreakout builds its list
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
	//lint:allow escapes breakout collateral (§8) only: SameBreakout builds its list
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
