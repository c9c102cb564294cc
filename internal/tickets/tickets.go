// Package tickets models the repair workflow of §5.2: every disabled link
// gets a maintenance ticket; tickets wait in a FIFO queue for a technician;
// a repair attempt takes on average two days; an attempt that misses the
// root cause leaves the link corrupting, so it is re-disabled and re-queued
// — each failed attempt adds two more days of downtime (Figure 12).
package tickets

import (
	"fmt"
	"time"

	"corropt/internal/faults"
	"corropt/internal/linkmap"
	"corropt/internal/topology"
)

// Status is a ticket's lifecycle state.
type Status int

const (
	// Queued tickets wait for a technician.
	Queued Status = iota
	// InRepair tickets are being worked on.
	InRepair
	// Resolved tickets finished (successfully or not).
	Resolved
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Queued:
		return "queued"
	case InRepair:
		return "in-repair"
	case Resolved:
		return "resolved"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Ticket is one maintenance ticket for one disabled link.
type Ticket struct {
	ID   int64
	Link topology.LinkID
	slot int32 // index in the queue's arena
	// Recommendation is the engine's suggested repair; ActionUnknown when
	// no recommendation could be generated.
	Recommendation faults.RepairAction
	// Attempt is 1 for the link's first repair try, incrementing across
	// re-opened tickets (Figure 12's unsuccessful-repair loop).
	Attempt int
	Status  Status
	// CreatedAt and StartedAt are virtual times.
	CreatedAt, StartedAt time.Duration
}

// Staffing is the repair crew.
type Staffing struct {
	// ServiceTime is how long one repair attempt takes once started;
	// default 48h (the two-day average of §5.2).
	ServiceTime time.Duration
	// Technicians bounds concurrent repairs; 0 means unlimited, which
	// reproduces §7.1's simulation model where every ticket resolves a
	// fixed two days after creation.
	Technicians int
}

// QueueConfig parameterizes the repair queue.
type QueueConfig struct {
	Staffing
	// Quiet has no effect. Tickets keep no diary; the field stays only
	// because the benchmark module under bench/ sets it.
	Quiet bool
}

// Queue is the FIFO maintenance queue. It keeps no resolved ticket: its
// statistics are running tallies, and Resolve recycles the ticket, so a
// warm queue's Open+Resolve allocates nothing.
//
// Per-link state is kept only where there is some. links holds a tally for
// a link with an open ticket, an unfinished repair episode or a highest
// attempt of 2 or more. A link whose every episode so far ended in a
// first-try repair, the common case, is one bit of settled instead.
type Queue struct {
	cfg    QueueConfig
	nextID int64
	// workers is a min-heap of the technicians' busy-until times.
	workers []time.Duration
	links   linkmap.Table[linkTally]
	// settled has bit l set for each link l whose tally is settledTally
	// (or was: a tally in links takes precedence); it grows on demand to
	// the highest such link.
	settled []uint64
	// all is every ticket the queue has allocated; free, those not open.
	all, free []*Ticket

	open, resolved         int
	firstTries, firstFixes int
	// attemptSum and repairedLinks back MeanAttempts: over the links with
	// a successful ticket, the sum of each one's highest attempt.
	attemptSum, repairedLinks int
}

// linkTally is one link's state: attempts numbers its open repair episode
// (a success ends it), maxAttempt is its highest resolved attempt, open is
// 1 + the arena slot of its open ticket (0: none), and repaired whether any
// ticket succeeded. The fields are 32-bit: no link reaches 2³¹ tries. The
// zero tally is a link never ticketed; no link returns to it.
type linkTally struct {
	attempts, maxAttempt, open int32
	repaired                   bool
}

// settledTally is the state most ticketed links end in: repaired, never
// past a first attempt, nothing open. The queue keeps it as a bit.
var settledTally = linkTally{maxAttempt: 1, repaired: true}

// tally returns link l's state.
func (q *Queue) tally(l topology.LinkID) linkTally {
	if lt := q.links.Get(l); lt != (linkTally{}) {
		return lt
	}
	if w := int(l >> 6); w < len(q.settled) && q.settled[w]&(1<<(uint(l)&63)) != 0 {
		return settledTally
	}
	return linkTally{}
}

// store records link l's state: settledTally as l's bit of settled, any
// other in links. A tally leaves links only by settling, so a bit left set
// under a tally in links is never read.
func (q *Queue) store(l topology.LinkID, lt linkTally) {
	if lt == settledTally {
		w := int(l >> 6)
		for w >= len(q.settled) {
			q.settled = append(q.settled, 0)
		}
		q.settled[w] |= 1 << (uint(l) & 63)
		lt = linkTally{}
	}
	q.links.Set(l, lt)
}

// siftDown restores the min-heap h after h[0] grew.
func siftDown(h []time.Duration) {
	for i, c := 0, 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// NewQueue returns an empty Queue.
func NewQueue(cfg QueueConfig) *Queue {
	q := new(Queue)
	q.Reset(cfg)
	return q
}

// Reset empties the queue back to its NewQueue(cfg) state, recycling every
// ticket it has handed out. Tickets handed out before Reset are invalidated
// (their fields will be overwritten); callers must drop all ticket pointers
// first, the discipline sim.Scratch follows between scenarios.
func (q *Queue) Reset(cfg QueueConfig) {
	if cfg.ServiceTime == 0 {
		cfg.ServiceTime = 48 * time.Hour
	}
	*q = Queue{cfg: cfg, workers: q.workers[:0], links: q.links, settled: q.settled, all: q.all, free: append(q.free[:0], q.all...)}
	q.links.Reset()
	clear(q.settled)
	for i := 0; i < cfg.Technicians; i++ {
		q.workers = append(q.workers, 0)
	}
}

// newTicket returns a zeroed ticket, recycled when the free list has one.
func (q *Queue) newTicket() *Ticket {
	if n := len(q.free); n > 0 {
		t := q.free[n-1]
		q.free = q.free[:n-1]
		*t = Ticket{slot: t.slot}
		return t
	}
	t := &Ticket{slot: int32(len(q.all))}
	q.all = append(q.all, t)
	return t
}

// Open creates a ticket for link l at virtual time now and returns it along
// with the virtual time its repair attempt will complete. With unlimited
// technicians that is now + ServiceTime; with a bounded crew the ticket
// waits for the first free technician (FIFO).
//
//lint:hotpath every ticket of the simulator and the fleet shards
func (q *Queue) Open(l topology.LinkID, rec faults.RepairAction, now time.Duration) (*Ticket, time.Duration) {
	//lint:allow escapes a ticket is allocated only while the arena grows to the most ever open at once
	t := q.newTicket()
	lt := q.tally(l)
	lt.attempts++
	lt.open = t.slot + 1
	q.store(l, lt)
	t.ID = q.nextID
	t.Link = l
	t.Recommendation = rec
	t.Attempt = int(lt.attempts)
	t.CreatedAt = now
	q.nextID++
	start := now
	if len(q.workers) > 0 {
		// The earliest-free technician takes the ticket.
		start = max(start, q.workers[0])
		q.workers[0] = start + q.cfg.ServiceTime
		siftDown(q.workers)
	}
	t.StartedAt = start
	t.Status = InRepair
	done := start + q.cfg.ServiceTime
	q.open++
	return t, done
}

// Resolve marks a ticket finished, counting whether it succeeded, and
// recycles it for the next Open. The time now and the action taken are not
// kept. Until the next Open a second Resolve is rejected; after, t names the
// new ticket, so only the caller's ownership guards a stale t
// (core.RepairLoop's per link).
//
//lint:hotpath every repair completion of the simulator and the fleet shards
func (q *Queue) Resolve(t *Ticket, now time.Duration, action faults.RepairAction, succeeded bool) error {
	if t.Status != InRepair {
		//lint:allow escapes error construction on the reject path only
		return fmt.Errorf("tickets: ticket %d is not open", t.ID)
	}
	t.Status = Resolved
	q.open--
	q.resolved++
	if t.Attempt == 1 {
		q.firstTries++
		if succeeded {
			q.firstFixes++
		}
	}
	lt := q.tally(t.Link)
	if lt.open == t.slot+1 {
		lt.open = 0
	}
	if lt.repaired {
		q.attemptSum -= int(lt.maxAttempt)
	}
	lt.maxAttempt = max(lt.maxAttempt, int32(t.Attempt))
	if succeeded {
		// The repair episode is over; a future fault on the same link
		// starts a fresh first attempt.
		lt.attempts = 0
		if !lt.repaired {
			q.repairedLinks++
		}
		lt.repaired = true
	}
	if lt.repaired {
		q.attemptSum += int(lt.maxAttempt)
	}
	q.store(t.Link, lt)
	q.free = append(q.free, t)
	return nil
}

// OpenTicket returns the ticket Open last gave link l while it is unresolved,
// and nil otherwise.
func (q *Queue) OpenTicket(l topology.LinkID) *Ticket {
	if i := q.links.Get(l).open; i > 0 { // a link with an open ticket is in links
		return q.all[i-1]
	}
	return nil
}

// OpenCount reports the number of unresolved tickets.
func (q *Queue) OpenCount() int { return q.open }

// Resolved reports the number of resolved tickets.
func (q *Queue) Resolved() int { return q.resolved }

// FirstAttemptSuccessRate computes, over resolved tickets, the fraction of
// links repaired on their first attempt — the §7.2 accuracy metric (50%
// before CorrOpt, 80% when recommendations are followed).
func (q *Queue) FirstAttemptSuccessRate() float64 {
	if q.firstTries == 0 {
		return 0
	}
	return float64(q.firstFixes) / float64(q.firstTries)
}

// MeanAttempts reports the average number of attempts per repaired link: over
// the links with at least one successful ticket, the mean of the highest
// attempt number any of the link's tickets reached.
func (q *Queue) MeanAttempts() float64 {
	if q.repairedLinks == 0 {
		return 0
	}
	return float64(q.attemptSum) / float64(q.repairedLinks)
}
