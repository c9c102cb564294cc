// Package tickets models the repair workflow of §5.2: every disabled link
// gets a maintenance ticket; tickets wait in a FIFO queue for a technician;
// a repair attempt takes on average two days; an attempt that misses the
// root cause leaves the link corrupting, so it is re-disabled and re-queued
// — each failed attempt adds two more days of downtime (Figure 12).
package tickets

import (
	"container/heap"
	"fmt"
	"slices"
	"time"

	"corropt/internal/faults"
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
	// Recommendation is the engine's suggested repair; ActionUnknown when
	// no recommendation could be generated.
	Recommendation faults.RepairAction
	// Attempt is 1 for the link's first repair try, incrementing across
	// re-opened tickets (Figure 12's unsuccessful-repair loop).
	Attempt int
	Status  Status
	// CreatedAt, StartedAt and ResolvedAt are virtual times.
	CreatedAt, StartedAt, ResolvedAt time.Duration
	// ActionTaken is what the technician actually did.
	ActionTaken faults.RepairAction
	// Succeeded records whether the repair eliminated corruption.
	Succeeded bool
	// Diary collects free-form log lines, mirroring the ticket diaries
	// the paper's analysis reads.
	Diary []string
}

// Log appends a diary line.
func (t *Ticket) Log(format string, args ...interface{}) {
	t.Diary = append(t.Diary, fmt.Sprintf(format, args...))
}

// QueueConfig parameterizes the repair queue.
type QueueConfig struct {
	// ServiceTime is how long one repair attempt takes once started;
	// default 48h (the two-day average of §5.2).
	ServiceTime time.Duration
	// Technicians bounds concurrent repairs; 0 means unlimited, which
	// reproduces §7.1's simulation model where every ticket resolves a
	// fixed two days after creation.
	Technicians int
	// Quiet suppresses diary lines. The experiment drivers never read
	// diaries (only the diary tests do), and each line costs a Sprintf on
	// the hot ticket path, so pooled simulation scratch runs quiet.
	Quiet bool
}

func (c *QueueConfig) fillDefaults() {
	if c.ServiceTime == 0 {
		c.ServiceTime = 48 * time.Hour
	}
}

// Queue is the FIFO maintenance queue.
type Queue struct {
	cfg    QueueConfig
	nextID int64
	// workers holds the busy-until time of each technician when bounded.
	workers busyHeap
	open    map[int64]*Ticket
	history []*Ticket
	// attempts tracks per-link repair attempts for Attempt numbering.
	attempts map[topology.LinkID]int
	// free holds recycled tickets, refilled from history by Reset so a
	// reused queue's Open path allocates nothing in steady state.
	free []*Ticket
	// keys is MeanAttempts' sort buffer, kept across calls and Resets.
	keys []uint64
}

type busyHeap []time.Duration

func (h busyHeap) Len() int            { return len(h) }
func (h busyHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h busyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *busyHeap) Push(x interface{}) { *h = append(*h, x.(time.Duration)) }
func (h *busyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// NewQueue returns an empty Queue.
func NewQueue(cfg QueueConfig) *Queue {
	cfg.fillDefaults()
	q := &Queue{
		cfg:      cfg,
		open:     make(map[int64]*Ticket),
		attempts: make(map[topology.LinkID]int),
	}
	for i := 0; i < cfg.Technicians; i++ {
		q.workers = append(q.workers, 0)
	}
	return q
}

// Reset empties the queue back to its NewQueue(cfg) state, recycling every
// resolved ticket for reuse by subsequent Opens. Tickets handed out before
// Reset are invalidated (their fields will be overwritten); callers must
// drop all ticket pointers first, the discipline sim.Scratch follows
// between scenarios.
func (q *Queue) Reset(cfg QueueConfig) {
	cfg.fillDefaults()
	q.cfg = cfg
	q.nextID = 0
	// Open tickets still live in q.open (never resolved); recycle them too.
	for _, t := range q.open {
		q.free = append(q.free, t)
	}
	clear(q.open)
	q.free = append(q.free, q.history...)
	q.history = q.history[:0]
	clear(q.attempts)
	q.workers = q.workers[:0]
	for i := 0; i < cfg.Technicians; i++ {
		q.workers = append(q.workers, 0)
	}
}

// newTicket returns a zeroed ticket, recycled when the free list has one.
func (q *Queue) newTicket() *Ticket {
	if n := len(q.free); n > 0 {
		t := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		diary := t.Diary[:0]
		*t = Ticket{Diary: diary}
		return t
	}
	return &Ticket{}
}

// Open creates a ticket for link l at virtual time now and returns it along
// with the virtual time its repair attempt will complete. With unlimited
// technicians that is now + ServiceTime; with a bounded crew the ticket
// waits for the first free technician (FIFO).
func (q *Queue) Open(l topology.LinkID, rec faults.RepairAction, now time.Duration) (*Ticket, time.Duration) {
	q.attempts[l]++
	t := q.newTicket()
	t.ID = q.nextID
	t.Link = l
	t.Recommendation = rec
	t.Attempt = q.attempts[l]
	t.Status = Queued
	t.CreatedAt = now
	q.nextID++
	start := now
	if len(q.workers) > 0 {
		free := heap.Pop(&q.workers).(time.Duration)
		if free > start {
			start = free
		}
		heap.Push(&q.workers, start+q.cfg.ServiceTime)
	}
	t.StartedAt = start
	t.Status = InRepair
	done := start + q.cfg.ServiceTime
	q.open[t.ID] = t
	if !q.cfg.Quiet {
		t.Log("opened at %v, repair scheduled to finish at %v (attempt %d, recommendation %v)",
			now, done, t.Attempt, rec)
	}
	return t, done
}

// Resolve marks a ticket finished at virtual time now, recording the action
// taken and whether it succeeded.
func (q *Queue) Resolve(t *Ticket, now time.Duration, action faults.RepairAction, succeeded bool) error {
	if _, ok := q.open[t.ID]; !ok {
		return fmt.Errorf("tickets: ticket %d is not open", t.ID)
	}
	delete(q.open, t.ID)
	t.Status = Resolved
	t.ResolvedAt = now
	t.ActionTaken = action
	t.Succeeded = succeeded
	if !q.cfg.Quiet {
		t.Log("resolved at %v: action %v, success %v", now, action, succeeded)
	}
	q.history = append(q.history, t)
	if succeeded {
		// The repair episode is over; a future fault on the same link
		// starts a fresh first attempt.
		delete(q.attempts, t.Link)
	}
	return nil
}

// OpenCount reports the number of unresolved tickets.
func (q *Queue) OpenCount() int { return len(q.open) }

// History returns resolved tickets in resolution order. The slice is
// shared; callers must not mutate it.
func (q *Queue) History() []*Ticket { return q.history }

// FirstAttemptSuccessRate computes, over resolved tickets, the fraction of
// links repaired on their first attempt — the §7.2 accuracy metric (50%
// before CorrOpt, 80% when recommendations are followed).
func (q *Queue) FirstAttemptSuccessRate() float64 {
	first, succeeded := 0, 0
	for _, t := range q.history {
		if t.Attempt == 1 {
			first++
			if t.Succeeded {
				succeeded++
			}
		}
	}
	if first == 0 {
		return 0
	}
	return float64(succeeded) / float64(first)
}

// MeanAttempts reports the average number of attempts per repaired link: over
// the links with at least one successful ticket, the mean of the highest
// attempt number any of the link's tickets reached. It sorts one packed
// (link, attempt, succeeded) key per resolved ticket in a buffer the queue
// keeps, so a reused queue answers without allocating.
func (q *Queue) MeanAttempts() float64 {
	keys := q.keys[:0]
	for _, t := range q.history {
		k := uint64(uint32(t.Link))<<32 | uint64(uint32(t.Attempt))<<1
		if t.Succeeded {
			k |= 1
		}
		keys = append(keys, k)
	}
	q.keys = keys
	slices.Sort(keys)
	sum, links := 0, 0
	succeeded := false
	for i, k := range keys {
		succeeded = succeeded || k&1 == 1
		if i+1 < len(keys) && keys[i+1]>>32 == k>>32 {
			continue
		}
		// k is the link's last key, so it carries the highest attempt.
		if succeeded {
			sum += int(uint32(k) >> 1)
			links++
		}
		succeeded = false
	}
	if links == 0 {
		return 0
	}
	return float64(sum) / float64(links)
}
