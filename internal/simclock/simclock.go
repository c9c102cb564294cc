// Package simclock implements the discrete-event simulation core that drives
// every trace-based experiment in this repository: a virtual clock, an event
// heap ordered by firing time, and helpers for periodic tasks such as the
// 15-minute telemetry polls the paper's monitoring system performs.
//
// The simulator is single-goroutine by design: all experiment state is
// mutated from event callbacks in deterministic order, which keeps the
// regenerated tables and figures reproducible.
package simclock

import (
	"container/heap"
	"errors"
	"time"
)

// Event is a callback scheduled to run at a virtual time.
type Event func(now time.Duration)

type item struct {
	at   time.Duration
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	fn   Event
	dead bool
}

type eventHeap []*item

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*item)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct{ it *item }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.it != nil {
		h.it.dead = true
	}
}

// Clock is a virtual clock with an event queue.
//
// A Clock recycles event items across Reset: every item popped by Step is
// parked and handed back to At by the next simulation run, so a reused
// Clock's event path allocates nothing in steady state. Items are only
// recycled wholesale at Reset — never while their Handles could still be
// cancelled — so Cancel stays safe for the whole run that created the
// Handle.
type Clock struct {
	now time.Duration
	q   eventHeap
	seq uint64
	// free holds recycled items available to At; spent holds items popped by
	// Step since the last Reset, parked until Reset moves them to free.
	free  []*item
	spent []*item
}

// New returns a Clock at virtual time zero.
func New() *Clock { return &Clock{} }

// Reset rewinds the clock to virtual time zero with an empty queue,
// recycling every event item (pending and fired) for reuse by subsequent
// scheduling. Handles obtained before Reset are invalidated: cancelling one
// afterwards could mark a recycled item dead and silently drop an unrelated
// future event, so callers must drop all Handles before resetting — the
// discipline sim.Scratch follows between scenarios.
func (c *Clock) Reset() {
	for _, it := range c.q {
		it.fn = nil
		c.free = append(c.free, it)
	}
	c.q = c.q[:0]
	c.free = append(c.free, c.spent...)
	c.spent = c.spent[:0]
	c.now = 0
	c.seq = 0
}

// newItem returns a zeroed item, recycled when the free list has one.
func (c *Clock) newItem() *item {
	if n := len(c.free); n > 0 {
		it := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		*it = item{}
		return it
	}
	return &item{}
}

// Now reports the current virtual time as an offset from the simulation
// start.
func (c *Clock) Now() time.Duration { return c.now }

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// is an error.
func (c *Clock) At(at time.Duration, fn Event) (Handle, error) {
	if at < c.now {
		return Handle{}, errors.New("simclock: schedule in the past")
	}
	it := c.newItem()
	it.at, it.seq, it.fn = at, c.seq, fn
	c.seq++
	heap.Push(&c.q, it)
	return Handle{it: it}, nil
}

// After schedules fn to run d after the current virtual time.
func (c *Clock) After(d time.Duration, fn Event) Handle {
	h, err := c.At(c.now+d, fn)
	if err != nil {
		// c.now+d < c.now only on overflow; treat as immediate.
		h, _ = c.At(c.now, fn)
	}
	return h
}

// Every schedules fn to run every period, starting one period from now,
// until the returned Handle is cancelled or the simulation ends.
func (c *Clock) Every(period time.Duration, fn Event) Handle {
	if period <= 0 {
		panic("simclock: non-positive period")
	}
	// The outer item stands for the whole series so a single Cancel stops
	// future firings even though each firing schedules the next one.
	series := &item{}
	var tick Event
	tick = func(now time.Duration) {
		if series.dead {
			return
		}
		fn(now)
		if series.dead {
			return
		}
		c.After(period, tick)
	}
	c.After(period, tick)
	return Handle{it: series}
}

// Step runs the earliest pending event, advancing the clock to its firing
// time. It reports false when the queue is empty.
func (c *Clock) Step() bool {
	for c.q.Len() > 0 {
		it := heap.Pop(&c.q).(*item)
		if it.dead {
			// Park the cancelled item too: its Handle can still be
			// re-cancelled (a no-op on a dead item), so recycling waits for
			// Reset like everything else.
			it.fn = nil
			c.spent = append(c.spent, it)
			continue
		}
		c.now = it.at
		// Park before firing; Cancel on an already-fired Handle stays a
		// harmless dead-mark because the item is out of the queue and only
		// recycled at the next Reset.
		fn := it.fn
		it.fn = nil
		c.spent = append(c.spent, it)
		fn(c.now)
		return true
	}
	return false
}

// RunUntil processes events in order until the queue is empty or the next
// event would fire after deadline, then advances the clock to deadline.
func (c *Clock) RunUntil(deadline time.Duration) { c.run(deadline, true) }

// RunBefore processes, in order, every event that fires strictly before t,
// then advances the clock to t. Events at t itself stay queued, so a caller
// streaming its own sorted events can merge them in: RunBefore(e.At), then
// run e, and e fires ahead of everything the queue holds for that instant.
func (c *Clock) RunBefore(t time.Duration) { c.run(t, false) }

// run processes events up to limit (inclusive or not), then advances the
// clock to limit.
func (c *Clock) run(limit time.Duration, inclusive bool) {
	for c.q.Len() > 0 {
		// Peek: find the earliest live event.
		it := c.q[0]
		if it.dead {
			heap.Pop(&c.q)
			continue
		}
		if it.at > limit || (it.at == limit && !inclusive) {
			break
		}
		c.Step()
	}
	if c.now < limit {
		c.now = limit
	}
}

// Run processes all pending events to completion.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// Pending reports the number of events (including cancelled but not yet
// reaped ones) in the queue; useful in tests.
func (c *Clock) Pending() int {
	n := 0
	for _, it := range c.q {
		if !it.dead {
			n++
		}
	}
	return n
}
