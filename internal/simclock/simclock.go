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
	"errors"
	"time"
)

// Event is a callback scheduled to run at a virtual time.
type Event func(now time.Duration)

// item is one scheduled event. (at, seq) is a total order, so the pop order
// is a pure function of the schedule.
type item struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among events at the same instant
	fn  Event
}

func (a *item) before(b *item) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Clock is a virtual clock with an event queue: a binary min-heap of item
// values ordered by (at, seq), sifted inline. A scheduled event cannot be
// cancelled. The heap's backing array survives Reset, so a reused Clock's
// event path allocates nothing once it has grown to the run's peak.
type Clock struct {
	now time.Duration
	q   []item
	seq uint64
}

// New returns a Clock at virtual time zero.
func New() *Clock { return &Clock{} }

// Reset rewinds the clock to virtual time zero with an empty queue, keeping
// the queue's storage for the next run.
func (c *Clock) Reset() {
	clear(c.q) // drop the callbacks' closures
	c.q = c.q[:0]
	c.now = 0
	c.seq = 0
}

// Now reports the current virtual time as an offset from the simulation
// start.
func (c *Clock) Now() time.Duration { return c.now }

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// is an error.
func (c *Clock) At(at time.Duration, fn Event) error {
	if at < c.now {
		return errors.New("simclock: schedule in the past")
	}
	c.push(item{at: at, seq: c.seq, fn: fn})
	c.seq++
	return nil
}

// After schedules fn to run d after the current virtual time.
func (c *Clock) After(d time.Duration, fn Event) {
	if c.At(c.now+d, fn) != nil {
		// c.now+d < c.now only on overflow; treat as immediate.
		_ = c.At(c.now, fn)
	}
}

// Every schedules fn to run every period, starting one period from now,
// until the simulation ends.
func (c *Clock) Every(period time.Duration, fn Event) {
	if period <= 0 {
		panic("simclock: non-positive period")
	}
	var tick Event
	tick = func(now time.Duration) {
		fn(now)
		c.After(period, tick)
	}
	c.After(period, tick)
}

// push adds it to the heap, sifting it up from the last slot.
func (c *Clock) push(it item) {
	c.q = append(c.q, it)
	q := c.q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the earliest item, sifting the last one down from
// the root.
func (c *Clock) pop() item {
	q := c.q
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = item{}
	q = q[:n]
	c.q = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q[r].before(&q[l]) {
			m = r
		}
		if !q[m].before(&q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}

// Step runs the earliest pending event, advancing the clock to its firing
// time. It reports false when the queue is empty.
func (c *Clock) Step() bool {
	if len(c.q) == 0 {
		return false
	}
	it := c.pop()
	c.now = it.at
	it.fn(c.now)
	return true
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
	for len(c.q) > 0 {
		if at := c.q[0].at; at > limit || (at == limit && !inclusive) {
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
