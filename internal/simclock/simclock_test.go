package simclock

import (
	"reflect"
	"testing"
	"time"

	"corropt/internal/rngutil"
)

func TestEventOrdering(t *testing.T) {
	c := New()
	var order []int
	c.After(3*time.Second, func(time.Duration) { order = append(order, 3) })
	c.After(1*time.Second, func(time.Duration) { order = append(order, 1) })
	c.After(2*time.Second, func(time.Duration) { order = append(order, 2) })
	c.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v", order)
	}
	if c.Now() != 3*time.Second {
		t.Fatalf("clock at %v, want 3s", c.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.After(time.Second, func(time.Duration) { order = append(order, i) })
	}
	c.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

// TestRunBefore: events strictly before t run, the clock lands on t, and
// events at t wait, so work done at t by the caller comes first.
func TestRunBefore(t *testing.T) {
	c := New()
	var order []string
	c.After(time.Second, func(time.Duration) { order = append(order, "1s") })
	c.After(2*time.Second, func(time.Duration) { order = append(order, "2s") })
	c.After(3*time.Second, func(time.Duration) { order = append(order, "3s") })
	c.RunBefore(2 * time.Second)
	if c.Now() != 2*time.Second || len(order) != 1 || order[0] != "1s" {
		t.Fatalf("after RunBefore(2s): clock %v, fired %v; want 2s, [1s]", c.Now(), order)
	}
	order = append(order, "caller")
	c.After(0, func(time.Duration) { order = append(order, "scheduled at 2s") })
	c.RunBefore(2 * time.Second) // nothing is strictly before 2s now
	c.RunUntil(2 * time.Second)
	want := []string{"1s", "caller", "2s", "scheduled at 2s"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	c.Run()
	if got := order[len(order)-1]; len(order) != 5 || got != "3s" {
		t.Fatalf("fired %v, want the event at 3s last", order)
	}
}

func TestSchedulingInPast(t *testing.T) {
	c := New()
	c.After(time.Second, func(time.Duration) {})
	c.Run()
	if err := c.At(0, func(time.Duration) {}); err == nil {
		t.Fatal("scheduling in the past should fail")
	}
}

func TestEvery(t *testing.T) {
	c := New()
	var ticks []time.Duration
	c.Every(time.Minute, func(now time.Duration) { ticks = append(ticks, now) })
	c.RunUntil(5 * time.Minute)
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks in 5 minutes, want 5", len(ticks))
	}
	for i, at := range ticks {
		if at != time.Duration(i+1)*time.Minute {
			t.Fatalf("ticks at %v, want one per minute from 1m", ticks)
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	c := New()
	fired := 0
	c.After(time.Second, func(time.Duration) { fired++ })
	c.After(time.Hour, func(time.Duration) { fired++ })
	c.RunUntil(time.Minute)
	if c.Now() != time.Minute || fired != 1 {
		t.Fatalf("clock at %v after %d events, want 1m after 1", c.Now(), fired)
	}
	c.Run()
	if c.Now() != time.Hour || fired != 2 {
		t.Fatalf("clock at %v after %d events, want 1h after 2", c.Now(), fired)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	c := New()
	var seq []time.Duration
	c.After(time.Second, func(now time.Duration) {
		seq = append(seq, now)
		c.After(time.Second, func(now time.Duration) {
			seq = append(seq, now)
		})
	})
	c.Run()
	if len(seq) != 2 || seq[0] != time.Second || seq[1] != 2*time.Second {
		t.Fatalf("chained events: %v", seq)
	}
}

func TestEveryPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) should panic")
		}
	}()
	New().Every(0, func(time.Duration) {})
}

// TestClockReset pins that Reset rewinds to a fresh-clock state and that a
// reused clock replays the same schedule identically.
func TestClockReset(t *testing.T) {
	c := New()
	run := func() []time.Duration {
		var fired []time.Duration
		c.After(time.Second, func(now time.Duration) { fired = append(fired, now) })
		c.After(3*time.Second, func(now time.Duration) { fired = append(fired, now) })
		c.After(20*time.Second, func(now time.Duration) { fired = append(fired, now) })
		c.RunUntil(10 * time.Second)
		return fired
	}
	first := run()
	if c.Now() != 10*time.Second {
		t.Fatalf("clock at %v before Reset", c.Now())
	}
	c.Reset()
	if c.Now() != 0 || c.Step() {
		t.Fatalf("Reset left the clock at %v or an event queued", c.Now())
	}
	second := run()
	if len(first) != 2 || len(second) != len(first) {
		t.Fatalf("replay fired %v, first run fired %v", second, first)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay fired at %v, first run at %v", second[i], first[i])
		}
	}
}

// TestClockResetRecyclesItems pins the queue's storage: after a warm-up
// cycle, a schedule/run/Reset round allocates nothing.
func TestClockResetRecyclesItems(t *testing.T) {
	c := New()
	fn := func(time.Duration) {}
	cycle := func() {
		for i := 0; i < 32; i++ {
			c.After(time.Duration(i)*time.Minute, fn)
		}
		c.Run()
		c.Reset()
	}
	cycle() // warm up the heap's capacity
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs > 0 {
		t.Fatalf("warm schedule/run/Reset cycle allocates %v per run, want 0", allocs)
	}
}

// refClock is the order the heap must reproduce: a list of events in
// scheduling order, each step firing the first entry with the smallest time
// (a stable sort by time).
type refClock struct {
	now    time.Duration
	events []refEvent
}

type refEvent struct {
	at time.Duration
	fn Event
}

func (r *refClock) At(at time.Duration, fn Event) {
	r.events = append(r.events, refEvent{at, fn})
}

func (r *refClock) After(d time.Duration, fn Event) { r.At(r.now+d, fn) }

func (r *refClock) Every(period time.Duration, fn Event) {
	var tick Event
	tick = func(now time.Duration) {
		fn(now)
		r.After(period, tick)
	}
	r.After(period, tick)
}

func (r *refClock) RunUntil(limit time.Duration) {
	for {
		first := -1
		for i, e := range r.events {
			if e.at <= limit && (first < 0 || e.at < r.events[first].at) {
				first = i
			}
		}
		if first < 0 {
			break
		}
		e := r.events[first]
		r.events = append(r.events[:first], r.events[first+1:]...)
		r.now = e.at
		e.fn(e.at)
	}
	r.now = max(r.now, limit)
}

// scheduler is what a clock schedule needs of Clock and refClock alike.
type scheduler interface {
	After(time.Duration, Event)
	Every(time.Duration, Event)
}

// schedule plays ops on s and returns the log of (event id, firing time)
// that its events write. Each op is two bytes: a%4 picks At (as an After
// from zero), After from inside a firing event, or Every, and b the delay in
// seconds out of eight, so many events share an instant. Events scheduled
// from callbacks and periodic series interleave with the up-front ones.
func schedule(s scheduler, ops []byte, runUntil func(time.Duration)) [][2]int64 {
	var log [][2]int64
	id := int64(0)
	var event func(id int64, child time.Duration) Event
	event = func(id int64, child time.Duration) Event {
		return func(now time.Duration) {
			log = append(log, [2]int64{id, int64(now)})
			if child >= 0 {
				s.After(child, event(id+1000, -1))
			}
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		a, b := ops[i], ops[i+1]
		d := time.Duration(b%8) * time.Second
		id++
		switch a % 4 {
		case 0, 1:
			s.After(d, event(id, -1))
		case 2:
			s.After(d, event(id, time.Duration(a/4%4)*time.Second))
		case 3:
			s.Every(d+time.Second, event(id, -1))
		}
	}
	runUntil(20 * time.Second)
	return log
}

// FuzzClockOrder holds the heap to the stable sort of its schedule:
// random After, At-like and Every schedules, with many events at equal
// instants and events scheduled from inside callbacks, fire in the order
// refClock gives them.
func FuzzClockOrder(f *testing.F) {
	f.Add([]byte{0, 3, 1, 3, 2, 3, 3, 0, 2, 7, 0, 0, 5, 2, 9, 5})
	f.Add([]byte{3, 1, 3, 1, 0, 1, 1, 1, 6, 1, 10, 2, 14, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		c := New()
		got := schedule(c, ops, c.RunUntil)
		r := &refClock{}
		want := schedule(r, ops, r.RunUntil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("heap fired %v, stable sort %v", got, want)
		}
	})
}

// TestClockOrderProperty runs FuzzClockOrder's property on random
// schedules.
func TestClockOrderProperty(t *testing.T) {
	rng := rngutil.New(1).Split("schedules")
	for range 200 {
		ops := make([]byte, 2+2*rng.Intn(60))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		c := New()
		got := schedule(c, ops, c.RunUntil)
		r := &refClock{}
		if want := schedule(r, ops, r.RunUntil); !reflect.DeepEqual(got, want) {
			t.Fatalf("ops %v: heap fired %v, stable sort %v", ops, got, want)
		}
	}
}
