package simclock

import (
	"testing"
	"time"
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
	if c.Pending() != 1 {
		t.Fatalf("%d events pending, want the one at 3s", c.Pending())
	}
}

func TestSchedulingInPast(t *testing.T) {
	c := New()
	c.After(time.Second, func(time.Duration) {})
	c.Run()
	if _, err := c.At(0, func(time.Duration) {}); err == nil {
		t.Fatal("scheduling in the past should fail")
	}
}

func TestCancel(t *testing.T) {
	c := New()
	fired := false
	h := c.After(time.Second, func(time.Duration) { fired = true })
	h.Cancel()
	c.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEvery(t *testing.T) {
	c := New()
	ticks := 0
	h := c.Every(time.Minute, func(now time.Duration) {
		ticks++
		if ticks == 5 {
			// Cancelling from inside the callback must stop the series.
		}
	})
	c.RunUntil(5 * time.Minute)
	if ticks != 5 {
		t.Fatalf("got %d ticks in 5 minutes, want 5", ticks)
	}
	h.Cancel()
	c.RunUntil(10 * time.Minute)
	if ticks != 5 {
		t.Fatalf("cancelled Every still ticking: %d", ticks)
	}
}

func TestEveryCancelFromCallback(t *testing.T) {
	c := New()
	ticks := 0
	var h Handle
	h = c.Every(time.Minute, func(now time.Duration) {
		ticks++
		if ticks == 3 {
			h.Cancel()
		}
	})
	c.RunUntil(time.Hour)
	if ticks != 3 {
		t.Fatalf("got %d ticks, want 3 after self-cancel", ticks)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	c := New()
	c.After(time.Second, func(time.Duration) {})
	c.After(time.Hour, func(time.Duration) {})
	c.RunUntil(time.Minute)
	if c.Now() != time.Minute {
		t.Fatalf("clock at %v, want 1m", c.Now())
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", c.Pending())
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
		h := c.After(2*time.Second, func(now time.Duration) { fired = append(fired, now) })
		c.After(3*time.Second, func(now time.Duration) { fired = append(fired, now) })
		h.Cancel()
		c.RunUntil(10 * time.Second)
		return fired
	}
	first := run()
	if c.Now() != 10*time.Second {
		t.Fatalf("clock at %v before Reset", c.Now())
	}
	c.Reset()
	if c.Now() != 0 || c.Pending() != 0 {
		t.Fatalf("Reset left now=%v pending=%d", c.Now(), c.Pending())
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

// TestClockResetRecyclesItems pins the arena: after a warm-up cycle, a
// schedule/run/Reset round allocates no event items.
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
	cycle() // warm up the free list and heap capacity
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs > 0 {
		t.Fatalf("warm schedule/run/Reset cycle allocates %v per run, want 0", allocs)
	}
}
