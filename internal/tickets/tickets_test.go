package tickets

import (
	"testing"
	"time"

	"corropt/internal/faults"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

func TestOpenResolveUnlimited(t *testing.T) {
	q := NewQueue(QueueConfig{})
	tk, done := q.Open(3, faults.ActionCleanFiber, 10*time.Hour)
	if done != 10*time.Hour+48*time.Hour {
		t.Fatalf("completion = %v, want created + 48h", done)
	}
	if tk.Attempt != 1 || tk.Status != InRepair {
		t.Fatalf("ticket %+v", tk)
	}
	if q.OpenCount() != 1 {
		t.Fatal("open count wrong")
	}
	if err := q.Resolve(tk, done, faults.ActionCleanFiber, true); err != nil {
		t.Fatal(err)
	}
	if q.OpenCount() != 0 || q.Resolved() != 1 {
		t.Fatal("resolution bookkeeping wrong")
	}
	if err := q.Resolve(tk, done, faults.ActionCleanFiber, true); err == nil {
		t.Fatal("double resolve accepted")
	}
}

// TestResolveRecycledTicket pins Resolve's contract: a resolved ticket is
// recycled by the next Open, after which a stale pointer to it names, and
// resolves, the reopened ticket.
func TestResolveRecycledTicket(t *testing.T) {
	q := NewQueue(QueueConfig{})
	stale, d := q.Open(1, faults.ActionCleanFiber, 0)
	if err := q.Resolve(stale, d, faults.ActionCleanFiber, true); err != nil {
		t.Fatal(err)
	}
	reopened, d2 := q.Open(2, faults.ActionReplaceFiber, d)
	if reopened != stale || stale.Link != 2 || stale.ID != 1 {
		t.Fatalf("Open did not recycle the resolved ticket: %+v", stale)
	}
	if err := q.Resolve(stale, d2, faults.ActionReplaceFiber, false); err != nil {
		t.Fatalf("stale pointer to a reopened ticket rejected: %v", err)
	}
	if q.OpenCount() != 0 || q.Resolved() != 2 || reopened.Status != Resolved {
		t.Fatalf("open %d, resolved %d, status %v", q.OpenCount(), q.Resolved(), reopened.Status)
	}
	if err := q.Resolve(stale, d2, faults.ActionReplaceFiber, false); err == nil {
		t.Fatal("double resolve accepted")
	}
}

func TestAttemptNumbering(t *testing.T) {
	q := NewQueue(QueueConfig{})
	t1, d1 := q.Open(5, faults.ActionCleanFiber, 0)
	q.Resolve(t1, d1, faults.ActionCleanFiber, false)
	t2, _ := q.Open(5, faults.ActionReplaceFiber, d1)
	if t2.Attempt != 2 {
		t.Fatalf("second ticket attempt = %d, want 2", t2.Attempt)
	}
	// A different link starts at 1.
	t3, _ := q.Open(6, faults.ActionCleanFiber, d1)
	if t3.Attempt != 1 {
		t.Fatalf("other link attempt = %d, want 1", t3.Attempt)
	}
}

func TestBoundedTechnicians(t *testing.T) {
	q := NewQueue(QueueConfig{Staffing: Staffing{Technicians: 1, ServiceTime: 48 * time.Hour}})
	_, d1 := q.Open(1, faults.ActionUnknown, 0)
	_, d2 := q.Open(2, faults.ActionUnknown, 0)
	if d1 != 48*time.Hour {
		t.Fatalf("first completion = %v", d1)
	}
	// Second ticket waits for the single technician: FIFO.
	if d2 != 96*time.Hour {
		t.Fatalf("second completion = %v, want 96h", d2)
	}
	// A ticket arriving later than the backlog clears starts immediately.
	_, d3 := q.Open(3, faults.ActionUnknown, 200*time.Hour)
	if d3 != 248*time.Hour {
		t.Fatalf("third completion = %v, want 248h", d3)
	}
}

func TestFirstAttemptSuccessRate(t *testing.T) {
	q := NewQueue(QueueConfig{})
	// Link 1: fixed first try. Link 2: fails then fixed.
	t1, d1 := q.Open(1, faults.ActionCleanFiber, 0)
	q.Resolve(t1, d1, faults.ActionCleanFiber, true)
	t2, d2 := q.Open(2, faults.ActionCleanFiber, 0)
	q.Resolve(t2, d2, faults.ActionCleanFiber, false)
	t3, d3 := q.Open(2, faults.ActionReplaceFiber, d2)
	q.Resolve(t3, d3, faults.ActionReplaceFiber, true)

	if got := q.FirstAttemptSuccessRate(); got != 0.5 {
		t.Fatalf("first-attempt success = %v, want 0.5", got)
	}
	if got := q.MeanAttempts(); got != 1.5 {
		t.Fatalf("mean attempts = %v, want 1.5", got)
	}
}

func TestTechnicianFollowsRecommendation(t *testing.T) {
	tech := NewTechnician(1.0, rngutil.New(1))
	tk := &Ticket{Recommendation: faults.ActionReplaceSharedComponent, Attempt: 1}
	for i := 0; i < 10; i++ {
		if got := tech.ChooseAction(tk, faults.BadTransceiver); got != faults.ActionReplaceSharedComponent {
			t.Fatalf("always-follow technician chose %v", got)
		}
	}
}

func TestTechnicianIgnoresWhenUnknown(t *testing.T) {
	tech := NewTechnician(1.0, rngutil.New(2))
	tk := &Ticket{Recommendation: faults.ActionUnknown, Attempt: 1}
	seen := make(map[faults.RepairAction]bool)
	for i := 0; i < 100; i++ {
		seen[tech.ChooseAction(tk, faults.BadTransceiver)] = true
	}
	if seen[faults.ActionUnknown] {
		t.Fatal("technician 'took' the unknown action")
	}
	if len(seen) < 2 {
		t.Fatal("legacy guess shows no variety")
	}
}

func TestTechnicianLegacyAccuracyNearHalf(t *testing.T) {
	// Against the paper's root-cause mix, the legacy cause-agnostic
	// procedure should land near the measured 50% first-attempt success.
	tech := NewTechnician(0, rngutil.New(3))
	mix := faults.DefaultCauseMix()
	rng := rngutil.New(4)
	hits, n := 0, 20000
	for i := 0; i < n; i++ {
		cause := mix.Sample(rng.Float64())
		action := tech.ChooseAction(&Ticket{Attempt: 1}, cause)
		if ActionFixes(action, cause) {
			hits++
		}
	}
	acc := float64(hits) / float64(n)
	if acc < 0.40 || acc > 0.60 {
		t.Fatalf("legacy first-attempt accuracy = %v, want ≈0.5", acc)
	}
}

func TestActionFixes(t *testing.T) {
	if !ActionFixes(faults.ActionCleanFiber, faults.ConnectorContamination) {
		t.Fatal("cleaning should fix contamination")
	}
	if ActionFixes(faults.ActionCleanFiber, faults.BadTransceiver) {
		t.Fatal("cleaning should not fix a bad transceiver")
	}
	if !ActionFixes(faults.ActionReplaceFiber, faults.ConnectorContamination) {
		t.Fatal("replacing the fiber renews connectors too")
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{Queued, InRepair, Resolved} {
		if s.String() == "" || len(s.String()) > 20 {
			t.Fatalf("status %d name %q", int(s), s.String())
		}
	}
	if Status(99).String() != "Status(99)" {
		t.Fatal("unknown status formatting broken")
	}
}

// resolvedTicket is one entry of a test's own log of resolves.
type resolvedTicket struct {
	Link      topology.LinkID
	Attempt   int
	Succeeded bool
}

// mapMeanAttempts is the map-based MeanAttempts the running tally replaced,
// kept as its reference: per link with a successful ticket, the highest
// attempt, over a log of every resolved ticket.
func mapMeanAttempts(log []resolvedTicket) float64 {
	perLink := make(map[topology.LinkID]int)
	success := make(map[topology.LinkID]bool)
	for _, t := range log {
		perLink[t.Link] = max(perLink[t.Link], t.Attempt)
		if t.Succeeded {
			success[t.Link] = true
		}
	}
	if len(success) == 0 {
		return 0
	}
	sum := 0
	for l := range success {
		sum += perLink[l]
	}
	return float64(sum) / float64(len(success))
}

// TestMeanAttemptsMatchesMapReference replays random open/resolve sequences
// — several episodes per link, some ending unrepaired — across Resets of one
// queue and requires MeanAttempts to equal the map reference over the test's
// own log of resolves exactly.
func TestMeanAttemptsMatchesMapReference(t *testing.T) {
	q := NewQueue(QueueConfig{})
	rng := rngutil.New(7)
	for run := 0; run < 20; run++ {
		q.Reset(QueueConfig{})
		var log []resolvedTicket
		now := time.Duration(0)
		for i := 0; i < 300; i++ {
			l := topology.LinkID(rng.Intn(40) * 1000003 % (1 << 30))
			tk, done := q.Open(l, faults.ActionUnknown, now)
			now = done
			ok := rng.Bool(0.4)
			log = append(log, resolvedTicket{Link: tk.Link, Attempt: tk.Attempt, Succeeded: ok})
			if err := q.Resolve(tk, done, faults.ActionUnknown, ok); err != nil {
				t.Fatal(err)
			}
			if got, want := q.MeanAttempts(), mapMeanAttempts(log); got != want {
				t.Fatalf("run %d ticket %d: MeanAttempts = %v, map reference %v", run, i, got, want)
			}
		}
	}
}

func TestMeanAttemptsEmpty(t *testing.T) {
	q := NewQueue(QueueConfig{})
	if q.MeanAttempts() != 0 || q.FirstAttemptSuccessRate() != 0 {
		t.Fatal("empty queue statistics should be zero")
	}
}

func TestAttemptResetAfterSuccess(t *testing.T) {
	q := NewQueue(QueueConfig{})
	t1, d1 := q.Open(9, faults.ActionCleanFiber, 0)
	q.Resolve(t1, d1, faults.ActionCleanFiber, true)
	// A NEW fault on the same link months later is a fresh episode.
	t2, _ := q.Open(9, faults.ActionCleanFiber, d1+1000)
	if t2.Attempt != 1 {
		t.Fatalf("new episode attempt = %d, want 1", t2.Attempt)
	}
}

func TestTechnicianEscalatesLate(t *testing.T) {
	tech := NewTechnician(0, rngutil.New(8))
	// By attempt 3 the legacy procedure replaces hardware.
	seen := make(map[faults.RepairAction]bool)
	for i := 0; i < 50; i++ {
		seen[tech.ChooseAction(&Ticket{Attempt: 3}, faults.BadTransceiver)] = true
	}
	if seen[faults.ActionCleanFiber] || seen[faults.ActionReseatTransceiver] {
		t.Fatalf("third attempt still trying first-line actions: %v", seen)
	}
}

// TestQueueReset pins that Reset restores a pooled queue to its NewQueue
// state: IDs and attempt numbering restart, the tallies empty, and the
// technician pool is rebuilt for the new config.
func TestQueueReset(t *testing.T) {
	q := NewQueue(QueueConfig{Staffing: Staffing{Technicians: 1}})
	t1, d1 := q.Open(4, faults.ActionCleanFiber, 0)
	q.Resolve(t1, d1, faults.ActionCleanFiber, false)
	q.Open(4, faults.ActionCleanFiber, d1) // left open across Reset

	q.Reset(QueueConfig{Staffing: Staffing{Technicians: 2}})
	if q.OpenCount() != 0 || q.Resolved() != 0 {
		t.Fatalf("Reset left %d open, %d resolved", q.OpenCount(), q.Resolved())
	}
	t2, _ := q.Open(4, faults.ActionCleanFiber, 0)
	if t2.ID != 0 || t2.Attempt != 1 {
		t.Fatalf("post-Reset ticket ID=%d attempt=%d, want 0 and 1", t2.ID, t2.Attempt)
	}
	// Two technicians now: a second concurrent ticket starts immediately.
	t3, d3 := q.Open(5, faults.ActionCleanFiber, 0)
	if t3.StartedAt != 0 {
		t.Fatalf("second technician busy at %v, want 0", t3.StartedAt)
	}
	if err := q.Resolve(t3, d3, faults.ActionCleanFiber, true); err != nil {
		t.Fatal(err)
	}
}

// TestQueueResetRecyclesTickets pins the ticket arena: a warm
// open/resolve/Reset cycle allocates no tickets.
func TestQueueResetRecyclesTickets(t *testing.T) {
	q := NewQueue(QueueConfig{})
	cycle := func() {
		for i := 0; i < 16; i++ {
			tk, done := q.Open(topology.LinkID(i), faults.ActionCleanFiber, 0)
			if err := q.Resolve(tk, done, faults.ActionCleanFiber, true); err != nil {
				panic(err)
			}
		}
		q.Reset(QueueConfig{})
	}
	cycle() // warm up the free list and map capacity
	allocs := testing.AllocsPerRun(10, cycle)
	// The open/attempts maps may rehash; tickets themselves must recycle.
	if allocs > 2 {
		t.Fatalf("warm open/resolve/Reset cycle allocates %v per run", allocs)
	}
}
