package tickets

import (
	"fmt"
	"math"
	"testing"
	"time"

	"corropt/internal/faults"
	"corropt/internal/topology"
)

// refQueue is the Queue before its tallies went sparse, kept as the
// reference for FuzzQueueDifferential: a map holds one linkTally for every
// link the queue ever ticketed.
type refQueue struct {
	cfg                       QueueConfig
	nextID                    int64
	workers                   []time.Duration
	links                     map[topology.LinkID]linkTally
	all, free                 []*Ticket
	open, resolved            int
	firstTries, firstFixes    int
	attemptSum, repairedLinks int
}

func newRefQueue(cfg QueueConfig) *refQueue {
	q := &refQueue{links: make(map[topology.LinkID]linkTally)}
	q.Reset(cfg)
	return q
}

func (q *refQueue) Reset(cfg QueueConfig) {
	if cfg.ServiceTime == 0 {
		cfg.ServiceTime = 48 * time.Hour
	}
	*q = refQueue{cfg: cfg, workers: q.workers[:0], links: q.links, all: q.all, free: append(q.free[:0], q.all...)}
	clear(q.links)
	for i := 0; i < cfg.Technicians; i++ {
		q.workers = append(q.workers, 0)
	}
}

func (q *refQueue) newTicket() *Ticket {
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

func (q *refQueue) Open(l topology.LinkID, rec faults.RepairAction, now time.Duration) (*Ticket, time.Duration) {
	t := q.newTicket()
	lt := q.links[l]
	lt.attempts++
	lt.open = t.slot + 1
	q.links[l] = lt
	t.ID = q.nextID
	t.Link = l
	t.Recommendation = rec
	t.Attempt = int(lt.attempts)
	t.CreatedAt = now
	q.nextID++
	start := now
	if len(q.workers) > 0 {
		start = max(start, q.workers[0])
		q.workers[0] = start + q.cfg.ServiceTime
		siftDown(q.workers)
	}
	t.StartedAt = start
	t.Status = InRepair
	q.open++
	return t, start + q.cfg.ServiceTime
}

func (q *refQueue) Resolve(t *Ticket, succeeded bool) error {
	if t.Status != InRepair {
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
	lt := q.links[t.Link]
	if lt.open == t.slot+1 {
		lt.open = 0
	}
	if lt.repaired {
		q.attemptSum -= int(lt.maxAttempt)
	}
	lt.maxAttempt = max(lt.maxAttempt, int32(t.Attempt))
	if succeeded {
		lt.attempts = 0
		if !lt.repaired {
			q.repairedLinks++
		}
		lt.repaired = true
	}
	if lt.repaired {
		q.attemptSum += int(lt.maxAttempt)
	}
	q.links[t.Link] = lt
	q.free = append(q.free, t)
	return nil
}

func (q *refQueue) OpenTicket(l topology.LinkID) *Ticket {
	if i := q.links[l].open; i > 0 {
		return q.all[i-1]
	}
	return nil
}

func (q *refQueue) FirstAttemptSuccessRate() float64 {
	if q.firstTries == 0 {
		return 0
	}
	return float64(q.firstFixes) / float64(q.firstTries)
}

func (q *refQueue) MeanAttempts() float64 {
	if q.repairedLinks == 0 {
		return 0
	}
	return float64(q.attemptSum) / float64(q.repairedLinks)
}

// fuzzLink maps a fuzz byte to one of 64 link ids, 16 in each of four
// 64-bit words of the settled bitset.
func fuzzLink(b byte) topology.LinkID {
	return topology.LinkID(b&15) + 64*topology.LinkID(b>>4&3)
}

// FuzzQueueDifferential drives a Queue and the map-of-tallies refQueue with
// the same random Open, Resolve and Reset sequence: repeated links, failed
// repairs, a second Open of a link before its first ticket resolves, and
// link ids across four words of the settled bitset. Each op is two bytes:
// the op and its argument. After every step the two must agree on every
// ticket Open returned, every link's OpenTicket and tally, OpenCount,
// Resolved, and the bits of FirstAttemptSuccessRate and MeanAttempts; and
// the Queue's map may hold only the links with an open ticket, an
// unfinished episode or a highest attempt of 2 or more.
func FuzzQueueDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 0, 1, 4, 0, 0, 1, 3, 0})
	// Link 1 settles while its attempt-2 ticket is still open.
	f.Add([]byte{0, 1, 0, 1, 3, 0, 0, 1, 3, 2, 3, 1})
	f.Add([]byte{0, 0x15, 0, 0x15, 4, 1, 3, 0, 0, 0x15, 3, 0, 6, 0})
	f.Add([]byte{0, 0x3f, 1, 0x20, 2, 0x0f, 4, 2, 4, 1, 3, 0, 7, 1, 0, 0x3f, 3, 0, 7, 2, 0, 5, 0, 6, 3, 0, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		q, ref := NewQueue(QueueConfig{}), newRefQueue(QueueConfig{})
		type pair struct{ got, want *Ticket }
		var open []pair
		var last *pair // the last resolved pair, until the next Open or Reset
		now := time.Duration(0)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%8, ops[i+1]
			now += time.Duration(arg) * time.Hour
			switch op {
			case 0, 1, 2:
				l := fuzzLink(arg)
				rec := faults.RepairAction(arg % 3)
				got, gotDone := q.Open(l, rec, now)
				want, wantDone := ref.Open(l, rec, now)
				if got.ID != want.ID || got.Attempt != want.Attempt || got.StartedAt != want.StartedAt || gotDone != wantDone {
					t.Fatalf("op %d: Open(%d) = ticket %d attempt %d start %v done %v, reference %d attempt %d start %v done %v",
						i/2, l, got.ID, got.Attempt, got.StartedAt, gotDone, want.ID, want.Attempt, want.StartedAt, wantDone)
				}
				open = append(open, pair{got, want})
				last = nil
			case 3, 4, 5:
				if len(open) == 0 {
					break
				}
				j := int(arg>>1) % len(open)
				p := open[j]
				open = append(open[:j], open[j+1:]...)
				ok := arg&1 == 0
				if err := q.Resolve(p.got, now, faults.ActionUnknown, ok); err != nil {
					t.Fatalf("op %d: %v", i/2, err)
				}
				if err := ref.Resolve(p.want, ok); err != nil {
					t.Fatalf("op %d: reference: %v", i/2, err)
				}
				last = &p
			case 6:
				if last != nil && q.Resolve(last.got, now, faults.ActionUnknown, true) == nil {
					t.Fatalf("op %d: second Resolve of ticket %d accepted", i/2, last.got.ID)
				}
			case 7:
				cfg := QueueConfig{Staffing: Staffing{Technicians: int(arg % 3)}}
				q.Reset(cfg)
				ref.Reset(cfg)
				open, last = open[:0], nil
			}

			if q.OpenCount() != ref.open || q.Resolved() != ref.resolved {
				t.Fatalf("op %d: %d open, %d resolved; reference %d, %d", i/2, q.OpenCount(), q.Resolved(), ref.open, ref.resolved)
			}
			if got, want := q.FirstAttemptSuccessRate(), ref.FirstAttemptSuccessRate(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d: FirstAttemptSuccessRate %v, reference %v", i/2, got, want)
			}
			if got, want := q.MeanAttempts(), ref.MeanAttempts(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d: MeanAttempts %v, reference %v", i/2, got, want)
			}
			kept := 0
			for b := 0; b < 64; b++ {
				l := fuzzLink(byte(b))
				got, want := q.OpenTicket(l), ref.OpenTicket(l)
				if (got == nil) != (want == nil) || got != nil && got.ID != want.ID {
					t.Fatalf("op %d: OpenTicket(%d) = %v, reference %v", i/2, l, got, want)
				}
				lt := ref.links[l]
				if q.tally(l) != lt {
					t.Fatalf("op %d: link %d tally %+v, reference %+v", i/2, l, q.tally(l), lt)
				}
				if lt.open != 0 || lt.attempts > 0 || lt.maxAttempt >= 2 {
					kept++
				}
			}
			if q.links.Len() > kept {
				t.Fatalf("op %d: %d links in the map, %d with an open ticket, an unfinished episode or an attempt past 1", i/2, q.links.Len(), kept)
			}
		}
	})
}

// TestQueueKeepsNoSettledTally pins the sparse tallies: 100,000 distinct
// links, each ticketed once and repaired on the first try, leave no map
// entry, and every statistic as the reference counts it.
func TestQueueKeepsNoSettledTally(t *testing.T) {
	q := NewQueue(QueueConfig{})
	now := time.Duration(0)
	for l := topology.LinkID(0); l < 100_000; l++ {
		tk, done := q.Open(l, faults.ActionCleanFiber, now)
		if err := q.Resolve(tk, done, faults.ActionCleanFiber, true); err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if n := q.links.Len(); n != 0 {
		t.Errorf("%d links in the tally map after 100,000 first-try repairs, want 0", n)
	}
	if q.Resolved() != 100_000 || q.FirstAttemptSuccessRate() != 1 || q.MeanAttempts() != 1 {
		t.Errorf("resolved %d, first-attempt success %v, mean attempts %v; want 100000, 1, 1",
			q.Resolved(), q.FirstAttemptSuccessRate(), q.MeanAttempts())
	}
	if tk, _ := q.Open(99_999, faults.ActionCleanFiber, now); tk.Attempt != 1 {
		t.Errorf("a settled link's next ticket is attempt %d, want 1", tk.Attempt)
	}
}
