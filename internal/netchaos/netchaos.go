// Package netchaos is a deterministic, in-process network fault-injection
// layer for the deployment path. It wraps net.Conn / net.PacketConn /
// net.Listener and the dial hooks the control-plane (ctlplane) and
// monitoring (snmplite) clients expose, and injects the faults the paper
// is about — drops, delays, duplicates, reorders, truncations, bit-flips,
// and mid-stream resets — into the traffic those components send.
//
// Determinism contract (DESIGN.md §7.3): every fault decision is drawn
// from a seeded `rngutil` substream, one substream per wrapped endpoint in
// creation order. No wall-clock reads, no global randomness, no background
// goroutines: wrapping is purely synchronous, so a scenario replays
// byte-for-byte — same seed and operation sequence, same faults — and the
// package passes the `nodeterminism` gate with RulesAll and zero
// `lint:allow`.
//
// Faults are injected on the *write* path only. The writer's operation
// sequence is what the seeded stream indexes, so the schedule does not
// depend on reader timing; to fault both directions of a protocol, wrap
// both endpoints (e.g. the client's dialer and the server's listener).
//
// With a zero Config the wrappers are transparent: no RNG draws, no
// buffering, no behavior change — the clean-network baseline runs through
// the same code path as the chaos runs.
package netchaos

import (
	"fmt"
	"net"
	"sync"
	"time"

	"corropt/internal/rngutil"
)

// Kind enumerates the injected fault classes.
type Kind uint8

// Fault classes, in the cumulative-probability order Config is consulted.
const (
	KindNone Kind = iota
	KindDrop
	KindDup
	KindReorder
	KindCorrupt
	KindTruncate
	KindReset
	KindDelay
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindDrop:
		return "drop"
	case KindDup:
		return "dup"
	case KindReorder:
		return "reorder"
	case KindCorrupt:
		return "corrupt"
	case KindTruncate:
		return "truncate"
	case KindReset:
		return "reset"
	case KindDelay:
		return "delay"
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// Config sets per-write-operation fault probabilities. Probabilities are
// consulted cumulatively in field order from a single uniform draw per
// operation, so at most one fault fires per write; their sum should stay
// ≤ 1. The zero value disables all injection (and draws nothing).
type Config struct {
	// Drop swallows the write: the caller sees success, nothing is sent.
	Drop float64
	// Dup sends the payload twice.
	Dup float64
	// Reorder holds the payload back and emits it after the next write
	// (segment reordering on streams, datagram reordering on packets).
	Reorder float64
	// Corrupt flips 1–4 random bits of a copy of the payload.
	Corrupt float64
	// Truncate sends a strict prefix of the payload.
	Truncate float64
	// Reset tears the transport down mid-stream: the underlying conn is
	// closed and the write fails. On datagram sockets a reset is a drop
	// (the socket survives; the datagram does not), mirroring how UDP
	// sees a peer reset only as silence.
	Reset float64
	// Delay pauses via the injector's sleep hook before sending. The
	// magnitude is drawn uniformly in (0, maxDelay].
	Delay float64
	// MaxFaults bounds the total number of faults the injector introduces
	// across all wrapped endpoints; once spent, traffic flows clean. This
	// is the convergence guarantee chaos tests lean on: a client whose
	// retry budget exceeds MaxFaults is guaranteed to get through. Zero
	// means unlimited.
	MaxFaults int
}

func (c Config) enabled() bool {
	return c.Drop > 0 || c.Dup > 0 || c.Reorder > 0 || c.Corrupt > 0 ||
		c.Truncate > 0 || c.Reset > 0 || c.Delay > 0
}

// Stats counts injected faults by class, plus total write operations seen.
type Stats struct {
	Ops       int
	Drops     int
	Dups      int
	Reorders  int
	Corrupts  int
	Truncates int
	Resets    int
	Delays    int
}

// Faults is the total number of injected faults.
func (s Stats) Faults() int {
	return s.Drops + s.Dups + s.Reorders + s.Corrupts + s.Truncates + s.Resets + s.Delays
}

// maxDelay bounds an injected delay.
const maxDelay = 10 * time.Millisecond

// DialFunc matches the dial hooks ctlplane and snmplite clients accept.
type DialFunc func(network, address string) (net.Conn, error)

// Injector derives per-endpoint fault streams from one seeded source and
// enforces the shared fault budget. Safe for concurrent use; determinism
// holds per endpoint (each endpoint's schedule depends only on its own
// operation sequence, plus the shared budget's consumption order).
type Injector struct {
	cfg  Config
	root *rngutil.Source

	mu        sync.Mutex
	sleep     func(time.Duration)
	endpoints int
	injected  int
	stats     Stats
}

// New returns an Injector drawing fault decisions from rng. Injected
// delays are no-ops until SetSleep installs a sleeper (keeps virtual-time
// harnesses from stalling on real sleeps).
func New(rng *rngutil.Source, cfg Config) *Injector {
	if rng == nil {
		rng = rngutil.New(0)
	}
	return &Injector{cfg: cfg, root: rng, sleep: func(time.Duration) {}}
}

// SetSleep installs the function KindDelay faults call; production wiring
// passes time.Sleep, virtual-time harnesses leave the default no-op.
func (in *Injector) SetSleep(fn func(time.Duration)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if fn == nil {
		fn = func(time.Duration) {}
	}
	in.sleep = fn
}

// sleepFn snapshots the current sleep hook so callers can pause after
// releasing their own locks (blocking while holding one violates the
// repo's lockorder contract).
func (in *Injector) sleepFn() func(time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.sleep
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// substream allocates the next endpoint substream under prefix; every
// wrapper and Mutator shares one creation-order index.
func (in *Injector) substream(prefix string) *rngutil.Source {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.endpoints++
	return in.root.SplitIndex(prefix, in.endpoints-1)
}

// decision is one resolved fault for one write operation.
type decision struct {
	kind  Kind
	cut   int           // KindTruncate: bytes kept
	flips []int         // KindCorrupt: bit indices to flip
	pause time.Duration // KindDelay: how long to sleep
}

// decide resolves the fault (if any) for one write of n bytes on the
// endpoint drawing from rng. All RNG draws happen under the injector lock
// so concurrent endpoints stay race-free; each endpoint draws only from its
// own substream, so its schedule is independent of its neighbours'.
func (in *Injector) decide(rng *rngutil.Source, n int) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Ops++
	if !in.cfg.enabled() || n == 0 {
		return decision{kind: KindNone}
	}
	if in.cfg.MaxFaults > 0 && in.injected >= in.cfg.MaxFaults {
		return decision{kind: KindNone}
	}
	u := rng.Float64()
	d := decision{kind: KindNone}
	acc := 0.0
	for _, c := range []struct {
		p float64
		k Kind
	}{
		{in.cfg.Drop, KindDrop},
		{in.cfg.Dup, KindDup},
		{in.cfg.Reorder, KindReorder},
		{in.cfg.Corrupt, KindCorrupt},
		{in.cfg.Truncate, KindTruncate},
		{in.cfg.Reset, KindReset},
		{in.cfg.Delay, KindDelay},
	} {
		acc += c.p
		if c.p > 0 && u < acc {
			d.kind = c.k
			break
		}
	}
	switch d.kind {
	case KindNone:
		return d
	case KindCorrupt:
		nbits := 1 + rng.Intn(4)
		d.flips = make([]int, nbits)
		for i := range d.flips {
			d.flips[i] = rng.Intn(n * 8)
		}
	case KindTruncate:
		d.cut = rng.Intn(n) // strict prefix: 0..n-1 bytes survive
	case KindDelay:
		d.pause = time.Duration(1 + rng.Int63()%int64(maxDelay))
	}
	in.injected++
	in.count(d.kind)
	return d
}

func (in *Injector) count(k Kind) {
	switch k {
	case KindDrop:
		in.stats.Drops++
	case KindDup:
		in.stats.Dups++
	case KindReorder:
		in.stats.Reorders++
	case KindCorrupt:
		in.stats.Corrupts++
	case KindTruncate:
		in.stats.Truncates++
	case KindReset:
		in.stats.Resets++
	case KindDelay:
		in.stats.Delays++
	}
}

// damage returns what a corrupt or truncate decision leaves of b: a copy
// with the decided bits flipped, or a copy of the strict prefix it keeps
// (empty, never nil, when it keeps none). The caller's buffer is never
// mutated (io.Writer contract).
func damage(b []byte, d decision) []byte {
	if d.kind == KindTruncate {
		return append([]byte{}, b[:d.cut]...)
	}
	out := append([]byte{}, b...)
	for _, bit := range d.flips {
		out[bit/8] ^= 1 << (bit % 8)
	}
	return out
}

// Mutator applies the byte-level fault classes (corrupt, truncate, drop)
// to standalone packets — the primitive the protocol fuzzers round-trip
// frames through without needing a socket pair.
type Mutator struct {
	inj *Injector
	rng *rngutil.Source
}

// NewMutator returns a Mutator drawing from its own endpoint substream of
// a fresh injector over cfg.
func NewMutator(rng *rngutil.Source, cfg Config) *Mutator {
	in := New(rng, cfg)
	return &Mutator{inj: in, rng: in.substream("mutator")}
}

// Mutate returns a possibly-faulted copy of pkt and the fault class
// applied. KindDrop and KindReset yield a nil packet (lost); KindDup,
// KindReorder and KindDelay return the packet unchanged (those classes
// need a transport to be observable).
func (m *Mutator) Mutate(pkt []byte) ([]byte, Kind) {
	d := m.inj.decide(m.rng, len(pkt))
	switch d.kind {
	case KindCorrupt, KindTruncate:
		return damage(pkt, d), d.kind
	case KindDrop, KindReset:
		return nil, d.kind
	}
	return append([]byte{}, pkt...), d.kind
}
