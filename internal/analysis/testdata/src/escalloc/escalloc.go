// Package escalloc is the hot-path allocation golden for the escapes
// analyzer: it pins that a hotpath root is judged by the compiler's heap
// verdicts (synthesized from `gc:escapes` / `gc:boxes` markers), not by
// allocation syntax. A make the compiler keeps on the stack is no finding;
// interface boxing counts once despite the compiler's empty-message twin;
// escapes behind method calls and call cycles are attributed with the
// shortest chain; a shared helper's escape is reported for every root that
// reaches it.
package escalloc

var sink any

// stackMake's make carries no compiler verdict: it stays on the stack, so
// the root is allocation-free.
//
//lint:hotpath
func stackMake() int {
	xs := make([]int, 8)
	return len(xs)
}

// boxRoot boxes an int into an interface: the boxing flavor of the verdict
// is a heap allocation, reported once.
//
//lint:hotpath
func boxRoot(x int) { // want `hot path boxRoot has a compiler-reported heap escape in boxRoot: x escapes to heap at escalloc\.go:\d+$`
	sink = x // gc:boxes
}

type ring struct{ cells []*int }

// grow's cell escapes into the ring.
func (r *ring) grow() {
	c := 0
	r.cells = append(r.cells, &c) // gc:escapes
}

// methodRoot reaches the escape through a method call.
//
//lint:hotpath
func methodRoot(r *ring) { // want `hot path methodRoot has a compiler-reported heap escape in \(\*ring\)\.grow: value escapes to heap at escalloc\.go:\d+ \(chain: methodRoot -> \(\*ring\)\.grow\)$`
	r.grow()
}

// cycleRoot enters a ping/pong recursion: the walk visits each function
// once and terminates.
//
//lint:hotpath
func cycleRoot(n int) { // want `in pong: value escapes to heap at escalloc\.go:\d+ \(chain: cycleRoot -> ping -> pong\)$`
	ping(n)
}

func ping(n int) {
	if n > 0 {
		pong(n - 1)
	}
}

func pong(n int) {
	p := new(int) // gc:escapes
	sink = p
	ping(n)
}

// otherCycleRoot reaches the same escape directly: dedup is per root, so it
// gets its own finding with its own chain.
//
//lint:hotpath
func otherCycleRoot() { // want `in pong: value escapes to heap at escalloc\.go:\d+ \(chain: otherCycleRoot -> pong\)$`
	pong(0)
}
