// Package escp is the escapes golden package, driven by a fake compiler
// collector: the test scans the golden sources for `gc:escapes` /
// `gc:bounds` markers and synthesizes the corresponding gcdiag report, so
// the golden pins the analyzer's attribution logic (breadth-first chain
// walk for escapes, across packages too, own-loops-only for bounds checks,
// site and root sanctions) without depending on a particular compiler
// version's escape-analysis verdicts. Findings anchor at the root
// declaration.
package escp

import "escpdep"

var sink *int

// escRoot's own body has a compiler-reported escape.
//
//lint:hotpath
func escRoot() *int { // want `hot path escRoot has a compiler-reported heap escape in escRoot: value escapes to heap at escp\.go:\d+$`
	x := 0
	return &x // gc:escapes
}

// chainRoot reaches an escape two hops down; the finding carries the chain.
//
//lint:hotpath
func chainRoot() { // want `hot path chainRoot has a compiler-reported heap escape in leafEsc: value escapes to heap at escp\.go:\d+ \(chain: chainRoot -> midEsc -> leafEsc\)`
	midEsc()
}

func midEsc() { leafEsc() }

func leafEsc() {
	y := 1
	sink = &y // gc:escapes
}

// diamondRoot reaches leafEsc both through midEsc and directly; the walk is
// breadth-first, so the finding carries the shortest chain.
//
//lint:hotpath
func diamondRoot() { // want `in leafEsc: value escapes to heap at escp\.go:\d+ \(chain: diamondRoot -> leafEsc\)$`
	midEsc()
	leafEsc()
}

// crossRoot reaches an escape in another package.
//
//lint:hotpath
func crossRoot(n int) []int { // want `hot path crossRoot has a compiler-reported heap escape in Grow: value escapes to heap at escpdep\.go:\d+ \(chain: crossRoot -> Grow\)`
	return escpdep.Grow(n)
}

// crossSanctionedRoot calls into another package whose escape carries a
// site-level allow: the sanction is read when that package is summarized,
// so it holds for a root here too.
//
//lint:hotpath
func crossSanctionedRoot(x int) {
	escpdep.Reserve(x)
}

// callSanctionedRoot reaches leafEsc only through a call on a sanctioned
// line: the walk does not descend through it.
//
//lint:hotpath
func callSanctionedRoot() {
	//lint:allow escapes rare path, held by the floor instead
	leafEsc()
}

// goRoot spawns leafEsc: the spawned body runs off the hot path, so the walk
// does not descend into it.
//
//lint:hotpath
func goRoot() {
	go leafEsc()
}

// acceptedRoot carries a root-level allow: every finding for this root
// lands on its declaration line, so one annotation accepts them all.
//
//lint:hotpath
//lint:allow escapes accepted startup-path debt
func acceptedRoot() *int {
	w := 3
	return &w // gc:escapes
}

// loopRoot has a bounds check inside its own loop.
//
//lint:hotpath
func loopRoot(xs []int) int { // want `hot path loopRoot has a compiler-reported bounds check in its inner loop at escp\.go:\d+`
	s := 0
	for i := 0; i < len(xs); i++ {
		s += xs[i] // gc:bounds
	}
	return s
}

// calleeLoopRoot's bounds check sits in a callee's loop, not the root's
// own: bounds attribution is own-loops-only, so no finding.
//
//lint:hotpath
func calleeLoopRoot(xs []int) int {
	return sumIndexed(xs)
}

func sumIndexed(xs []int) int {
	s := 0
	for i := range xs {
		s += xs[i] // gc:bounds
	}
	return s
}

// straightRoot's bounds check is outside any loop: per-call, not per-event
// — no finding.
//
//lint:hotpath
func straightRoot(xs []int) int {
	return xs[0] // gc:bounds
}

// sanctionedRoot's escape sits on a sanctioned line: an acknowledged
// allocation, not a finding.
//
//lint:hotpath
func sanctionedRoot() []int {
	//lint:allow escapes warmup growth, held by the floor
	buf := make([]int, 8) // gc:escapes
	return buf
}

// notHot is no hotpath root: its escape concerns nobody.
func notHot() *int {
	z := 2
	return &z // gc:escapes
}
