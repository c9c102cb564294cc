package analysis

import (
	"go/token"
	"path/filepath"
	"strconv"
	"strings"

	"corropt/internal/analysis/flow"
)

// HotAlloc proves the event hot paths allocation-free: every function whose
// doc comment carries `//lint:hotpath` must be transitively free of
// heap-allocating operations — make/new, append growth, map writes, slice
// and &-composite literals, closure capture, interface boxing, string
// concatenation, goroutine spawns, and calls the analysis cannot prove
// allocation-free (dynamic calls, non-allowlisted standard-library calls).
// The walk follows the module-wide static call graph built by
// internal/analysis/flow, descends into nested function literals, and
// reports each offending site once per root with the shortest root→site
// call chain.
//
// Sanctioned escapes use the standard `//lint:allow hotalloc <reason>`
// machinery, at either end of a chain:
//   - at the allocation or call site, the annotation sanctions that line
//     for every root that reaches it (amortized append growth, documented
//     slow paths) — this works across packages because sites are marked at
//     summarize time;
//   - at the root declaration, it accepts every remaining finding for that
//     root (findings are reported at the root's position).
//
// The proof is conservative where the compiler is smarter: non-escaping
// closures and value composite literals are stack-allocated in practice,
// and the analysis has no escape information — see flow/alloc.go for the
// exact operation catalogue and its documented caveats. Annotated roots are
// additionally held at 0 allocations per steady-state pass by the
// hotpathFloors table test beside them (TestHotpathFloors in topology, core,
// sim and fleet), and TestHotpathFloorsCoverRoots requires roots == rows, so
// the static proof and the measurement cannot drift apart.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "proves //lint:hotpath annotated functions transitively " +
		"allocation-free over the module call graph, reporting the " +
		"shortest root→site chain per violation (DESIGN.md §8)",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	w := pass.world()
	for _, root := range w.PackageFacts(pass.Path) {
		if !root.Hotpath || root.Fn == nil {
			continue
		}
		reportHotpathAllocs(pass, w, root)
	}
	return nil
}

// reportHotpathAllocs BFSes the call graph from one hot-path root and
// reports every reachable unsanctioned allocation at the root's position
// (so a root-level lint:allow accepts them) with the shortest call chain to
// the site. Visited summaries are pruned by the world's transitive
// allocation-effect closure, so provably clean subtrees cost nothing.
func reportHotpathAllocs(pass *Pass, w *flow.World, root *flow.FuncFacts) {
	type entry struct {
		fs    *flow.FuncFacts
		chain []string
	}
	visited := map[*flow.FuncFacts]bool{root: true}
	queue := []entry{{root, []string{root.Name}}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, a := range cur.fs.Allocs {
			if a.Sanctioned {
				continue
			}
			reportHotAlloc(pass, root, a.What, a.Pos, cur.chain)
		}
		push := func(next *flow.FuncFacts, hop string) {
			if visited[next] {
				return
			}
			visited[next] = true
			if !w.MayAlloc(next) {
				return // transitively allocation-free: nothing to report below
			}
			chain := make([]string, len(cur.chain)+1)
			copy(chain, cur.chain)
			chain[len(cur.chain)] = hop
			queue = append(queue, entry{next, chain})
		}
		for _, cs := range cur.fs.CallSites {
			if cs.Sanctioned {
				continue
			}
			callee := w.FuncFactsOf(cs.Callee)
			if callee == nil {
				if !flow.NonAllocCallee(cs.Callee) {
					reportHotAlloc(pass, root,
						"call to "+flow.FuncDisplayName(cs.Callee)+" — cannot prove it allocation-free (no body in the analyzed module)",
						cs.Pos, cur.chain)
				}
				continue
			}
			push(callee, callee.Name)
		}
		// Nested literals run inline on the hot path (callback iteration,
		// deferred closures); spawned literals run off it and are covered by
		// the go-statement alloc site instead.
		for _, lit := range cur.fs.Lits {
			push(lit, "func literal")
		}
	}
}

func reportHotAlloc(pass *Pass, root *flow.FuncFacts, what string, pos token.Pos, chain []string) {
	msg := "hot path " + root.Name + " is not allocation-free: " + what +
		" at " + shortPos(pass.Fset, pos)
	if len(chain) > 1 {
		msg += " (chain: " + strings.Join(chain, " -> ") + ")"
	}
	pass.Reportf(root.Pos, "%s", msg)
}

// shortPos renders a position as base-filename:line, keeping messages
// stable across checkouts.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}
