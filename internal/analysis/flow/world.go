package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// World accumulates per-function summaries across packages and, once
// Finalize is called, exposes the module-wide facts the flow analyzers
// consult: transitive lock sets, the global lock-order graph and its cycles,
// may-block classification, goroutine join/cancel closure, and the
// //lint:hotpath roots with their call sites.
//
// Usage: AddPackage for every loaded package (dependency order not required;
// facts are keyed by *types.Func identity, which loaders share across
// packages of one load), then Finalize exactly once, then query freely.
// AddPackage is safe for concurrent use; queries are safe for concurrent use
// after Finalize.
type World struct {
	mu        sync.Mutex
	finalized bool

	// byFunc indexes declared functions; byPkg lists every summarized
	// function (declarations and nested literals) per package, in position
	// order.
	byFunc map[*types.Func]*FuncFacts
	byPkg  map[string][]*FuncFacts

	// Finalize products.
	transLocks map[*types.Func][]LockKey
	mayBlock   map[*types.Func]bool
	joinTrans  map[*types.Func]JoinBits
	edges      map[lockEdge]*EdgeWitness
	cycles     []LockCycle
	reacquires []Reacquire
	// deadlineCallers counts, per declared function, the in-module static
	// call sites and how many of those run with a deadline already armed;
	// exposesF is the undeadlined-exposure closure ctxdeadline consults
	// (see Finalize).
	deadlineCallers map[*types.Func]callerCounts
	exposesF        map[*FuncFacts]bool
	stats           WorldStats
}

// callerCounts tallies a function's in-module call sites for the deadline
// analysis: how many exist, and how many are deadline-guarded.
type callerCounts struct {
	total, guarded int
}

// WorldStats summarizes the finalized call graph — surfaced by
// cmd/corropt-lint -json so the CI artifact records how much of the module
// the transitive proofs actually cover.
type WorldStats struct {
	// Packages and Functions count the summarized packages and declared
	// functions; FuncLits counts nested function literals.
	Packages  int `json:"packages"`
	Functions int `json:"functions"`
	FuncLits  int `json:"func_lits"`
	// CallEdges counts the deduplicated static call edges between summaries.
	CallEdges int `json:"call_edges"`
	// HotpathRoots counts the `//lint:hotpath` annotated declarations the
	// escapes analyzer holds to the compiler's verdicts.
	HotpathRoots int `json:"hotpath_roots"`
	// NetOps counts the blocking network operations the deadline
	// must-analysis classified (guarded or not) across all summaries.
	NetOps int `json:"net_ops"`
}

type lockEdge struct {
	from, to LockKey
}

// EdgeWitness is the first (lowest-position) site at which one lock was
// acquired — directly or through a call — while another was held.
type EdgeWitness struct {
	From, To LockKey
	Pos      token.Pos
	Pkg      string
	Fn       string
	// Via names the callee when the edge comes from a call made under the
	// lock rather than a literal acquisition.
	Via string
}

// LockCycle is one strongly-connected component of the lock-order graph with
// more than one lock: an inconsistent acquisition order that can deadlock.
type LockCycle struct {
	// Keys are the cycle's locks, sorted.
	Keys []LockKey
	// Edges are the witness edges internal to the cycle, sorted by position.
	Edges []*EdgeWitness
	// Pos/Pkg locate the report: the lowest-position witness edge.
	Pos token.Pos
	Pkg string
}

// Reacquire is an acquisition of a lock already held on some path —
// sync.Mutex is not reentrant, so this self-deadlocks (or, for RLock under a
// pending writer, can).
type Reacquire struct {
	Key LockKey
	Pos token.Pos
	Pkg string
	Fn  string
	Via string // callee name when the reacquisition happens through a call
}

// NewWorld returns an empty World.
func NewWorld() *World {
	return &World{
		byFunc: make(map[*types.Func]*FuncFacts),
		byPkg:  make(map[string][]*FuncFacts),
	}
}

// AddPackage summarizes every function of one type-checked package into the
// world. Safe for concurrent use before Finalize.
func (w *World) AddPackage(path string, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) {
	s := &funcSummarizer{pkgPath: path, fset: fset, info: info}
	var all []*FuncFacts
	for _, f := range files {
		all = append(all, s.summarizeFile(f)...)
	}
	// Flatten nested literals into the package list so their lock events and
	// spawns are visible; keep declaration facts indexed by *types.Func.
	var flat []*FuncFacts
	var flatten func(fs *FuncFacts)
	flatten = func(fs *FuncFacts) {
		flat = append(flat, fs)
		for _, lit := range fs.Lits {
			flatten(lit)
		}
		for _, sp := range fs.GoSpawns {
			if sp.Lit != nil {
				flatten(sp.Lit)
			}
		}
	}
	for _, fs := range all {
		flatten(fs)
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].Pos < flat[j].Pos })

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.finalized {
		panic("flow: AddPackage after Finalize")
	}
	w.byPkg[path] = flat
	for _, fs := range flat {
		if fs.Fn != nil {
			w.byFunc[fs.Fn] = fs
		}
	}
}

// Finalize closes the summaries over the static call graph. Must be called
// exactly once, after every AddPackage.
func (w *World) Finalize() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.finalized {
		return
	}
	w.finalized = true

	// Deterministic function order: by position.
	var funcs []*FuncFacts
	var pkgs []string
	for p := range w.byPkg {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	for _, p := range pkgs {
		funcs = append(funcs, w.byPkg[p]...)
	}

	// Transitive closure of direct lock sets, may-block, and join bits over
	// static call edges. Iterate to fixpoint (the call graph may have
	// cycles).
	w.transLocks = make(map[*types.Func][]LockKey)
	w.mayBlock = make(map[*types.Func]bool)
	w.joinTrans = make(map[*types.Func]JoinBits)
	transSet := make(map[*types.Func]map[LockKey]bool)
	for _, fs := range funcs {
		if fs.Fn == nil {
			continue
		}
		set := make(map[LockKey]bool, len(fs.DirectLocks))
		for _, k := range fs.DirectLocks {
			set[k] = true
		}
		transSet[fs.Fn] = set
		w.mayBlock[fs.Fn] = fs.DirectBlocking
		w.joinTrans[fs.Fn] = fs.Join
	}
	// Calls to functions outside the world (stdlib): blocking-ness comes
	// from the blockingCalls table (already folded into DirectBlocking);
	// lock sets are empty.
	changed := true
	for changed {
		changed = false
		for _, fs := range funcs {
			if fs.Fn == nil {
				continue
			}
			set := transSet[fs.Fn]
			for _, callee := range fs.Calls {
				if cs, ok := transSet[callee]; ok {
					for k := range cs {
						if !set[k] {
							set[k] = true
							changed = true
						}
					}
				}
				if w.mayBlock[callee] && !w.mayBlock[fs.Fn] {
					w.mayBlock[fs.Fn] = true
					changed = true
				}
				if bits, ok := w.joinTrans[callee]; ok {
					if merged := w.joinTrans[fs.Fn] | bits; merged != w.joinTrans[fs.Fn] {
						w.joinTrans[fs.Fn] = merged
						changed = true
					}
				}
			}
		}
	}
	for fn, set := range transSet {
		keys := make([]LockKey, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		w.transLocks[fn] = keys
	}

	// Build the global lock-order graph. An edge A→B means "B was acquired
	// (directly or via a call) while A was held", witnessed at the earliest
	// such site.
	w.edges = make(map[lockEdge]*EdgeWitness)
	addEdge := func(from, to LockKey, pos token.Pos, pkg, fn, via string) {
		if from == to {
			w.reacquires = append(w.reacquires, Reacquire{
				Key: from, Pos: pos, Pkg: pkg, Fn: fn, Via: via,
			})
			return
		}
		e := lockEdge{from, to}
		if cur, ok := w.edges[e]; !ok || pos < cur.Pos {
			w.edges[e] = &EdgeWitness{From: from, To: to, Pos: pos, Pkg: pkg, Fn: fn, Via: via}
		}
	}
	for _, fs := range funcs {
		for _, acq := range fs.Acquires {
			for _, held := range acq.Held {
				addEdge(held, acq.Key, acq.Pos, fs.Pkg, fs.Name, "")
			}
		}
		for _, hc := range fs.HeldCalls {
			callee, ok := w.byFunc[hc.Callee]
			if !ok {
				continue
			}
			for _, k := range w.transLocksOf(hc.Callee) {
				for _, held := range hc.Held {
					addEdge(held, k, hc.Pos, fs.Pkg, fs.Name, callee.Name)
				}
			}
		}
	}
	sort.Slice(w.reacquires, func(i, j int) bool { return w.reacquires[i].Pos < w.reacquires[j].Pos })

	w.cycles = w.findCycles()

	// Deadline-exposure closure for ctxdeadline (deadline.go). Caller-guard
	// counts first: per declared function, how many in-module static call
	// sites it has and how many of those run with a deadline already armed.
	w.deadlineCallers = make(map[*types.Func]callerCounts)
	for _, fs := range funcs {
		for _, dc := range fs.DeadlineCalls {
			c := w.deadlineCallers[dc.Callee]
			c.total++
			if dc.Guarded {
				c.guarded++
			}
			w.deadlineCallers[dc.Callee] = c
		}
	}
	// A summary "exposes" an undeadlined blocking op when its contract is
	// caller-guards — at least one in-module call site arms a deadline before
	// calling it, which is the evidence that deadlines are the caller's job —
	// yet some path through it still reaches a blocking network op with no
	// deadline armed and no cancellation signal of its own. Functions with no
	// guarded caller anywhere own their ops instead (ctxdeadline reports at
	// the op or call site inside them), so exposure never cascades past a
	// function that is itself reportable: one root cause, one finding.
	w.exposesF = make(map[*FuncFacts]bool, len(funcs))
	callerGuards := func(fs *FuncFacts) bool {
		return fs.Fn != nil && w.deadlineCallers[fs.Fn].guarded > 0
	}
	for _, fs := range funcs {
		if !callerGuards(fs) || fs.Join.Cancellable() {
			continue
		}
		for _, op := range fs.NetOps {
			if !op.Guarded {
				w.exposesF[fs] = true
				break
			}
		}
	}
	changed = true
	for changed {
		changed = false
		for _, fs := range funcs {
			if w.exposesF[fs] || !callerGuards(fs) || fs.Join.Cancellable() {
				continue
			}
			for _, dc := range fs.DeadlineCalls {
				if dc.Guarded {
					continue
				}
				if cf, ok := w.byFunc[dc.Callee]; ok && w.exposesF[cf] {
					w.exposesF[fs] = true
					changed = true
					break
				}
			}
		}
	}

	w.stats.Packages = len(pkgs)
	for _, fs := range funcs {
		if fs.Fn != nil {
			w.stats.Functions++
		} else {
			w.stats.FuncLits++
		}
		w.stats.CallEdges += len(fs.Calls)
		if fs.Hotpath && fs.Fn != nil {
			w.stats.HotpathRoots++
		}
		w.stats.NetOps += len(fs.NetOps)
	}
}

func (w *World) transLocksOf(fn *types.Func) []LockKey {
	if fn == nil {
		return nil
	}
	return w.transLocks[fn]
}

// findCycles runs Tarjan's SCC over the lock graph and converts every
// multi-node component into a LockCycle.
func (w *World) findCycles() []LockCycle {
	// Deterministic node and adjacency order.
	nodeSet := make(map[LockKey]bool)
	for e := range w.edges {
		nodeSet[e.from] = true
		nodeSet[e.to] = true
	}
	var nodes []LockKey
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	adj := make(map[LockKey][]LockKey)
	for e := range w.edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for _, a := range adj {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	}

	index := make(map[LockKey]int)
	low := make(map[LockKey]int)
	onStack := make(map[LockKey]bool)
	var stack []LockKey
	next := 0
	var comps [][]LockKey
	var strongconnect func(v LockKey)
	strongconnect = func(v LockKey) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, u := range adj[v] {
			if _, seen := index[u]; !seen {
				strongconnect(u)
				if low[u] < low[v] {
					low[v] = low[u]
				}
			} else if onStack[u] && index[u] < low[v] {
				low[v] = index[u]
			}
		}
		if low[v] == index[v] {
			var comp []LockKey
			for {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[u] = false
				comp = append(comp, u)
				if u == v {
					break
				}
			}
			if len(comp) > 1 {
				comps = append(comps, comp)
			}
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}

	var cycles []LockCycle
	for _, comp := range comps {
		inComp := make(map[LockKey]bool, len(comp))
		for _, k := range comp {
			inComp[k] = true
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		var edges []*EdgeWitness
		for e, wit := range w.edges {
			if inComp[e.from] && inComp[e.to] {
				edges = append(edges, wit)
			}
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i].Pos < edges[j].Pos })
		if len(edges) == 0 {
			continue
		}
		cycles = append(cycles, LockCycle{
			Keys:  comp,
			Edges: edges,
			Pos:   edges[0].Pos,
			Pkg:   edges[0].Pkg,
		})
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i].Pos < cycles[j].Pos })
	return cycles
}

// PackageFacts returns the summaries (declared functions and nested
// literals) of one package, sorted by position.
func (w *World) PackageFacts(path string) []*FuncFacts {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.byPkg[path]
}

// FuncFactsOf returns the summary of a declared function, nil when unknown.
func (w *World) FuncFactsOf(fn *types.Func) *FuncFacts {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.byFunc[fn]
}

// Cycles returns the lock-order cycles found at Finalize.
func (w *World) Cycles() []LockCycle { return w.cycles }

// Reacquires returns the same-lock reacquisition sites found at Finalize.
func (w *World) Reacquires() []Reacquire { return w.reacquires }

// MayBlock reports whether fn — directly or transitively through static
// calls inside the module — performs a known blocking I/O operation.
func (w *World) MayBlock(fn *types.Func) bool { return fn != nil && w.mayBlock[fn] }

// TransLocks returns the set of lock keys fn may acquire, directly or
// transitively, sorted.
func (w *World) TransLocks(fn *types.Func) []LockKey { return w.transLocksOf(fn) }

// JoinFacts returns the transitive join/cancel bits of a declared function;
// ok is false when the function is not summarized (outside the module).
func (w *World) JoinFacts(fn *types.Func) (JoinBits, bool) {
	if fn == nil {
		return 0, false
	}
	bits, ok := w.joinTrans[fn]
	return bits, ok
}

// LitJoinFacts computes the transitive join/cancel bits of a spawned
// function literal: its own bits plus the closure over its static callees.
func (w *World) LitJoinFacts(lit *FuncFacts) JoinBits {
	bits := lit.Join
	for _, callee := range lit.Calls {
		if b, ok := w.joinTrans[callee]; ok {
			bits |= b
		}
	}
	// One level through the literal's own nested literals that it calls
	// inline is approximated by including them directly.
	for _, nested := range lit.Lits {
		bits |= nested.Join
	}
	return bits
}

// DeadlineCallers returns the in-module static call-site counts of a
// declared function: how many sites exist and how many run with a deadline
// armed on all paths to the call. Computed at Finalize.
func (w *World) DeadlineCallers(fn *types.Func) (total, guarded int) {
	if fn == nil {
		return 0, 0
	}
	c := w.deadlineCallers[fn]
	return c.total, c.guarded
}

// ExposesUndeadlined reports whether a summary's deadline contract is
// caller-guards (at least one in-module call site arms a deadline first)
// while some path through it — directly or via further unguarded calls —
// still reaches a blocking network op with no deadline armed and no
// cancellation signal. Every remaining call site of such a function must arm
// a deadline before the call. Computed at Finalize.
func (w *World) ExposesUndeadlined(fs *FuncFacts) bool { return fs != nil && w.exposesF[fs] }

// Stats returns the finalized call-graph statistics.
func (w *World) Stats() WorldStats { return w.stats }

// HotpathRoots returns every `//lint:hotpath` annotated declaration across
// the world, sorted by package then position.
func (w *World) HotpathRoots() []*FuncFacts {
	var pkgs []string
	for p := range w.byPkg {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	var roots []*FuncFacts
	for _, p := range pkgs {
		for _, fs := range w.byPkg[p] {
			if fs.Hotpath && fs.Fn != nil {
				roots = append(roots, fs)
			}
		}
	}
	return roots
}

func sameKeySet(a, b map[LockKey]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
