package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A LockKey names a mutex for lock-order purposes: "pkg.Type.field" for a
// mutex field (all instances of one struct type share a key, the standard
// lock-hierarchy granularity), "pkg.Type.(embedded)" for an embedded
// sync.Mutex, and "pkg.var" for a package-level mutex variable. Local mutex
// variables are not keyed (they cannot participate in cross-function
// ordering).
type LockKey string

// An Acquire is one mutex acquisition with the set of keys already held.
type Acquire struct {
	Key  LockKey
	Pos  token.Pos
	Read bool // RLock rather than Lock
	Held []LockKey
}

// A HeldCall is a call made while holding at least one mutex.
type HeldCall struct {
	// Callee is the static callee, nil for dynamic calls through function
	// values. Interface method calls resolve to the interface method.
	Callee *types.Func
	Pos    token.Pos
	Held   []LockKey
}

// A HeldBlock is a potentially-blocking operation (channel send/receive,
// select without default, sync.WaitGroup.Wait, or a known blocking I/O call)
// executed while holding at least one mutex.
type HeldBlock struct {
	What string // human-readable description of the operation
	Pos  token.Pos
	Held []LockKey
}

// A GoSpawn is one `go` statement.
type GoSpawn struct {
	Pos token.Pos
	// Callee is the spawned function when it is a static function or method;
	// nil when the spawn target is a function literal (see Lit) or a dynamic
	// function value (both nil: unknown).
	Callee *types.Func
	// Lit holds the facts of a spawned function literal.
	Lit *FuncFacts
}

// JoinBits describes how a function participates in goroutine lifecycle
// discipline.
type JoinBits uint

const (
	// JoinWGDone: calls (*sync.WaitGroup).Done — the spawner can Wait.
	JoinWGDone JoinBits = 1 << iota
	// JoinClosesChan: closes a channel — completion is observable.
	JoinClosesChan
	// JoinSendsChan: sends on a channel — completion/result is observable.
	JoinSendsChan
	// CancelRecvsChan: receives from or ranges over a channel, or selects on
	// one — the goroutine can be stopped by closing that channel.
	CancelRecvsChan
	// CancelCtxDone: references context.Context.Done — cancellable.
	CancelCtxDone
)

// Joined reports whether the bits prove the goroutine's completion is
// observable by another goroutine.
func (j JoinBits) Joined() bool {
	return j&(JoinWGDone|JoinClosesChan|JoinSendsChan) != 0
}

// Cancellable reports whether the bits prove the goroutine can be asked to
// stop.
func (j JoinBits) Cancellable() bool {
	return j&(CancelRecvsChan|CancelCtxDone) != 0
}

// FuncFacts is the summary of one function body: a function declaration, or
// a function literal (Fn == nil).
type FuncFacts struct {
	// Pkg is the import path of the package declaring the function.
	Pkg string
	// Fn identifies declared functions and methods; nil for literals.
	Fn *types.Func
	// Name is the display name ("(*Controller).Close", "func literal").
	Name string
	// Pos locates the function (the func keyword).
	Pos token.Pos

	// Acquires are the mutex acquisitions in this body with held-sets.
	Acquires []Acquire
	// HeldCalls are the calls made while holding at least one mutex.
	HeldCalls []HeldCall
	// HeldBlocks are potentially-blocking operations under a held mutex.
	HeldBlocks []HeldBlock
	// DirectLocks is the deduplicated set of keys this body acquires.
	DirectLocks []LockKey
	// Calls is the deduplicated set of static callees (excluding calls made
	// inside nested function literals, which carry their own facts).
	Calls []*types.Func
	// DirectBlocking is set when the body itself performs a known blocking
	// I/O call (independent of lock state); see blockingCalls.
	DirectBlocking bool
	// Join records the body's goroutine-lifecycle signals.
	Join JoinBits
	// GoSpawns are the `go` statements in this body.
	GoSpawns []GoSpawn
	// Lits are the facts of nested function literals (other than those
	// attached to GoSpawns, which appear in both places).
	Lits []*FuncFacts

	// Hotpath is set when the declaration's doc comment carries
	// `//lint:hotpath`: the escapes analyzer holds the function's call
	// chain to the compiler's verdicts.
	Hotpath bool
	// CallSites are the static calls with positions, one entry per call
	// expression (unlike Calls, not deduplicated), excluding calls inside
	// nested literals and the calls of go statements (see hotpath.go).
	CallSites []CallSite
	// Allowed is the set of lines of the declaring file that a
	// `//lint:allow escapes <reason>` annotation sanctions, shared by every
	// summary of the file: the escapes walk skips compiler diagnostics on
	// them and does not descend through calls made on them.
	Allowed map[int]bool

	// End is the position just past the body's closing brace; with Pos it
	// spans the declaration so the escapes analyzer can attribute
	// compiler-reported diagnostics to the enclosing function by line.
	End token.Pos
	// Loops are the source spans of the body's for/range statements (nested
	// literals excluded) — the escapes analyzer attributes compiler-reported
	// bounds checks inside them to this function's inner loops.
	Loops []Span
	// NetOps are the blocking network operations in this body (see netOps),
	// each carrying the verdict of the deadline must-analysis in deadline.go:
	// Guarded means a Set*Deadline call dominates the op on every CFG path.
	NetOps []NetOp
	// DeadlineCalls are the static call sites with the deadline-armed state
	// at the call; World.Finalize aggregates them into per-callee
	// caller-guard counts and the undeadlined-exposure closure that
	// ctxdeadline consults.
	DeadlineCalls []DeadlineCall
	// SetsDeadline is set when the body itself arms a deadline
	// (SetDeadline / SetReadDeadline / SetWriteDeadline, not deferred).
	SetsDeadline bool
}

// blockingCalls are functions and methods known to block on I/O or timers.
// Matched against types.Func.FullName. Interface methods match their
// interface identity (e.g. a call through net.Conn matches "(net.Conn).Read")
// — concrete implementations invoked through the interface are not
// devirtualized, a documented soundness caveat.
var blockingCalls = map[string]string{
	"(net.Conn).Read":               "network read",
	"(net.Conn).Write":              "network write",
	"(net.Listener).Accept":         "accept",
	"(net.PacketConn).ReadFrom":     "network read",
	"(net.PacketConn).WriteTo":      "network write",
	"net.Dial":                      "dial",
	"net.DialTimeout":               "dial",
	"net.Listen":                    "listen",
	"net.ListenPacket":              "listen",
	"time.Sleep":                    "sleep",
	"(*os/exec.Cmd).Run":            "subprocess",
	"(*os/exec.Cmd).Wait":           "subprocess wait",
	"(*os/exec.Cmd).Output":         "subprocess",
	"(*os/exec.Cmd).CombinedOutput": "subprocess",
	"(*net/http.Client).Do":         "http request",
	"net/http.Get":                  "http request",
	"net/http.Post":                 "http request",
}

// funcSummarizer extracts FuncFacts for one package's functions.
type funcSummarizer struct {
	pkgPath string
	fset    *token.FileSet
	info    *types.Info
	// allowLines is the escapes-sanctioned line set of the file currently
	// being summarized (see escapesAllowLines); nested literals summarized
	// during the file's walk share it.
	allowLines map[int]bool
}

// summarizeFile returns the facts of every function declaration in f, each
// with its nested literals attached.
func (s *funcSummarizer) summarizeFile(f *ast.File) []*FuncFacts {
	s.allowLines = escapesAllowLines(s.fset, f)
	var out []*FuncFacts
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn, _ := s.info.Defs[fd.Name].(*types.Func)
		name := fd.Name.Name
		if fn != nil {
			name = displayName(fn)
		}
		facts := s.summarizeBody(fn, name, fd.Pos(), fd.Body)
		facts.Hotpath = hasHotpathDoc(fd.Doc)
		out = append(out, facts)
	}
	return out
}

func displayName(fn *types.Func) string {
	full := fn.FullName()
	if fn.Pkg() != nil {
		full = strings.ReplaceAll(full, fn.Pkg().Path()+".", "")
	}
	return full
}

// summarizeBody computes the facts of one function body.
func (s *funcSummarizer) summarizeBody(fn *types.Func, name string, pos token.Pos, body *ast.BlockStmt) *FuncFacts {
	facts := &FuncFacts{
		Pkg:     s.pkgPath,
		Fn:      fn,
		Name:    name,
		Pos:     pos,
		End:     body.End(),
		Allowed: s.allowLines,
	}

	cfg := NewCFG(body)

	// Pass 1: held-lock fixpoint over the CFG. State is the may-held set of
	// lock keys at block entry.
	in := make([]map[LockKey]bool, len(cfg.Blocks))
	out := make([]map[LockKey]bool, len(cfg.Blocks))
	for i := range out {
		out[i] = map[LockKey]bool{}
		in[i] = map[LockKey]bool{}
	}
	transfer := func(bi int, record bool) map[LockKey]bool {
		held := make(map[LockKey]bool, len(in[bi]))
		for k := range in[bi] {
			held[k] = true
		}
		for _, n := range cfg.Blocks[bi].Nodes {
			s.walkNode(n, held, facts, record)
		}
		return held
	}
	changed := true
	for changed {
		changed = false
		for _, blk := range cfg.Blocks {
			merged := make(map[LockKey]bool)
			for _, p := range blk.Preds() {
				for k := range out[p.Index] {
					merged[k] = true
				}
			}
			in[blk.Index] = merged
			next := transfer(blk.Index, false)
			if !sameKeySet(next, out[blk.Index]) {
				out[blk.Index] = next
				changed = true
			}
		}
	}
	// Pass 2: record facts with the converged held-sets.
	for _, blk := range cfg.Blocks {
		transfer(blk.Index, true)
	}

	// Deadline must-analysis over the same CFG (deadline.go): which blocking
	// network ops and call sites run with a Set*Deadline armed on all paths.
	s.deadlineFacts(cfg, facts)

	// Lexical facts that do not need flow: join bits, direct lock set, call
	// set.
	s.lexicalFacts(body, facts)
	facts.Loops = loopSpans(body)
	s.callSites(body, facts)

	return facts
}

// walkNode processes one CFG node, updating held in place and, when record is
// set, appending facts. Nested function literals are summarized separately
// (they execute at an unknown time, not at their lexical position).
func (s *funcSummarizer) walkNode(n ast.Node, held map[LockKey]bool, facts *FuncFacts, record bool) {
	heldSnapshot := func() []LockKey {
		if len(held) == 0 {
			return nil
		}
		keys := make([]LockKey, 0, len(held))
		for k := range held {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		return keys
	}

	isDefer := false
	if d, ok := n.(*ast.DeferStmt); ok {
		isDefer = true
		n = d.Call
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if record {
				lit := s.summarizeBody(nil, "func literal", n.Pos(), n.Body)
				facts.Lits = append(facts.Lits, lit)
			}
			return false

		case *ast.GoStmt:
			if record {
				spawn := GoSpawn{Pos: n.Pos()}
				switch fun := ast.Unparen(n.Call.Fun).(type) {
				case *ast.FuncLit:
					spawn.Lit = s.summarizeBody(nil, "func literal", fun.Pos(), fun.Body)
				default:
					spawn.Callee = s.staticCallee(n.Call)
				}
				facts.GoSpawns = append(facts.GoSpawns, spawn)
			}
			// Argument expressions evaluate now; the call itself does not.
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false

		case *ast.SendStmt:
			if record && len(held) > 0 {
				facts.HeldBlocks = append(facts.HeldBlocks, HeldBlock{
					What: "channel send", Pos: n.Pos(), Held: heldSnapshot(),
				})
			}
			return true

		case *ast.UnaryExpr:
			if n.Op == token.ARROW && record && len(held) > 0 {
				facts.HeldBlocks = append(facts.HeldBlocks, HeldBlock{
					What: "channel receive", Pos: n.Pos(), Held: heldSnapshot(),
				})
			}
			return true

		case *ast.CallExpr:
			// Arguments (and nested calls inside them) first.
			for _, arg := range n.Args {
				ast.Inspect(arg, walk)
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				ast.Inspect(sel.X, walk)
			}
			fn := s.staticCallee(n)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				if key, read, acquire, ok := s.lockOp(n, fn); ok {
					if isDefer {
						// defer mu.Unlock() keeps the lock held through the
						// rest of the body; defer mu.Lock() is nonsense we
						// ignore.
						return false
					}
					if acquire {
						if record {
							facts.Acquires = append(facts.Acquires, Acquire{
								Key: key, Pos: n.Pos(), Read: read, Held: heldSnapshot(),
							})
						}
						held[key] = true
					} else {
						delete(held, key)
					}
					return false
				}
				if fn.Name() == "Wait" && isWaitGroupMethod(fn) {
					if record && len(held) > 0 {
						facts.HeldBlocks = append(facts.HeldBlocks, HeldBlock{
							What: "sync.WaitGroup.Wait", Pos: n.Pos(), Held: heldSnapshot(),
						})
					}
					return false
				}
			}
			if record {
				if fn != nil {
					if what, ok := blockingCalls[fn.FullName()]; ok && len(held) > 0 {
						facts.HeldBlocks = append(facts.HeldBlocks, HeldBlock{
							What: what + " (" + displayName(fn) + ")", Pos: n.Pos(), Held: heldSnapshot(),
						})
					}
				}
				if fn != nil && len(held) > 0 {
					facts.HeldCalls = append(facts.HeldCalls, HeldCall{
						Callee: fn, Pos: n.Pos(), Held: heldSnapshot(),
					})
				}
			}
			return false

		case *ast.SelectStmt:
			// The CFG decomposes select bodies; a SelectStmt appearing as a
			// node would be unusual, but guard anyway: a select without a
			// default case blocks.
			return false
		}
		return true
	}
	ast.Inspect(n, walk)
}

// staticCallee resolves the called function of a call expression: a
// package-level function, a method (concrete or interface), or nil for calls
// through function values and built-ins.
func (s *funcSummarizer) staticCallee(call *ast.CallExpr) *types.Func {
	return StaticCallee(s.info, call)
}

// StaticCallee resolves the statically-called function of a call expression:
// a package-level function, a method (concrete or interface), or nil for
// calls through function values and for built-ins.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// lockOp classifies a call to a sync.Mutex / sync.RWMutex method and derives
// the lock key from the receiver expression. ok is false for other sync
// functions or unkeyable (local) mutexes.
func (s *funcSummarizer) lockOp(call *ast.CallExpr, fn *types.Func) (key LockKey, read, acquire, ok bool) {
	recvType := methodRecvNamed(fn)
	if recvType == nil {
		return "", false, false, false
	}
	if name := recvType.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", false, false, false
	}
	switch fn.Name() {
	case "Lock":
		read, acquire = false, true
	case "RLock":
		read, acquire = true, true
	case "Unlock":
		read, acquire = false, false
	case "RUnlock":
		read, acquire = true, false
	default:
		return "", false, false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false, false
	}
	key, ok = s.lockKeyOf(sel.X)
	return key, read, acquire, ok
}

// lockKeyOf derives the LockKey of the mutex denoted by expr.
func (s *funcSummarizer) lockKeyOf(expr ast.Expr) (LockKey, bool) {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		sel, ok := s.info.Selections[e]
		if ok && sel.Kind() == types.FieldVal {
			field, ok := sel.Obj().(*types.Var)
			if !ok {
				return "", false
			}
			owner := namedOf(sel.Recv())
			if owner == nil {
				return "", false
			}
			return typeFieldKey(owner, field.Name()), true
		}
		// pkg.Var selector.
		if obj, ok := s.info.Uses[e.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return LockKey(obj.Pkg().Path() + "." + obj.Name()), true
		}
	case *ast.Ident:
		obj, ok := s.info.Uses[e].(*types.Var)
		if !ok {
			return "", false
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			// Package-level mutex variable.
			return LockKey(obj.Pkg().Path() + "." + obj.Name()), true
		}
		// Receiver or parameter of struct type with an embedded mutex:
		// x.Lock() — key the embedding type.
		if owner := namedOf(obj.Type()); owner != nil {
			return typeFieldKey(owner, "(embedded)"), true
		}
	case *ast.StarExpr:
		return s.lockKeyOf(e.X)
	}
	return "", false
}

func typeFieldKey(owner *types.Named, field string) LockKey {
	name := owner.Obj().Name()
	if p := owner.Obj().Pkg(); p != nil {
		name = p.Path() + "." + name
	}
	return LockKey(name + "." + field)
}

func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// methodRecvNamed returns the named type of fn's receiver, nil for
// package-level functions.
func methodRecvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

func isWaitGroupMethod(fn *types.Func) bool {
	recv := methodRecvNamed(fn)
	return recv != nil && recv.Obj().Name() == "WaitGroup" &&
		recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == "sync"
}

// lexicalFacts fills the flow-insensitive parts of facts: join bits, direct
// lock and call sets, and blocking-call presence. Nested function literals
// are excluded — each carries its own facts.
func (s *funcSummarizer) lexicalFacts(body *ast.BlockStmt, facts *FuncFacts) {
	lockSeen := make(map[LockKey]bool)
	callSeen := make(map[*types.Func]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			facts.Join |= JoinSendsChan
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				facts.Join |= CancelRecvsChan
			}
		case *ast.RangeStmt:
			if t := s.info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					facts.Join |= CancelRecvsChan
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := s.info.Uses[id].(*types.Builtin); isBuiltin {
					facts.Join |= JoinClosesChan
					return true
				}
			}
			fn := s.staticCallee(n)
			if fn == nil {
				return true
			}
			if fn.Name() == "Done" {
				if isWaitGroupMethod(fn) {
					facts.Join |= JoinWGDone
				}
				if recvT := methodRecvNamed(fn); recvT != nil &&
					recvT.Obj().Pkg() != nil && recvT.Obj().Pkg().Path() == "context" {
					facts.Join |= CancelCtxDone
				}
			}
			if recvT := methodRecvNamed(fn); recvT == nil || recvT.Obj().Pkg() == nil ||
				recvT.Obj().Pkg().Path() != "sync" {
				if !callSeen[fn] {
					callSeen[fn] = true
					facts.Calls = append(facts.Calls, fn)
				}
			}
			if _, ok := blockingCalls[fn.FullName()]; ok {
				facts.DirectBlocking = true
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				if key, _, acquire, ok := s.lockOp(n, fn); ok && acquire && !lockSeen[key] {
					lockSeen[key] = true
					facts.DirectLocks = append(facts.DirectLocks, key)
				}
			}
		}
		return true
	})
	sort.Slice(facts.DirectLocks, func(i, j int) bool { return facts.DirectLocks[i] < facts.DirectLocks[j] })
}
