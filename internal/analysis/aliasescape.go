package analysis

import (
	"go/ast"
	"go/types"

	"corropt/internal/analysis/flow"
)

// AliasTarget configures aliasescape for one shared in-place-mutable type.
type AliasTarget struct {
	// Pkg and Type name the aliased type (e.g. corropt/internal/topology's
	// LinkSet).
	Pkg, Type string
	// Mutators are the methods that mutate the receiver in place. Calling
	// one on a value obtained from an alias-returning accessor mutates the
	// owner's internal state.
	Mutators []string
}

// linkSetMutators are topology.LinkSet's in-place mutation methods, shared
// with mutexheld.
var linkSetMutators = []string{"Add", "Remove", "Clear", "Reset", "CopyFrom", "Union"}

// AliasEscapeConfig covers the repository's shared bitset. The optimizer's
// PathCounter is deliberately absent: its live disabled-set is mutated
// through Apply/Revert by documented contract (core/optimizer.go), and its
// workers Clone before touching anything.
var AliasEscapeConfig = []AliasTarget{
	{Pkg: "corropt/internal/topology", Type: "LinkSet", Mutators: linkSetMutators},
}

// NewAliasEscape returns the aliasescape analyzer for the given targets.
//
// aliasescape flags in-place mutation of values that alias another object's
// internal state: a local whose reaching definitions (per the flow def-use
// engine) include a call to an alias-returning accessor (one that returns a
// pointer/slice/map rooted in its receiver's fields, e.g.
// Network.DisabledLinks) must be Clone()d before any mutator runs on it.
// Clone breaks the chain naturally — its result is a fresh composite, so a
// `v = v.Clone()` redefinition removes the taint on every path it dominates.
// Index writes into slices and maps obtained from alias-returning accessors
// are flagged the same way. Locals of unknown origin (parameters, multi-value
// assignments) are not flagged: the analysis only reports what it can prove.
func NewAliasEscape(config []AliasTarget) *Analyzer {
	a := &Analyzer{
		Name: "aliasescape",
		Doc: "flags in-place mutation of values aliasing another object's " +
			"internal state (Clone before mutating) (DESIGN.md §8)",
	}
	a.Run = func(pass *Pass) error {
		runAliasEscape(pass, config)
		return nil
	}
	return a
}

// AliasEscape is the canonical aliasescape analyzer over AliasEscapeConfig.
var AliasEscape = NewAliasEscape(AliasEscapeConfig)

func runAliasEscape(pass *Pass, config []AliasTarget) {
	mutators := make(map[string]map[string]bool, len(config)) // "pkg.Type" -> methods
	for _, t := range config {
		key := t.Pkg + "." + t.Type
		mutators[key] = make(map[string]bool, len(t.Mutators))
		for _, m := range t.Mutators {
			mutators[key][m] = true
		}
	}
	w := pass.world()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cfg := flow.NewCFG(fd.Body)
			du := flow.BuildDefUse(cfg, pass.TypesInfo, fd.Type, fd.Recv)
			checkAliasMutations(pass, w, du, fd.Body, mutators)
		}
	}
}

// reachingSource chases id's reaching definitions through local copies
// (v := w, whose right-hand ident is itself a recorded use with its own
// reaching definitions) and returns the first non-zero result of match on
// a defining expression — the alias chase mutexheld and aliasescape share.
func reachingSource[T comparable](du *flow.DefUse, id *ast.Ident, match func(ast.Expr) T) T {
	var zero T
	seen := make(map[*ast.Ident]bool)
	var chase func(id *ast.Ident) T
	chase = func(id *ast.Ident) T {
		if seen[id] {
			return zero
		}
		seen[id] = true
		exprs, _ := du.Reaching(id)
		for _, e := range exprs {
			e = ast.Unparen(e)
			r := zero
			if next, ok := e.(*ast.Ident); ok {
				r = chase(next)
			} else {
				r = match(e)
			}
			if r != zero {
				return r
			}
		}
		return zero
	}
	return chase(id)
}

// aliasSource returns the alias-returning accessor that produced id's
// value, nil when no reaching definition is a proven alias. Clone-style
// calls (not alias-returning) and composite literals terminate a chain
// cleanly.
func aliasSource(pass *Pass, w *flow.World, du *flow.DefUse, id *ast.Ident) *types.Func {
	return reachingSource(du, id, func(e ast.Expr) *types.Func {
		if call, ok := e.(*ast.CallExpr); ok {
			if fn := flow.StaticCallee(pass.TypesInfo, call); fn != nil && w.ReturnsAlias(fn) {
				return fn
			}
		}
		return nil
	})
}

func checkAliasMutations(pass *Pass, w *flow.World, du *flow.DefUse, body *ast.BlockStmt, mutators map[string]map[string]bool) {
	report := func(pos ast.Node, id *ast.Ident, what string, src *types.Func) {
		name := src.Name()
		if recv := src.Type().(*types.Signature).Recv(); recv != nil {
			if named, ok := deref(recv.Type()).(*types.Named); ok {
				name = named.Obj().Name() + "." + name
			}
		}
		pass.Reportf(pos.Pos(),
			"%s mutates %q, which aliases internal state returned by %s: Clone it before mutating",
			what, id.Name, name)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			named, ok := deref(pass.TypesInfo.TypeOf(sel.X)).(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return true
			}
			key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
			if !mutators[key][sel.Sel.Name] {
				return true
			}
			if src := aliasSource(pass, w, du, id); src != nil {
				report(n, id, sel.Sel.Name+"()", src)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				id, ok := ast.Unparen(ix.X).(*ast.Ident)
				if !ok {
					continue
				}
				t := pass.TypesInfo.TypeOf(ix.X)
				if t == nil {
					continue
				}
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
				default:
					continue
				}
				if src := aliasSource(pass, w, du, id); src != nil {
					report(ix, id, "element write", src)
				}
			}
		}
		return true
	})
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
