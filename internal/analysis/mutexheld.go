package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"corropt/internal/analysis/flow"
)

// GuardedStruct declares a struct whose listed fields may only be written
// inside a sanctioned set of functions. This is how the core.Network state
// machine is locked down: the incremental caches (path-count mirror, penalty
// sum, constraint status) stay consistent only because every mutation flows
// through the small set of methods that update all of them together
// (DESIGN.md §6–§7). A write from anywhere else — a new helper, another file
// in the package — silently desynchronizes the caches, so the analyzer makes
// such writes a lint failure until the new writer is consciously added here.
type GuardedStruct struct {
	// Pkg is the import path of the package defining the struct.
	Pkg string
	// Type is the struct's type name.
	Type string
	// Fields lists the guarded field names. Writes cover plain assignment,
	// op-assignment, ++/--, element writes through the field (x.f[i] = v),
	// LinkSet mutator calls on it (x.f.Add(l)), and the same writes through
	// a local that aliases the field (c := x.f; c[i] = v).
	Fields []string
	// Writers are the names of the functions (methods of the struct or
	// package-level functions in Pkg) sanctioned to write the fields.
	Writers []string
}

// MutexHeldConfig guards core.Network. Every field is listed: Network's
// documented contract is that all state changes go through NewNetwork /
// SetToRConstraint / SetCorruption / RegisterPenalty / Disable / Enable /
// LoadState(resetState) and their private helpers — plus the one write an
// Engine makes at construction, re-keying the reportable index to its
// detection threshold (setDetectionThreshold). Two readers write caches:
// PenaltySum re-sums its contributions, and ToRFractions builds and resumes
// its per-ToR fraction cache.
var MutexHeldConfig = []GuardedStruct{
	{
		Pkg:  "corropt/internal/core",
		Type: "Network",
		Fields: []string{
			"topo", "pc", "disabled", "numDisabled", "rate", "constraint",
			"meetsNow", "numViolated",
			"penalty", "contrib", "penaltySum", "corrupting", "penaltyOps",
			"reportable", "threshold", "live",
			"torPos", "torFrac", "torNotOne", "torSum", "torMin", "torDirty",
		},
		Writers: []string{
			"NewNetwork", "SetToRConstraint", "Disable", "Enable",
			"SetCorruption", "RegisterPenalty", "PenaltySum",
			"setContrib", "penaltyOnToggle", "rebuildPenaltySum",
			"refreshToR", "refreshToRs", "recomputeViolated", "resetState",
			"Reset", "setDetectionThreshold", "setLive", "rebuildLive",
			"ToRFractions", "buildToRFractions", "fillToRFractions",
			"setToRFraction", "sumToRFractions",
		},
	},
}

// NewMutexHeld returns the mutexheld analyzer for the given guarded structs.
//
// Outside the sanctioned writers it flags every write that reaches guarded
// state: a write to a guarded field, a LinkSet mutator called on one, and
// the same writes through a local whose reaching definitions (per the flow
// def-use engine) alias a guarded field — `d := n.contrib; d[l] = x` lands
// in the same backing array and desynchronizes the incremental caches just
// as surely. A local aliases a field when it copies a reference-typed one
// (slice, map, pointer) or takes a field's address; aliases of unknown
// origin (parameters, multi-value assignments) are not flagged.
func NewMutexHeld(config []GuardedStruct) *Analyzer {
	a := &Analyzer{
		Name: "mutexheld",
		Doc: "restricts writes to guarded struct state — direct, by LinkSet " +
			"mutator, or through a local alias — to the sanctioned mutation " +
			"methods (DESIGN.md §8)",
	}
	a.Run = func(pass *Pass) error {
		for i := range config {
			runMutexHeld(pass, &config[i])
		}
		return nil
	}
	return a
}

// MutexHeld is the canonical mutexheld analyzer over MutexHeldConfig.
var MutexHeld = NewMutexHeld(MutexHeldConfig)

func runMutexHeld(pass *Pass, g *GuardedStruct) {
	fields := make(map[string]bool, len(g.Fields))
	for _, f := range g.Fields {
		fields[f] = true
	}
	writers := make(map[string]bool, len(g.Writers))
	for _, w := range g.Writers {
		writers[w] = true
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Function literals inside a sanctioned writer inherit its
			// sanction: the closure runs as part of the method's update.
			if writers[fd.Name.Name] && writerBelongsTo(pass, fd, g) {
				continue
			}
			checkGuardedWrites(pass, g, fields, fd)
		}
	}
}

// checkGuardedWrites reports every write in fd that reaches a guarded field.
// The def-use chains are built on the first write through a local, so a
// function that writes through none pays nothing for them.
func checkGuardedWrites(pass *Pass, g *GuardedStruct, fields map[string]bool, fd *ast.FuncDecl) {
	var du *flow.DefUse
	// reach resolves a write target (an assignment's left side, an inc/dec
	// operand, a mutator's receiver) to the guarded field it lands in and,
	// for a write through a local — an element, pointer target, or mutator
	// receiver — the local it goes through.
	var reach func(e ast.Expr, through bool) (string, *ast.Ident)
	reach = func(e ast.Expr, through bool) (string, *ast.Ident) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			return reach(x.X, through)
		case *ast.IndexExpr:
			return reach(x.X, true)
		case *ast.StarExpr:
			return reach(x.X, true)
		case *ast.SelectorExpr:
			if f := guardedField(pass, g, fields, x); f != nil {
				return f.Name(), nil
			}
		case *ast.Ident:
			if !through {
				return "", nil
			}
			if du == nil {
				du = flow.BuildDefUse(flow.NewCFG(fd.Body), pass.TypesInfo, fd.Type, fd.Recv)
			}
			return guardedAlias(pass, g, fields, du, x), x
		}
		return "", nil
	}
	report := func(n ast.Node, what string, target ast.Expr, through bool) {
		field, alias := reach(target, through)
		if field == "" {
			return
		}
		if alias != nil {
			what += fmt.Sprintf(" through %q", alias.Name)
		}
		pass.Reportf(n.Pos(), "%s to guarded field %s.%s outside its sanctioned mutation methods (%s)",
			what, g.Type, field, fd.Name.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				report(lhs, "write", lhs, false)
			}
		case *ast.IncDecStmt:
			report(n.X, "write", n.X, false)
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || !slices.Contains(linkSetMutators, sel.Sel.Name) {
				return true
			}
			if named, ok := deref(pass.TypesInfo.TypeOf(sel.X)).(*types.Named); ok && named.Obj().Name() == "LinkSet" {
				report(n, sel.Sel.Name+"() call", sel.X, true)
			}
		}
		return true
	})
}

// guardedField returns the guarded field sel selects on the guarded struct,
// nil for any other selector.
func guardedField(pass *Pass, g *GuardedStruct, fields map[string]bool, sel *ast.SelectorExpr) *types.Var {
	selObj := pass.TypesInfo.Selections[sel]
	if selObj == nil || selObj.Kind() != types.FieldVal {
		return nil
	}
	field, ok := selObj.Obj().(*types.Var)
	if !ok || field.Pkg() == nil || field.Pkg().Path() != g.Pkg || !fields[field.Name()] {
		return nil
	}
	named, ok := deref(selObj.Recv()).(*types.Named)
	if !ok || named.Obj().Name() != g.Type {
		return nil
	}
	return field
}

// guardedAlias chases id's reaching definitions for a guarded field the
// local aliases — a copy of a reference-typed field (slice, map, or
// pointer: its copies share the struct's backing storage) or any field's
// address — and returns the field name, "" when none provably does.
func guardedAlias(pass *Pass, g *GuardedStruct, fields map[string]bool, du *flow.DefUse, id *ast.Ident) string {
	return reachingSource(du, id, func(e ast.Expr) string {
		addr := false
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e, addr = ast.Unparen(u.X), true
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		f := guardedField(pass, g, fields, sel)
		if f == nil {
			return ""
		}
		switch f.Type().Underlying().(type) {
		case *types.Slice, *types.Map, *types.Pointer:
			addr = true
		}
		if !addr {
			return ""
		}
		return f.Name()
	})
}

// writerBelongsTo reports whether the sanctioned-by-name function fd is
// really one of the guarded package's own functions: a method on the guarded
// type, or (for constructors) a package-level function declared in g.Pkg.
// Same-named methods on unrelated types stay unsanctioned.
func writerBelongsTo(pass *Pass, fd *ast.FuncDecl, g *GuardedStruct) bool {
	if pass.Path != g.Pkg {
		return false
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true // package-level function in the guarded package
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	named, ok := deref(t).(*types.Named)
	return ok && named.Obj().Name() == g.Type
}
