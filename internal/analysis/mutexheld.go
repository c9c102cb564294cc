package analysis

import (
	"go/ast"
	"go/types"
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
	// op-assignment, ++/--, and element writes through the field (x.f[i] = v).
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
func NewMutexHeld(config []GuardedStruct) *Analyzer {
	a := &Analyzer{
		Name: "mutexheld",
		Doc: "restricts writes to guarded struct state to the sanctioned " +
			"mutation methods (DESIGN.md §8)",
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

	// guardedWrite reports whether expr is a write target rooted at a
	// guarded field selector (x.f, x.f[i], *x.f, ...).
	guardedWrite := func(expr ast.Expr) (ast.Expr, bool) {
		for {
			switch e := expr.(type) {
			case *ast.IndexExpr:
				expr = e.X
			case *ast.StarExpr:
				expr = e.X
			case *ast.ParenExpr:
				expr = e.X
			case *ast.SelectorExpr:
				selObj := pass.TypesInfo.Selections[e]
				if selObj == nil || selObj.Kind() != types.FieldVal {
					return nil, false
				}
				field, ok := selObj.Obj().(*types.Var)
				if !ok || field.Pkg() == nil {
					return nil, false
				}
				if field.Pkg().Path() != g.Pkg || !fields[field.Name()] {
					return nil, false
				}
				recv := selObj.Recv()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				named, ok := recv.(*types.Named)
				if !ok || named.Obj().Name() != g.Type {
					return nil, false
				}
				return e, true
			default:
				return nil, false
			}
		}
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
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := guardedWrite(lhs); ok {
							pass.Reportf(sel.Pos(), "write to guarded field %s.%s outside its sanctioned mutation methods (%s)", g.Type, sel.(*ast.SelectorExpr).Sel.Name, fd.Name.Name)
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := guardedWrite(n.X); ok {
						pass.Reportf(sel.Pos(), "write to guarded field %s.%s outside its sanctioned mutation methods (%s)", g.Type, sel.(*ast.SelectorExpr).Sel.Name, fd.Name.Name)
					}
				}
				return true
			})
		}
	}
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
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == g.Type
}
