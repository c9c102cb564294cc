package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRangeConfig lists the packages where map iteration order can leak into
// ordered output. Experiment reports are compared byte-for-byte across
// worker counts (DESIGN.md §7.2), so any `range` over a map inside these
// packages must either follow the collect-then-sort idiom, be an
// order-independent reduction (integer accumulation, map insertion), or
// carry a lint:allow annotation explaining why ordering cannot escape.
var MapRangeConfig = map[string]bool{
	"corropt/internal/experiments":   true,
	"corropt/internal/sim":           true,
	"corropt/internal/core":          true,
	"corropt/internal/core/netstate": true,
}

// NewMapRange returns the maprange analyzer, which enforces two rules:
//
//   - in every package, a floating-point fold (+=, -=, or x = x ± y) whose
//     terms arrive in map-iteration or channel-arrival order, into an
//     accumulator that outlives the loop, plus any fold of a channel
//     receive: float addition is not associative, so the result's last bits
//     depend on the run, which the byte-identical report and snapshot
//     contracts (DESIGN.md §7.5; TestRunManyMatchesRun,
//     TestFleetMatchesSerial) cannot tolerate anywhere;
//   - in the packages config lists, every other way map order can reach
//     ordered output (see mapRangeSafe).
//
// A loop the second rule flags is one finding, at the range statement; the
// folds inside it are not reported again.
func NewMapRange(config map[string]bool) *Analyzer {
	a := &Analyzer{
		Name: "maprange",
		Doc: "flags float folds in map or channel order anywhere, and map " +
			"iteration whose order can reach report output unless results are " +
			"evidently sorted afterwards (DESIGN.md §7.5, §8)",
	}
	a.Run = func(pass *Pass) error {
		runMapRange(pass, config[pass.Path])
		return nil
	}
	return a
}

// MapRange is the canonical maprange analyzer over MapRangeConfig.
var MapRange = NewMapRange(MapRangeConfig)

func runMapRange(pass *Pass, ordered bool) {
	for _, f := range pass.Files {
		flagged := make(map[*ast.RangeStmt]bool)
		if ordered {
			ast.Inspect(f, func(n ast.Node) bool {
				var list []ast.Stmt
				switch n := n.(type) {
				case *ast.BlockStmt:
					list = n.List
				case *ast.CaseClause:
					list = n.Body
				case *ast.CommClause:
					list = n.Body
				default:
					return true
				}
				for i, stmt := range list {
					rs, ok := stmt.(*ast.RangeStmt)
					if !ok {
						continue
					}
					t := pass.TypesInfo.TypeOf(rs.X)
					if t == nil {
						continue
					}
					if _, ok := t.Underlying().(*types.Map); !ok {
						continue
					}
					if mapRangeSafe(pass, rs, list[i+1:]) {
						continue
					}
					flagged[rs] = true
					pass.Reportf(rs.Pos(), "map iteration order may reach ordered output: collect keys and sort, or annotate with lint:allow if ordering cannot escape")
				}
				return true
			})
		}
		checkFloatFolds(pass, f, flagged)
	}
}

// checkFloatFolds reports every float fold in f whose terms arrive in map or
// channel order, outside the loops already flagged whole. A function
// literal's body starts with no enclosing loop, so the callback-iteration
// idiom over deterministic containers stays clean.
func checkFloatFolds(pass *Pass, f *ast.File, flagged map[*ast.RangeStmt]bool) {
	var walk func(n ast.Node, loop *ast.RangeStmt, order string) bool
	walk = func(n ast.Node, loop *ast.RangeStmt, order string) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool { return walk(m, nil, "") })
			return false

		case *ast.RangeStmt:
			if flagged[n] {
				return false
			}
			inner, innerOrder := loop, order
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					inner, innerOrder = n, "map values in iteration order"
				case *types.Chan:
					inner, innerOrder = n, "channel-received values in arrival order"
				}
			}
			ast.Inspect(n.X, func(m ast.Node) bool { return walk(m, loop, order) })
			ast.Inspect(n.Body, func(m ast.Node) bool { return walk(m, inner, innerOrder) })
			return false

		case *ast.AssignStmt:
			if what := floatFold(pass.TypesInfo, n, loop, order); what != "" {
				pass.Reportf(n.Pos(),
					"order-sensitive floating-point accumulation folds %s: float addition is not associative, so the result depends on run order; iterate sorted keys or merge in a fixed order (DESIGN.md §7.5)",
					what)
			}
		}
		return true
	}
	ast.Inspect(f, func(n ast.Node) bool { return walk(n, nil, "") })
}

// floatFold returns the order a float accumulation folds its terms in, ""
// when n is no order-sensitive fold: a fold of a channel receive anywhere,
// or any fold inside a map or channel range (loop, folding in order) into
// an accumulator declared outside it.
func floatFold(info *types.Info, n *ast.AssignStmt, loop *ast.RangeStmt, order string) string {
	if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
		return ""
	}
	lhs := ast.Unparen(n.Lhs[0])
	if !isFloat(info.TypeOf(lhs)) {
		return ""
	}
	switch n.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
	case token.ASSIGN:
		// x = x + y / x = x - y with x an identifier.
		id, _ := lhs.(*ast.Ident)
		bin, _ := ast.Unparen(n.Rhs[0]).(*ast.BinaryExpr)
		if id == nil || bin == nil || (bin.Op != token.ADD && bin.Op != token.SUB) {
			return ""
		}
		if x, ok := ast.Unparen(bin.X).(*ast.Ident); !ok || info.Uses[x] == nil || info.Uses[x] != info.Uses[id] {
			return ""
		}
	default:
		return ""
	}
	recv := false
	ast.Inspect(n.Rhs[0], func(m ast.Node) bool {
		if u, ok := m.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			recv = true
		}
		return !recv
	})
	switch {
	case recv:
		return "channel-received values in arrival order"
	case loop != nil && declaredOutside(info, lhs, loop):
		return order
	}
	return ""
}

// declaredOutside reports whether the accumulator expression's root variable
// is declared outside the loop's span — i.e. the fold survives the loop, so
// term order reaches the result. Fields and index targets count as outside.
func declaredOutside(info *types.Info, e ast.Expr, loop *ast.RangeStmt) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			return true // field or qualified var: outlives the loop body
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v, ok := info.Uses[x].(*types.Var)
			return ok && (v.Pos() < loop.Pos() || v.Pos() > loop.End())
		default:
			return false
		}
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// mapRangeSafe reports whether the map-range statement is one of the two
// evidently order-independent shapes:
//
//  1. collect-then-sort: the body only appends to / indexes into collector
//     variables, and every appended-to slice is passed to a sort.* or
//     slices.Sort* call in a later statement of the same block;
//  2. commutative reduction: every body statement is an integer x += e,
//     x -= e, x |= e, …, x++, x--, or map/set insertion — accumulations
//     whose result is independent of visit order.
func mapRangeSafe(pass *Pass, rs *ast.RangeStmt, rest []ast.Stmt) bool {
	collectors := make(map[types.Object]bool)
	safeBody := true
	for _, stmt := range rs.Body.List {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			if !assignIsCollectOrReduce(pass, s, collectors) {
				safeBody = false
			}
		case *ast.IncDecStmt:
			// x++ / x-- are commutative.
		case *ast.IfStmt:
			// A guarded collect/reduce (if cond { ... }) is safe when its
			// body is; conservative: require the same shapes inside.
			if s.Else != nil || !stmtsAreCollectOrReduce(pass, s.Body.List, collectors) {
				safeBody = false
			}
		default:
			safeBody = false
		}
		if !safeBody {
			return false
		}
	}
	// Pure reduction (no collectors) is order-independent as-is.
	if len(collectors) == 0 {
		return true
	}
	// Collectors must all be sorted later in the same block.
	sorted := make(map[types.Object]bool)
	for _, stmt := range rest {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isSortCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(an ast.Node) bool {
					if id, ok := an.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Uses[id]; obj != nil && collectors[obj] {
							sorted[obj] = true
						}
					}
					return true
				})
			}
			return true
		})
	}
	for obj := range collectors {
		if !sorted[obj] {
			return false
		}
	}
	return true
}

// stmtsAreCollectOrReduce reports whether every statement is a collect or
// commutative-reduce shape, recording collector objects.
func stmtsAreCollectOrReduce(pass *Pass, stmts []ast.Stmt, collectors map[types.Object]bool) bool {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			if !assignIsCollectOrReduce(pass, s, collectors) {
				return false
			}
		case *ast.IncDecStmt:
		default:
			return false
		}
	}
	return true
}

// assignIsCollectOrReduce classifies one assignment inside a map-range body.
// Collect shapes record the collector object.
func assignIsCollectOrReduce(pass *Pass, s *ast.AssignStmt, collectors map[types.Object]bool) bool {
	// x += e / x -= e / x |= e / x &= e / x ^= e on integer operands:
	// commutative accumulations. String += is NOT exempt — concatenation in
	// map order is exactly the bug this rule exists to catch — and neither
	// is float or complex +=, which is order-sensitive in the last bits.
	switch s.Tok.String() {
	case "+=", "-=", "|=", "&=", "^=":
		if len(s.Lhs) != 1 {
			return false
		}
		t := pass.TypesInfo.TypeOf(s.Lhs[0])
		if t == nil {
			return false
		}
		basic, ok := t.Underlying().(*types.Basic)
		return ok && basic.Info()&types.IsInteger != 0
	}
	if s.Tok.String() != "=" && s.Tok.String() != ":=" {
		return false
	}
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	// m[k] = v: insertion into another map (order-free).
	if idx, ok := s.Lhs[0].(*ast.IndexExpr); ok {
		if t := pass.TypesInfo.TypeOf(idx.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return true
			}
		}
		return false
	}
	// v = append(v, ...): collect into v, to be sorted later.
	lhsIdent, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fnIdent, ok := call.Fun.(*ast.Ident)
	if !ok || fnIdent.Name != "append" {
		return false
	}
	if _, ok := pass.TypesInfo.Uses[fnIdent].(*types.Builtin); !ok {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(lhsIdent)
	if obj == nil {
		return false
	}
	collectors[obj] = true
	return true
}

// isSortCall reports whether call invokes a function from package sort or
// slices (sort.Slice, sort.Strings, slices.Sort, slices.SortFunc, ...).
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort", "slices":
		return true
	}
	return false
}
