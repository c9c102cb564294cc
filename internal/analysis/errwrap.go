package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrWrapConfig scopes the errwrap analyzer.
type ErrWrapConfig struct {
	// WrapPrefixes: packages whose import path starts with one of these
	// prefixes get the fmt.Errorf %w check. Empty string matches all.
	WrapPrefixes []string
	// DroppedPrefixes: packages whose import path starts with one of these
	// prefixes additionally get the dropped-error-return check.
	DroppedPrefixes []string
}

// DefaultErrWrapConfig checks %w wrapping module-wide and dropped error
// returns inside internal/ (library code must propagate failures; cmds
// surface them to the user at top level and are vetted by review).
var DefaultErrWrapConfig = ErrWrapConfig{
	WrapPrefixes:    []string{"corropt"},
	DroppedPrefixes: []string{"corropt/internal/"},
}

// NewErrWrap returns the errwrap analyzer for the given scope.
func NewErrWrap(config ErrWrapConfig) *Analyzer {
	a := &Analyzer{
		Name: "errwrap",
		Doc: "requires %w when fmt.Errorf wraps an error and flags silently " +
			"dropped error returns in library code (DESIGN.md §8)",
	}
	a.Run = func(pass *Pass) error {
		if hasPrefix(pass.Path, config.WrapPrefixes) {
			runErrWrapf(pass)
		}
		if hasPrefix(pass.Path, config.DroppedPrefixes) {
			runDroppedErrors(pass)
		}
		return nil
	}
	return a
}

// ErrWrap is the canonical errwrap analyzer over DefaultErrWrapConfig.
var ErrWrap = NewErrWrap(DefaultErrWrapConfig)

func hasPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// runErrWrapf flags fmt.Errorf calls that format an error argument with a
// non-wrapping verb: errors.Is / errors.As against the returned error only
// work when the cause is wrapped with %w.
func runErrWrapf(pass *Pass) {
	errType := types.Universe.Lookup("error").Type()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}
			tv, ok := pass.TypesInfo.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true // non-constant format: out of scope
			}
			format := constant.StringVal(tv.Value)
			if strings.Contains(format, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				at := pass.TypesInfo.TypeOf(arg)
				if at == nil {
					continue
				}
				if types.Implements(at, errType.Underlying().(*types.Interface)) ||
					types.Identical(at, errType) {
					pass.Reportf(arg.Pos(), "error formatted with a non-wrapping verb: use %%w so callers can errors.Is/errors.As the cause (or lint:allow to deliberately sever it)")
					return true // one finding per call is enough
				}
			}
			return true
		})
	}
}

// droppedExemptCalls never meaningfully fail: fmt printing (errors only on a
// broken writer, and the writers used here are stderr/stdout/builders) and
// the in-memory writers whose Write methods are documented to always succeed.
func droppedErrorExempt(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		// Calls to local identifiers (closures, builtins) are exempt only
		// when they are builtins; local error-returning closures must be
		// checked.
		if id, ok := call.Fun.(*ast.Ident); ok {
			_, builtin := pass.TypesInfo.Uses[id].(*types.Builtin)
			return builtin
		}
		return false
	}
	// Writes into hashes never fail (hash.Hash documents Write as never
	// returning an error); exempt by the receiver's static type.
	if t := pass.TypesInfo.TypeOf(sel.X); t != nil {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			pp := named.Obj().Pkg().Path()
			if pp == "hash" || strings.HasPrefix(pp, "hash/") {
				return true
			}
		}
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// runDroppedErrors flags statement-position calls whose error result is
// silently discarded. An explicit `_ =` assignment is accepted as a
// deliberate drop; defer/go statements follow established idiom and are
// exempt.
func runDroppedErrors(pass *Pass) {
	errType := types.Universe.Lookup("error").Type()
	returnsError := func(call *ast.CallExpr) bool {
		t := pass.TypesInfo.TypeOf(call)
		if t == nil {
			return false
		}
		switch t := t.(type) {
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				if types.Identical(t.At(i).Type(), errType) {
					return true
				}
			}
			return false
		default:
			return types.Identical(t, errType)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !returnsError(call) || droppedErrorExempt(pass, call) {
				return true
			}
			pass.Reportf(call.Pos(), "error return silently discarded: handle it, assign to _, or lint:allow with a reason")
			return true
		})
	}
}
