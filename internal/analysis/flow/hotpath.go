package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file collects what the escapes analyzer walks from a `//lint:hotpath`
// root: each body's static call sites, and the lines a
// `//lint:allow escapes <reason>` annotation sanctions.

// A CallSite is one static call with its position — unlike FuncFacts.Calls
// it is not deduplicated, so the escapes walk can honor per-line sanctions.
type CallSite struct {
	Callee *types.Func
	Pos    token.Pos
}

// escapesAllowLines scans one file's comments for line-scoped
// `//lint:allow escapes` annotations and returns the sanctioned line set
// (the annotation's line and the line below, mirroring collectAllows in
// internal/analysis). The flow layer duplicates this one rule because the
// escapes walk crosses packages — a root in another package never sees the
// annotation's package pass — while reason validation stays with the
// analyzer-level lintallow machinery.
func escapesAllowLines(fset *token.FileSet, f *ast.File) map[int]bool {
	var lines map[int]bool
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			fields := strings.Fields(text)
			if len(fields) < 2 || fields[0] != "lint:allow" || fields[1] != "escapes" {
				continue
			}
			if lines == nil {
				lines = make(map[int]bool)
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}

// hasHotpathDoc reports whether a declaration's doc comment carries the
// `//lint:hotpath` annotation that marks it as a root the escapes analyzer
// checks against the compiler's verdicts.
func hasHotpathDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "lint:hotpath" || strings.HasPrefix(text, "lint:hotpath ") {
			return true
		}
	}
	return false
}

// callSites records every static call of body with its position. Nested
// literals carry their own; a go statement's call runs off the caller's path
// and is not recorded, while its argument expressions, which evaluate on it,
// are.
func (s *funcSummarizer) callSites(body *ast.BlockStmt, facts *FuncFacts) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.CallExpr:
			if fn := s.staticCallee(n); fn != nil {
				facts.CallSites = append(facts.CallSites, CallSite{Callee: fn, Pos: n.Pos()})
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}
