// Package analysis is a self-contained static-analysis framework plus the
// repository's determinism & safety lint suite.
//
// The framework half (Analyzer, Pass, Diagnostic, Load) mirrors the shape of
// golang.org/x/tools/go/analysis so the analyzers could be ported to a
// multichecker verbatim, but is implemented entirely on the standard
// library's go/ast + go/types: packages are enumerated with `go list -export
// -deps -json`, module packages are type-checked from source, and external
// (standard-library) dependencies are imported from the build cache's
// compiled export data. No network access and no third-party modules are
// required, which keeps `make lint` runnable in the same hermetic
// environment as `go test`.
//
// The analyzer half enforces the determinism contract established in
// DESIGN.md §7 (byte-identical experiment reports for any worker count):
// see NoDeterminism, MapRange, and ErrWrap, and DESIGN.md §8 for the
// rationale of each. (core.Network's cache discipline is held by Go's
// package privacy instead: internal/core/netstate.) The flow-powered
// analyzers (LockOrder, GoroLife, CtxDeadline, ResLife) layer a CFG and
// cross-package function summaries (internal/analysis/flow) on the same
// loader; Escapes holds the `//lint:hotpath` roots to the compiler's own
// escape and bounds-check verdicts (internal/analysis/gcdiag). See
// DESIGN.md §8 "Flow analyses".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"corropt/internal/analysis/flow"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:allow <name> <reason>` suppression annotations.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run executes the analyzer on one package, reporting findings through
	// pass.Report / pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the package's import path (e.g. "corropt/internal/sim").
	Path string
	// Dir is the package's source directory; the escapes analyzer walks up
	// from it to the module root before invoking the compiler harness.
	Dir string
	// World holds the module-wide flow summaries (lock graph, goroutine
	// join facts, hot-path call sites) shared by every package's
	// passes. It may be nil for single-package runs; analyzers that need it
	// go through world(), which lazily builds a single-package world.
	World *flow.World

	diags *[]Diagnostic
}

// world returns the pass's flow world, building a transient single-package
// one when the caller did not supply a module-wide world (raw Pass
// construction in tests, or Run without BuildWorld). Single-package worlds
// see no cross-package call edges, so transitive facts degrade gracefully to
// intraprocedural ones.
func (p *Pass) world() *flow.World {
	if p.World == nil {
		w := flow.NewWorld()
		w.AddPackage(p.Path, p.Fset, p.Files, p.Pkg, p.TypesInfo)
		w.Finalize()
		p.World = w
	}
	return p.World
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string
	// Message describes the finding.
	Message string
}

// Report records a diagnostic against the pass's package.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	*p.diags = append(*p.diags, d)
}

// Reportf records a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the canonical analyzer suite run by cmd/corropt-lint and
// `make lint`: nodeterminism, maprange, and errwrap over their
// repository-wide default configurations, the flow-powered lockorder,
// gorolife, ctxdeadline, and reslife, and the compiler-backed escapes.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeterminism, MapRange, ErrWrap,
		LockOrder, GoroLife, CtxDeadline, ResLife,
		Escapes,
	}
}

// A Finding is one diagnostic plus its suppression state: Suppressed
// findings matched a valid `//lint:allow` annotation and do not fail the
// gate, but are still reported (cmd/corropt-lint -json exposes them so the
// exception inventory stays visible).
type Finding struct {
	Diagnostic
	Suppressed bool
}

// BuildWorld summarizes every package into one flow.World and finalizes it.
// The result is read-only and safe to share across concurrent RunW calls.
func BuildWorld(pkgs []*Package) *flow.World {
	w := flow.NewWorld()
	for _, pkg := range pkgs {
		w.AddPackage(pkg.Path, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
	}
	w.Finalize()
	return w
}

// Run executes the given analyzers over one loaded package and returns the
// surviving diagnostics: findings on lines carrying a valid
// `//lint:allow <analyzer> <reason>` annotation are suppressed, malformed
// annotations are themselves reported (see allow.go), and the result is
// sorted by position so output is deterministic regardless of analyzer
// traversal order. Flow analyzers run against a transient single-package
// world; use RunW with BuildWorld for module-wide facts.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunW(pkg, analyzers, nil)
}

// RunW is Run with an explicit module-wide flow world (nil behaves like Run).
func RunW(pkg *Package, analyzers []*Analyzer, world *flow.World) ([]Diagnostic, error) {
	findings, err := RunDetailed(pkg, analyzers, world)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, f := range findings {
		if !f.Suppressed {
			diags = append(diags, f.Diagnostic)
		}
	}
	return diags, nil
}

// RunDetailed executes the given analyzers over one loaded package and
// returns every finding with its suppression state, sorted by position.
// world supplies module-wide flow facts to the flow analyzers; nil falls
// back to a transient single-package world.
func RunDetailed(pkg *Package, analyzers []*Analyzer, world *flow.World) ([]Finding, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Path:      pkg.Path,
			Dir:       pkg.Dir,
			World:     world,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name] = true
	}
	allows, bad := collectAllows(pkg, names)
	findings := make([]Finding, 0, len(diags)+len(bad))
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		suppressed := allows[lineKey{file: pos.Filename, line: pos.Line}][d.Analyzer]
		findings = append(findings, Finding{Diagnostic: d, Suppressed: suppressed})
	}
	for _, d := range bad {
		findings = append(findings, Finding{Diagnostic: d})
	}
	sort.Slice(findings, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(findings[i].Pos), pkg.Fset.Position(findings[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return findings[i].Message < findings[j].Message
	})
	return findings, nil
}
