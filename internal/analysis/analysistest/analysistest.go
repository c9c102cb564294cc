// Package analysistest runs an analyzer over golden packages under a
// testdata directory and checks its diagnostics against `// want "regex"`
// expectations, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// Golden packages live in testdata/src/<importpath>/*.go. Imports between
// golden packages resolve within testdata/src; all other imports (the
// standard library) resolve from compiled export data, so runs are hermetic.
// Because diagnostics flow through analysis.Run, `//lint:allow` suppression
// is exercised exactly as cmd/corropt-lint applies it: golden negative cases
// are annotated lines that must produce no surviving finding.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"corropt/internal/analysis"
)

// Run loads each golden package and checks a's diagnostics against the
// `// want` expectations in its sources.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	loaded := make(map[string]*analysis.Package)
	checked := make(map[string]*types.Package)

	// Parse the requested packages and, transitively, their testdata-local
	// imports; collect the external (standard-library) imports.
	type parsedPkg struct {
		path  string
		dir   string
		files []*ast.File
		local []string
	}
	parsed := make(map[string]*parsedPkg)
	externals := make(map[string]bool)
	var parsePkg func(path string) error
	parsePkg = func(path string) error {
		if _, ok := parsed[path]; ok {
			return nil
		}
		dir := filepath.Join(testdata, "src", filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("golden package %q: %w", path, err)
		}
		p := &parsedPkg{path: path, dir: dir}
		parsed[path] = p
		var names []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("golden package %q: %w", path, err)
			}
			p.files = append(p.files, f)
			for _, imp := range f.Imports {
				ipath, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return err
				}
				if _, err := os.Stat(filepath.Join(testdata, "src", filepath.FromSlash(ipath))); err == nil {
					p.local = append(p.local, ipath)
					if err := parsePkg(ipath); err != nil {
						return err
					}
				} else {
					externals[ipath] = true
				}
			}
		}
		return nil
	}
	for _, path := range pkgPaths {
		if err := parsePkg(path); err != nil {
			t.Fatal(err)
		}
	}

	var extList []string
	for path := range externals {
		extList = append(extList, path)
	}
	sort.Strings(extList)
	exports := make(map[string]string)
	if len(extList) > 0 {
		var err error
		exports, err = analysis.ExportData(testdata, extList...)
		if err != nil {
			t.Fatal(err)
		}
	}
	imp := analysis.NewImporter(fset, exports, checked)

	// Type-check in dependency order (DFS post-order over local imports).
	var typeCheck func(path string) (*analysis.Package, error)
	typeCheck = func(path string) (*analysis.Package, error) {
		if pkg, ok := loaded[path]; ok {
			return pkg, nil
		}
		p := parsed[path]
		for _, dep := range p.local {
			if _, err := typeCheck(dep); err != nil {
				return nil, err
			}
		}
		info := analysis.NewInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, p.files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking golden package %q: %w", path, err)
		}
		pkg := &analysis.Package{
			Path: path, Dir: p.dir, Fset: fset,
			Files: p.files, Types: tpkg, Info: info,
		}
		loaded[path] = pkg
		checked[path] = tpkg
		return pkg, nil
	}

	// Type-check everything first, then build one flow world spanning all
	// golden packages (and their local deps) so cross-package facts —
	// lock-order edges, join bits, hot-path call chains — resolve the
	// same way cmd/corropt-lint resolves them over the module.
	for _, path := range pkgPaths {
		if _, err := typeCheck(path); err != nil {
			t.Fatal(err)
		}
	}
	var all []*analysis.Package
	var allPaths []string
	for path := range loaded {
		allPaths = append(allPaths, path)
	}
	sort.Strings(allPaths)
	for _, path := range allPaths {
		all = append(all, loaded[path])
	}
	world := analysis.BuildWorld(all)

	for _, path := range pkgPaths {
		pkg := loaded[path]
		diags, err := analysis.RunW(pkg, []*analysis.Analyzer{a}, world)
		if err != nil {
			t.Fatal(err)
		}
		checkWants(t, pkg, diags)
	}
}

// wantRe extracts the quoted expectation strings of a want comment.
var wantRe = regexp.MustCompile(`^want\s+(.*)$`)

// checkWants compares the diagnostics against the package's `// want`
// comments: every diagnostic must match an expectation on its line, and
// every expectation must be consumed.
func checkWants(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if strings.HasPrefix(text, "//") {
					text = strings.TrimPrefix(text, "//")
				} else {
					// Block comments carry wants on lines that also need a
					// //lint:allow annotation (only one //-comment fits).
					text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
				}
				text = strings.TrimSpace(text)
				m := wantRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(m[1])
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, text)
					}
					lit, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: malformed want string %q", pos.Filename, pos.Line, q)
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, lit, err)
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s: %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	var keys []key
	for k, res := range wants {
		if len(res) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, re := range wants[k] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}
