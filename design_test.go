package corropt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// inventoryRow matches a DESIGN.md §3 row that names an internal/ or cmd/
// package, capturing its path.
var inventoryRow = regexp.MustCompile("^\\| `((?:internal|cmd)/[^`]+)` \\|")

// TestDesignInventoryMatchesPackages holds DESIGN.md §3's inventory table to
// the module's packages both ways: every internal/ and cmd/ package listed
// by `go list ./...` has a row, and every row names such a package. Each
// package a row's "Depends on" cell names must be among that package's
// in-module `go list -deps`; "–" names none and "everything" is exempt.
func TestDesignInventoryMatchesPackages(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no §3")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]string{} // package → its "Depends on" cell
	for _, line := range strings.Split(section, "\n") {
		if m := inventoryRow.FindStringSubmatch(line); m != nil {
			if _, dup := rows[m[1]]; dup {
				t.Errorf("DESIGN.md §3 lists %s twice", m[1])
			}
			cells := strings.Split(line, "|")
			if len(cells) != 5 {
				t.Errorf("DESIGN.md §3 row %s has %d cells, want 3", m[1], len(cells)-2)
				continue
			}
			rows[m[1]] = strings.TrimSpace(cells[3])
		}
	}

	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	deps := map[string]map[string]bool{} // internal/ or cmd/ package → its in-module deps
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		rel := strings.TrimPrefix(fields[0], "corropt/")
		if !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		deps[rel] = map[string]bool{}
		for _, d := range fields[1:] {
			if strings.HasPrefix(d, "corropt/") {
				deps[rel][strings.TrimPrefix(d, "corropt/")] = true
			}
		}
	}
	if len(deps) == 0 {
		t.Fatalf("go list found no internal/ or cmd/ packages:\n%s", out)
	}
	for p := range deps {
		if _, ok := rows[p]; !ok {
			t.Errorf("package %s has no row in DESIGN.md §3", p)
		}
	}
	for r, cell := range rows {
		if deps[r] == nil {
			t.Errorf("DESIGN.md §3 row %s names no package", r)
			continue
		}
		if cell == "–" || cell == "everything" {
			continue
		}
		for _, name := range strings.Split(cell, ",") {
			dep := strings.TrimSpace(name)
			if !strings.HasPrefix(dep, "internal/") {
				dep = "internal/" + dep
			}
			if !deps[r][dep] {
				t.Errorf("DESIGN.md §3 row %s depends on %s, which %s does not import", r, dep, r)
			}
		}
	}
}

// TestBenchmarkCompiles builds the benchmark module in bench/ and its tests
// without running any of them, so deleting something the benchmark uses
// fails `go test ./...`, not only `make bench-smoke`. The build leaves bench/
// as it was: -mod=readonly keeps go.mod, and the module needs no go.sum.
func TestBenchmarkCompiles(t *testing.T) {
	sum := filepath.Join("bench", "go.sum")
	_, err := os.Stat(sum)
	hadSum := err == nil
	cmd := exec.Command("go", "test", "-mod=readonly", "-count=1", "-run", "^$", ".")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go test in bench/: %v\n%s", err, out)
	}
	if _, err := os.Stat(sum); err == nil && !hadSum {
		t.Errorf("building the benchmark wrote %s", sum)
	}
}

// docIdentifier matches a back-quoted `pkg.Name` or `pkg.Type.Member` with
// Name exported, and an optional call suffix such as `(…)`. Metric names
// like `core.report_ns` are lower case and do not match.
var docIdentifier = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z]\\w*)(?:\\.([A-Za-z_]\\w*))?(?:\\([^`]*\\))?`")

// docTestName matches a back-quoted `TestX`, `BenchmarkX` or `FuzzX`, with
// an optional `/subtest` suffix.
var docTestName = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Z]\\w*)(?:/[^`]*)?`")

// docMember matches a back-quoted `Type.Member` with no package qualifier,
// and an optional call suffix.
var docMember = regexp.MustCompile("`([A-Za-z]\\w*)\\.([A-Za-z_]\\w*)(?:\\([^`]*\\))?`")

// docMake matches a back-quoted `make <target>`, capturing the target.
var docMake = regexp.MustCompile("`make ([A-Za-z][\\w.-]*)[^`]*`")

// docPath matches a back-quoted span that starts with a repo path under
// one of the directories the docs point into, capturing the whole span.
var docPath = regexp.MustCompile("`((?:internal|cmd|scripts|scenarios|results)/[^`]*)`")

// makeTarget matches a rule's target in the Makefile.
var makeTarget = regexp.MustCompile(`(?m)^([A-Za-z][\w.-]*)\s*:([^=]|$)`)

// testFunc matches the declaration of a test, benchmark or fuzz target.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)

// docSpan matches one back-quoted span. Matches are taken left to right, so
// a fenced code block's three back quotes pair off into spans of their own.
var docSpan = regexp.MustCompile("`[^`]*`")

// docFlag matches a word that names a flag, capturing the name.
var docFlag = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(?:=.*)?$`)

// goToolFlags are the go command's build and test flags that the docs name
// bare, like `-race`.
var goToolFlags = map[string]bool{
	"race": true, "run": true, "bench": true, "benchtime": true, "benchmem": true,
	"count": true, "cpu": true, "cpuprofile": true, "memprofile": true, "cover": true,
	"coverprofile": true, "fuzz": true, "fuzztime": true, "fuzzminimizetime": true,
	"gcflags": true, "json": true, "v": true, "short": true, "timeout": true,
	"parallel": true, "tags": true, "mod": true, "overlay": true, "update": true,
}

// flagDefiners are the flag package's functions and FlagSet methods that
// define a flag; the first string literal among a call's arguments is its
// name.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// TestDocsNameLiveIdentifiers resolves every back-quoted `pkg.Name` and
// `pkg.Type.Member` in README.md, DESIGN.md and EXPERIMENTS.md against the
// module's non-test Go source, and every back-quoted test, benchmark or
// fuzz target name against the tree's _test.go files (bench/'s included,
// testdata's not), so deleting an identifier or a test fails here until
// the docs stop naming it. Name may be a top-level declaration or a method
// or struct field of any of the package's types (`sim.RunEvents` names
// `Sim.RunEvents`); Member is a method or field of Type. pkg is a package
// name of the module (`corropt` for the root); other spans, such as
// `time.Now`, are not checked. An unqualified `Type.Member` must resolve in
// one of the module packages that declare a type Type; one no package
// declares, such as `WaitGroup.Wait`, is not checked. A `make <target>`
// must name a Makefile target, and a span starting with a path under
// internal/, cmd/, scripts/, scenarios/ or results/ must name an existing
// file or directory unless it holds a `*` or `<` placeholder. A span that
// starts with a `-name` flag must name a flag that some cmd/ binary defines
// or one of goToolFlags; in a span that starts with a cmd/ binary's name
// (or `go run ./cmd/<name>`), every `-name` word must be a flag of that
// binary. bench/README.md is left out: the benchmark is a separate module
// whose files change only together with its own runs.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", "{{.Name}} {{.Dir}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	pkgs := map[string]docPackage{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		name, dir, _ := strings.Cut(line, " ")
		if name != "main" {
			pkgs[name] = loadDocPackage(t, dir)
		}
	}
	tests := testFuncs(t)
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	cmdFlags := commandFlags(t)
	refs, testRefs, memberRefs, makeRefs, pathRefs, flagRefs := 0, 0, 0, 0, 0, 0
	for _, file := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		doc, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docIdentifier.FindAllStringSubmatch(string(doc), -1) {
			p, ok := pkgs[m[1]]
			if !ok {
				continue
			}
			refs++
			if !p.members[m[2]][m[3]] && !(m[3] == "" && p.members[""][m[2]]) {
				t.Errorf("%s names %s, which the source does not declare", file, m[0])
			}
		}
		for _, m := range docMember.FindAllStringSubmatch(string(doc), -1) {
			if _, qualified := pkgs[m[1]]; qualified {
				continue
			}
			declared, found := false, false
			for _, p := range pkgs {
				if p.types[m[1]] {
					declared = true
					found = found || p.members[m[1]][m[2]]
				}
			}
			if declared {
				memberRefs++
				if !found {
					t.Errorf("%s names %s, which no package declaring %s declares", file, m[0], m[1])
				}
			}
		}
		for _, m := range docTestName.FindAllStringSubmatch(string(doc), -1) {
			testRefs++
			if !tests[m[1]] {
				t.Errorf("%s names %s, which no _test.go file declares", file, m[0])
			}
		}
		for _, m := range docMake.FindAllStringSubmatch(string(doc), -1) {
			makeRefs++
			if !targets[m[1]] {
				t.Errorf("%s names %s, which is no Makefile target", file, m[0])
			}
		}
		for _, m := range docPath.FindAllStringSubmatch(string(doc), -1) {
			if strings.ContainsAny(m[1], "*<") {
				continue
			}
			pathRefs++
			if _, err := os.Stat(strings.Fields(m[1])[0]); err != nil {
				t.Errorf("%s names %s, which does not exist", file, m[0])
			}
		}
		for _, span := range docSpan.FindAllString(string(doc), -1) {
			words := strings.Fields(strings.Trim(span, "`"))
			if len(words) >= 3 && words[0] == "go" && words[1] == "run" && strings.HasPrefix(words[2], "./cmd/") {
				words = append([]string{strings.TrimPrefix(words[2], "./cmd/")}, words[3:]...)
			}
			if len(words) == 0 {
				continue
			}
			if m := docFlag.FindStringSubmatch(words[0]); m != nil {
				flagRefs++
				if !goToolFlags[m[1]] && !cmdFlags[""][m[1]] {
					t.Errorf("%s names %s, which no cmd/ binary and no go command defines", file, span)
				}
				continue
			}
			flags, ok := cmdFlags[words[0]]
			if !ok {
				continue
			}
			for _, w := range words[1:] {
				if m := docFlag.FindStringSubmatch(w); m != nil {
					flagRefs++
					if !flags[m[1]] {
						t.Errorf("%s names %s, but %s defines no flag -%s", file, span, words[0], m[1])
					}
				}
			}
		}
	}
	if refs == 0 || testRefs == 0 || memberRefs == 0 || makeRefs == 0 || pathRefs == 0 || flagRefs == 0 {
		t.Fatalf("found %d package-qualified identifiers, %d Type.Member spans, %d test names, %d make targets, %d paths and %d flags in the docs: a pattern is broken",
			refs, memberRefs, testRefs, makeRefs, pathRefs, flagRefs)
	}
	t.Logf("%d references, %d Type.Member spans, %d test names, %d make targets, %d paths and %d flags resolved",
		refs, memberRefs, testRefs, makeRefs, pathRefs, flagRefs)
}

// commandFlags returns the flags each cmd/ binary defines, by directory
// name, and under "" the flags of them all.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	all := map[string]map[string]bool{"": {}}
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	for _, dir := range dirs {
		parsed, err := parser.ParseDir(token.NewFileSet(), filepath.Join("cmd", dir.Name()), notTest, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		flags := map[string]bool{}
		for _, pkg := range parsed {
			ast.Inspect(pkg, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && flagDefiners[sel.Sel.Name] {
					for _, arg := range call.Args {
						if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							name, _ := strconv.Unquote(lit.Value)
							flags[name], all[""][name] = true, true
							break
						}
					}
				}
				return true
			})
		}
		all[dir.Name()] = flags
	}
	return all
}

// testFuncs returns the names of the tests, benchmarks and fuzz targets
// declared by the _test.go files under the working directory, skipping
// testdata and dot directories.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// docPackage holds the names a package declares. members maps each
// top-level name to its members: members[name][""] is set for every
// declaration, members[typ][member] for each method and struct field (an
// embedded one by its type's name) of named type typ, and
// members[""][member] for a member of any type. types holds the type names.
type docPackage struct {
	members map[string]map[string]bool
	types   map[string]bool
}

func loadDocPackage(t *testing.T, dir string) docPackage {
	t.Helper()
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	parsed, err := parser.ParseDir(token.NewFileSet(), dir, notTest, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	p := docPackage{members: map[string]map[string]bool{}, types: map[string]bool{}}
	set := func(k, v string) {
		if p.members[k] == nil {
			p.members[k] = map[string]bool{}
		}
		p.members[k][v] = true
	}
	declare := func(name string) { set(name, "") }
	member := func(typ, name string) { set(typ, name); set("", name) }
	for _, pkg := range parsed {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						declare(d.Name.Name)
					} else if recv := baseTypeName(d.Recv.List[0].Type); recv != "" {
						member(recv, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range s.Names {
								declare(n.Name)
							}
						case *ast.TypeSpec:
							declare(s.Name.Name)
							p.types[s.Name.Name] = true
							var fields []*ast.Field
							switch ty := s.Type.(type) {
							case *ast.StructType:
								fields = ty.Fields.List
							case *ast.InterfaceType:
								fields = ty.Methods.List
							}
							for _, fld := range fields {
								for _, n := range fld.Names {
									member(s.Name.Name, n.Name)
								}
								if len(fld.Names) == 0 {
									member(s.Name.Name, baseTypeName(fld.Type))
								}
							}
						}
					}
				}
			}
		}
	}
	return p
}

// baseTypeName is the type name in a receiver or embedded field: T in T,
// *T, T[P] or pkg.T.
func baseTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
