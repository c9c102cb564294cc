package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"corropt/internal/analysis/flow"
	"corropt/internal/runner"
)

// loadRepo loads module packages matching patterns from the repository root.
func loadRepo(t *testing.T, patterns ...string) []*Package {
	t.Helper()
	pkgs, err := Load("../..", patterns...)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load returned no packages")
	}
	return pkgs
}

// TestRepoIsLintClean is the self-check gate: the canonical analyzer suite
// (exactly what cmd/corropt-lint and `make lint` run) must produce zero
// diagnostics over the whole module. A regression here means either shipping
// code violated the determinism contract or an analyzer grew a false
// positive; both block the build.
func TestRepoIsLintClean(t *testing.T) {
	pkgs := loadRepo(t, "./...")

	// Guard against silently analyzing nothing: the determinism-critical
	// core must actually be present in the load set under the exact import
	// paths DeterminismConfig names.
	seen := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		seen[p.Path] = true
	}
	for path := range DeterminismConfig {
		if !seen[path] {
			t.Errorf("DeterminismConfig names %s, but it was not loaded; config drifted from the module layout", path)
		}
	}

	// Module-wide flow world, exactly as cmd/corropt-lint builds it: the
	// flow analyzers must see cross-package lock edges and join facts, not
	// per-package approximations.
	world := BuildWorld(pkgs)
	for _, pkg := range pkgs {
		diags, err := RunW(pkg, All(), world)
		if err != nil {
			t.Fatalf("Run(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s: %s: %s", pkg.Path, pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}

// TestRngutilAllowIsAudited pins the shape of rngutil's sanctioned math/rand
// use: the raw analyzer DOES see the rand.New / rand.NewSource references
// (so the exemption is a visible, line-scoped lint:allow annotation, not a
// blanket package exemption), and the filtered Run — the same path the
// driver uses — suppresses exactly those findings.
func TestRngutilAllowIsAudited(t *testing.T) {
	pkgs := loadRepo(t, "./internal/rngutil")
	var pkg *Package
	for _, p := range pkgs {
		if p.Path == "corropt/internal/rngutil" {
			pkg = p
		}
	}
	if pkg == nil {
		t.Fatal("corropt/internal/rngutil not loaded")
	}

	// Raw pass, bypassing suppression.
	var raw []Diagnostic
	pass := &Pass{
		Analyzer:  NoDeterminism,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Path:      pkg.Path,
		diags:     &raw,
	}
	if err := NoDeterminism.Run(pass); err != nil {
		t.Fatalf("raw run: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("raw nodeterminism pass found nothing in rngutil; the math/rand use became invisible to the analyzer")
	}
	// Every raw finding must sit on a line covered by a lint:allow
	// annotation for nodeterminism (the line after the comment).
	allowLines := allowedLinesFor(t, pkg, "nodeterminism")
	for _, d := range raw {
		pos := pkg.Fset.Position(d.Pos)
		if !strings.Contains(d.Message, "math/rand") {
			t.Errorf("unexpected raw finding %s: %s", pos, d.Message)
		}
		if !allowLines[lineKey{pos.Filename, pos.Line}] {
			t.Errorf("raw finding at %s is not covered by a lint:allow annotation", pos)
		}
	}

	// Filtered path: same as the driver. Must be clean.
	diags, err := Run(pkg, []*Analyzer{NoDeterminism})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("suppression failed: %s: %s", pkg.Fset.Position(d.Pos), d.Message)
	}
}

// allowedLinesFor returns the set of file:line keys suppressed for the named
// analyzer in pkg.
func allowedLinesFor(t *testing.T, pkg *Package, analyzer string) map[lineKey]bool {
	t.Helper()
	allows, bad := collectAllows(pkg, map[string]bool{analyzer: true})
	if len(bad) != 0 {
		t.Fatalf("malformed lint:allow annotations in %s: %v", pkg.Path, bad)
	}
	out := make(map[lineKey]bool)
	for key, names := range allows {
		if names[analyzer] {
			out[key] = true
		}
	}
	return out
}

// TestSeededViolationsAreCaught is the negative control demanded by the §8
// acceptance criteria: a deliberate time.Now seeded into a sim package and a
// deliberate rand.Intn seeded into an experiments package must each produce
// a finding through the exact Load+Run pipeline the lint driver uses. The
// violations are planted in a throwaway module so the real tree stays clean.
func TestSeededViolationsAreCaught(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module demo\n\ngo 1.22\n")
	write("sim/sim.go", `package sim

import "time"

// Stamp deliberately reads the wall clock.
func Stamp() time.Time { return time.Now() }
`)
	write("experiments/exp.go", `package experiments

import "math/rand"

// Draw deliberately uses global math/rand state.
func Draw() int { return rand.Intn(10) }
`)

	a := NewNoDeterminism(map[string]Rules{
		"demo/sim":         RulesAll,
		"demo/experiments": RulesAll,
	})
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load(demo): %v", err)
	}
	var msgs []string
	for _, pkg := range pkgs {
		diags, err := Run(pkg, []*Analyzer{a})
		if err != nil {
			t.Fatalf("Run(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			msgs = append(msgs, pkg.Path+": "+d.Message)
		}
	}
	if len(msgs) != 2 {
		t.Fatalf("want exactly 2 findings (time.Now in sim, rand.Intn in experiments), got %d: %v", len(msgs), msgs)
	}
	wantSubstrings := []string{"demo/sim: time.Now forbidden", "demo/experiments: math/rand.Intn forbidden"}
	for i, want := range wantSubstrings {
		if !strings.Contains(msgs[i], want) && !strings.Contains(msgs[1-i], want) {
			t.Errorf("no finding matching %q in %v", want, msgs)
		}
	}
}

// TestSeededFlowViolationsAreCaught is the flow-suite negative control: a
// deliberate goroutine leak, a deliberate lock-order inversion, and a
// deliberate un-cloned LinkSet-style alias mutation are planted in a
// throwaway module and must each produce a finding through the exact
// Load + BuildWorld + RunW pipeline the lint driver uses.
func TestSeededFlowViolationsAreCaught(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module demo\n\ngo 1.22\n")
	write("leak/leak.go", `package leak

// Spawn deliberately leaks a goroutine: nothing joins it, nothing stops it.
func Spawn() {
	go func() {
		for {
		}
	}()
}
`)
	write("inversion/inversion.go", `package inversion

import "sync"

type state struct {
	a sync.Mutex
	b sync.Mutex
}

var s state

// AB and BA deliberately acquire the two mutexes in opposite orders.
func AB() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

func BA() {
	s.b.Lock()
	s.a.Lock()
	s.a.Unlock()
	s.b.Unlock()
}
`)
	write("ds/ds.go", `package ds

type Set struct{ bits []uint64 }

func (s *Set) Add(i int)  { s.bits[i>>6] |= 1 << (uint(i) & 63) }
func (s *Set) Clone() *Set {
	return &Set{bits: append([]uint64(nil), s.bits...)}
}

type Owner struct{ set *Set }

func NewOwner() *Owner { return &Owner{set: &Set{bits: make([]uint64, 4)}} }

// View returns the live set.
func (o *Owner) View() *Set { return o.set }

// Mutate deliberately mutates the un-cloned alias.
func Mutate(o *Owner) {
	v := o.View()
	v.Add(1)
}
`)

	aliasDemo := NewAliasEscape([]AliasTarget{{
		Pkg: "demo/ds", Type: "Set", Mutators: []string{"Add"},
	}})
	suite := []*Analyzer{GoroLife, LockOrder, aliasDemo}

	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load(demo): %v", err)
	}
	world := BuildWorld(pkgs)
	byAnalyzer := make(map[string][]string)
	for _, pkg := range pkgs {
		diags, err := RunW(pkg, suite, world)
		if err != nil {
			t.Fatalf("Run(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], pkg.Path+": "+d.Message)
		}
	}
	check := func(analyzer, substr string) {
		t.Helper()
		for _, msg := range byAnalyzer[analyzer] {
			if strings.Contains(msg, substr) {
				return
			}
		}
		t.Errorf("seeded %s violation not caught: no finding containing %q in %v", analyzer, substr, byAnalyzer[analyzer])
	}
	check("gorolife", "neither joined")
	check("lockorder", "lock-order cycle")
	check("aliasescape", "aliases internal state returned by Owner.View")
}

// hotpathFloorDrift compares the world's //lint:hotpath roots with the rows
// of the `hotpathFloors` tables in pkgs' _test.go files — read with
// go/parser: a row's `roots` strings name the roots it holds, an `exempt`
// key marks a row that carries a reason instead of a measurement — and
// returns one message per disagreement.
func hotpathFloorDrift(t *testing.T, pkgs []*Package, world *flow.World) []string {
	t.Helper()
	roots := make(map[string]bool)
	for _, fs := range world.HotpathRoots() {
		roots[fs.Pkg+"."+fs.Name] = true
	}
	var drift []string
	measured, exempt := make(map[string]bool), make(map[string]bool)
	for _, pkg := range pkgs {
		files, err := filepath.Glob(filepath.Join(pkg.Dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			file, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parse %s: %v", name, err)
			}
			for _, row := range floorRows(file) {
				if row["roots"] == nil {
					drift = append(drift, fmt.Sprintf("%s: a hotpathFloors row names no root", name))
					continue
				}
				into := measured
				if row["exempt"] != nil {
					into = exempt
				}
				ast.Inspect(row["roots"], func(n ast.Node) bool {
					if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						unquoted, _ := strconv.Unquote(lit.Value)
						root := pkg.Path + "." + unquoted
						into[root] = true
						if !roots[root] {
							drift = append(drift, fmt.Sprintf("%s: a hotpathFloors row names %s, which is not a //lint:hotpath root in the module", name, root))
						}
					}
					return true
				})
			}
		}
	}
	for root := range roots {
		switch {
		case !measured[root] && !exempt[root]:
			drift = append(drift, fmt.Sprintf("//lint:hotpath root %s has no row in its package's hotpathFloors table", root))
		case measured[root] && exempt[root]:
			drift = append(drift, fmt.Sprintf("//lint:hotpath root %s has both a measured and an exempt hotpathFloors row", root))
		}
	}
	sort.Strings(drift)
	return drift
}

// floorRows returns, keyed by field name, the rows of file's
// `var hotpathFloors = []hotpathFloor{{roots: …, …}, …}` table, if it has one.
func floorRows(file *ast.File) []map[string]ast.Expr {
	var rows []map[string]ast.Expr
	ast.Inspect(file, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "hotpathFloors" || len(vs.Values) != 1 {
			return true
		}
		table, _ := vs.Values[0].(*ast.CompositeLit)
		if table == nil {
			return false
		}
		for _, elt := range table.Elts {
			row := make(map[string]ast.Expr)
			if lit, ok := elt.(*ast.CompositeLit); ok {
				for _, field := range lit.Elts {
					if kv, ok := field.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							row[key.Name] = kv.Value
						}
					}
				}
			}
			rows = append(rows, row)
		}
		return false
	})
	return rows
}

// TestHotpathFloorsCoverRoots pins the static proof to the measured floors:
// every //lint:hotpath annotated declaration in the module must be named by
// a row of its package's hotpathFloors table — the rows TestHotpathFloors
// holds at 0 allocations per steady-state pass, or one that carries the
// reason it is exempt, never both — and every row must name a root that
// still exists. Either direction drifting means the hotalloc proof and the
// measurement no longer cover the same set of functions.
// TestSeededHotpathViolationsAreCaught seeds both directions.
func TestHotpathFloorsCoverRoots(t *testing.T) {
	pkgs := loadRepo(t, "./...")
	world := BuildWorld(pkgs)
	if len(world.HotpathRoots()) == 0 {
		t.Fatal("no //lint:hotpath roots found in the module; the annotations or the flow summary went missing")
	}
	for _, d := range hotpathFloorDrift(t, pkgs, world) {
		t.Error(d)
	}
}

// TestSeededHotpathViolationsAreCaught is the call-graph-suite negative
// control: a deliberate allocation on a //lint:hotpath path in a sim-shaped
// package (two hops down, so the chain machinery is exercised) and a
// deliberate map-ordered float sum in a fleet-shaped package are planted in
// a throwaway module and must each fail the gate through the exact
// Load + BuildWorld + RunW pipeline the lint driver uses. The sim package's
// floor table holds one of its two roots and names one that does not exist:
// TestHotpathFloorsCoverRoots's check must report exactly those two drifts.
func TestSeededHotpathViolationsAreCaught(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module demo\n\ngo 1.22\n")
	write("sim/sim.go", `package sim

type Sim struct{ samples []float64 }

// Settle deliberately allocates two hops down a hot path.
//
//lint:hotpath per-event settle
func (s *Sim) Settle(p float64) {
	s.record(p)
}

func (s *Sim) record(p float64) {
	s.samples = append(s.samples, p)
}

//lint:hotpath has a floor row
func (s *Sim) Held() {}
`)
	write("sim/sim_test.go", `package sim

var hotpathFloors = []struct{ roots []string }{{roots: []string{"(*Sim).Held", "(*Sim).Gone"}}}
`)
	write("fleet/fleet.go", `package fleet

// Sum deliberately folds float shard penalties in map iteration order.
func Sum(shards map[int]float64) float64 {
	total := 0.0
	for _, p := range shards {
		total += p
	}
	return total
}
`)

	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load(demo): %v", err)
	}
	world := BuildWorld(pkgs)
	byAnalyzer := make(map[string][]string)
	for _, pkg := range pkgs {
		diags, err := RunW(pkg, All(), world)
		if err != nil {
			t.Fatalf("Run(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], pkg.Path+": "+d.Message)
		}
	}
	check := func(analyzer, substr string) {
		t.Helper()
		for _, msg := range byAnalyzer[analyzer] {
			if strings.Contains(msg, substr) {
				return
			}
		}
		t.Errorf("seeded %s violation not caught: no finding containing %q in %v", analyzer, substr, byAnalyzer[analyzer])
	}
	check("hotalloc", "hot path (*Sim).Settle is not allocation-free: append may grow its backing array")
	check("hotalloc", "(chain: (*Sim).Settle -> (*Sim).record)")
	check("floatorder", "folds map values in iteration order")

	drift := strings.Join(hotpathFloorDrift(t, pkgs, world), "\n")
	if strings.Count(drift, "\n") != 1 ||
		!strings.Contains(drift, "root demo/sim.(*Sim).Settle has no row") ||
		!strings.Contains(drift, "names demo/sim.(*Sim).Gone, which is not a //lint:hotpath root") {
		t.Errorf("want exactly the Settle (no row) and Gone (no root) floor drifts, got:\n%s", drift)
	}
}

// TestSeededDeploymentViolationsAreCaught is the liveness-suite negative
// control: a deadline-less blocking read, a ticker leaked on an error path,
// a forced heap escape plus bounds check on a //lint:hotpath root, and a
// write to core.Network's reportable index and its threshold key from an
// unsanctioned method are planted in a throwaway module — named corropt, so
// the production DeploymentPackages gate and MutexHeldConfig themselves are
// what fire — and must each fail the gate through the exact Load +
// BuildWorld + RunW pipeline the lint driver uses. The escapes control runs the real compiler harness over the temp
// module, pinning the gcdiag plumbing end to end.
func TestSeededDeploymentViolationsAreCaught(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module corropt\n\ngo 1.22\n")
	write("internal/snmplite/pump.go", `package snmplite

import "net"

// Pump deliberately reads with no deadline and no cancellation signal.
func Pump(c net.Conn, buf []byte) {
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}
`)
	write("internal/ctlplane/tick.go", `package ctlplane

import (
	"errors"
	"time"
)

// Watch deliberately leaks its ticker on the error path.
func Watch(d time.Duration, bad bool) error {
	t := time.NewTicker(d)
	if bad {
		return errors.New("setup failed")
	}
	t.Stop()
	return nil
}
`)
	write("internal/hotshape/hot.go", `package hotshape

var sink *int

// Hot deliberately forces a heap escape and an unprovable bounds check on
// a hot path.
//
//lint:hotpath forced escape negative control
func Hot(xs []int, i int) int {
	x := 3
	sink = &x
	s := 0
	for k := 0; k < 4; k++ {
		s += xs[i]
	}
	return s
}
`)

	write("internal/core/index.go", `package core

type Network struct {
	reportable []uint64
	threshold  float64
}

// SetCorruption is a sanctioned writer of both fields.
func (n *Network) SetCorruption(l int, rate float64) {
	if rate >= n.threshold {
		n.reportable[l>>6] |= 1 << (uint(l) & 63)
	}
}

// Rekey deliberately changes the key and drops the index outside the
// sanctioned writers.
func (n *Network) Rekey(t float64) {
	n.threshold = t
	n.reportable = nil
}
`)

	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load(corropt seed): %v", err)
	}
	world := BuildWorld(pkgs)
	byAnalyzer := make(map[string][]string)
	for _, pkg := range pkgs {
		diags, err := RunW(pkg, All(), world)
		if err != nil {
			t.Fatalf("Run(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], pkg.Path+": "+d.Message)
		}
	}
	check := func(analyzer, substr string) {
		t.Helper()
		for _, msg := range byAnalyzer[analyzer] {
			if strings.Contains(msg, substr) {
				return
			}
		}
		t.Errorf("seeded %s violation not caught: no finding containing %q in %v", analyzer, substr, byAnalyzer[analyzer])
	}
	check("ctxdeadline", "network read ((Conn).Read) in Pump has no deadline")
	check("reslife", "time.Ticker t acquired here may leak")
	check("escapes", "hot path Hot has a compiler-reported heap escape in Hot: x escapes to heap")
	check("escapes", "hot path Hot has a compiler-reported bounds check in its inner loop")
	check("mutexheld", "write to guarded field Network.threshold outside its sanctioned mutation methods (Rekey)")
	check("mutexheld", "write to guarded field Network.reportable outside its sanctioned mutation methods (Rekey)")
	if n := len(byAnalyzer["mutexheld"]); n != 2 {
		t.Errorf("want the 2 seeded mutexheld findings only, got %d: %v", n, byAnalyzer["mutexheld"])
	}
}

// TestLintParallelMatchesSerial pins the driver's determinism contract: the
// merged findings (including suppressed ones) produced by the runner.Map
// fan-out that cmd/corropt-lint uses are byte-identical for 1 worker and 8.
func TestLintParallelMatchesSerial(t *testing.T) {
	pkgs := loadRepo(t, "./...")
	world := BuildWorld(pkgs)
	collect := func(workers int) []string {
		t.Helper()
		perPkg, err := runner.Map(workers, len(pkgs), func(i int) ([]Finding, error) {
			return RunDetailed(pkgs[i], All(), world)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var out []string
		for i, findings := range perPkg {
			for _, f := range findings {
				out = append(out, fmt.Sprintf("%s: %s: %s suppressed=%v",
					pkgs[i].Fset.Position(f.Pos), f.Analyzer, f.Message, f.Suppressed))
			}
		}
		return out
	}
	serial := collect(1)
	if len(serial) == 0 {
		t.Fatal("expected at least the suppressed rngutil findings; got none — suppression state is not being reported")
	}
	parallel := collect(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel lint output differs from serial:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}
