package flow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"sync"
	"testing"
)

// parseAndCheck type-checks one synthetic file and returns its pieces.
func parseAndCheck(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("x", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return fset, f, pkg, info
}

// funcBody returns the declaration of the named function.
func funcBody(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

func TestCFGShapes(t *testing.T) {
	src := `package x

func loops(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			continue
		}
		s += i
		if s > 100 {
			break
		}
	}
	switch {
	case s > 10:
		s = 10
	default:
		s = 0
	}
	return s
}
`
	_, f, _, _ := parseAndCheck(t, src)
	fd := funcBody(t, f, "loops")
	cfg := NewCFG(fd.Body)
	if cfg.Entry == nil || len(cfg.Blocks) < 6 {
		t.Fatalf("unexpectedly small CFG: %d blocks", len(cfg.Blocks))
	}
	// Every reachable block's successors must point back via preds.
	for _, b := range cfg.Blocks {
		for _, s := range b.Succs {
			found := false
			for _, p := range s.Preds() {
				if p == b {
					found = true
				}
			}
			if !found {
				t.Errorf("block %d -> %d edge missing back-pointer", b.Index, s.Index)
			}
		}
	}
}

func TestWorldLockFacts(t *testing.T) {
	src := `package x

import "sync"

type a struct{ mu sync.Mutex }
type b struct{ mu sync.Mutex }

var ga a
var gb b

func lockAB() {
	ga.mu.Lock()
	gb.mu.Lock()
	gb.mu.Unlock()
	ga.mu.Unlock()
}

func lockBviaCall() {
	gb.mu.Lock()
	helper()
	gb.mu.Unlock()
}

func helper() {
	ga.mu.Lock()
	ga.mu.Unlock()
}

func reacquire() {
	ga.mu.Lock()
	ga.mu.Lock()
	ga.mu.Unlock()
	ga.mu.Unlock()
}
`
	fset, f, pkg, info := parseAndCheck(t, src)
	w := NewWorld()
	w.AddPackage("x", fset, []*ast.File{f}, pkg, info)
	w.Finalize()

	cycles := w.Cycles()
	if len(cycles) != 1 {
		t.Fatalf("want 1 lock cycle (a.mu <-> b.mu), got %d: %+v", len(cycles), cycles)
	}
	keys := cycles[0].Keys
	if len(keys) != 2 || keys[0] != "x.a.mu" || keys[1] != "x.b.mu" {
		t.Errorf("cycle keys = %v, want [x.a.mu x.b.mu]", keys)
	}
	if len(cycles[0].Edges) != 2 {
		t.Errorf("cycle edges = %d, want 2", len(cycles[0].Edges))
	}

	reacq := w.Reacquires()
	if len(reacq) != 1 || reacq[0].Key != "x.a.mu" {
		t.Errorf("reacquires = %+v, want one on x.a.mu", reacq)
	}
}

func TestWorldJoinFacts(t *testing.T) {
	src := `package x

import "sync"

type srv struct {
	wg   sync.WaitGroup
	done chan struct{}
}

func (s *srv) loopDone() {
	defer close(s.done)
	for i := 0; i < 10; i++ {
	}
}

func (s *srv) loopWG() {
	defer s.wg.Done()
}

func leak() {
	for {
	}
}
`
	fset, f, pkg, info := parseAndCheck(t, src)
	w := NewWorld()
	w.AddPackage("x", fset, []*ast.File{f}, pkg, info)
	w.Finalize()

	find := func(name string) *types.Func {
		t.Helper()
		for fn := range w.byFunc {
			if fn.Name() == name {
				return fn
			}
		}
		t.Fatalf("function %s not summarized", name)
		return nil
	}

	if bits, _ := w.JoinFacts(find("loopDone")); !bits.Joined() {
		t.Errorf("loopDone: want Joined (closes done channel)")
	}
	if bits, _ := w.JoinFacts(find("loopWG")); !bits.Joined() {
		t.Errorf("loopWG: want Joined (wg.Done)")
	}
	if bits, _ := w.JoinFacts(find("leak")); bits.Joined() || bits.Cancellable() {
		t.Errorf("leak: want neither joined nor cancellable, got %b", bits)
	}
}

func TestWorldConcurrentAddPackage(t *testing.T) {
	t.Parallel()
	src := `package x

import "sync"

type g struct{ mu sync.Mutex }

var gg g

func f() {
	gg.mu.Lock()
	gg.mu.Unlock()
}
`
	w := NewWorld()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		name := "p" + string(rune('0'+i))
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name+".go", strings.Replace(src, "package x", "package "+name, 1), 0)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: importer.Default()}
		pkg, err := conf.Check(name, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("type-check: %v", err)
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			w.AddPackage(name, fset, []*ast.File{f}, pkg, info)
		}(name)
	}
	wg.Wait()
	w.Finalize()
	for i := 0; i < 8; i++ {
		name := "p" + string(rune('0'+i))
		if len(w.PackageFacts(name)) == 0 {
			t.Errorf("package %s has no facts after concurrent add", name)
		}
	}
}

func TestHeldBlocksAndDeferUnlock(t *testing.T) {
	src := `package x

import "sync"

type s struct {
	mu   sync.Mutex
	done chan struct{}
	wg   sync.WaitGroup
}

func (x *s) closeBad() {
	x.mu.Lock()
	defer x.mu.Unlock()
	<-x.done
}

func (x *s) closeGood() {
	x.mu.Lock()
	x.mu.Unlock()
	<-x.done
	x.wg.Wait()
}
`
	fset, f, pkg, info := parseAndCheck(t, src)
	w := NewWorld()
	w.AddPackage("x", fset, []*ast.File{f}, pkg, info)
	w.Finalize()

	byName := make(map[string]*FuncFacts)
	for _, fs := range w.PackageFacts("x") {
		byName[fs.Name] = fs
	}
	bad := byName["(*s).closeBad"]
	if bad == nil || len(bad.HeldBlocks) != 1 || bad.HeldBlocks[0].What != "channel receive" {
		t.Fatalf("closeBad: want one channel-receive held block, got %+v", bad)
	}
	good := byName["(*s).closeGood"]
	if good == nil || len(good.HeldBlocks) != 0 {
		t.Fatalf("closeGood: want no held blocks, got %+v", good.HeldBlocks)
	}
}
