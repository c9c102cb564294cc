package analysis

// escapes: the compiler must agree with hotalloc. The hotalloc analyzer
// proves `//lint:hotpath` roots allocation-free over the source-level
// allocation catalogue; this analyzer cross-checks the proof against the
// compiler's own optimization diagnostics (internal/analysis/gcdiag): a
// heap escape the catalogue has no pattern for — a local whose address
// reaches the heap through an interface conversion the inliner gave up on,
// say — still turns a "proved 0 allocs" root into a real heap path, and a
// bounds check in the root's inner loop is per-event work the static proof
// never sees. Concretely:
//
//   - every hotpath root must have zero compiler-reported heap escapes
//     ("escapes" diagnostics) anywhere in its transitive in-module call
//     chain, and
//   - zero bounds checks ("isInBounds" / "isSliceInBounds") inside the
//     root's own loops.
//
// Escape diagnostics on lines hotalloc already sanctions (a site-level
// `//lint:allow hotalloc` — reject paths, warmup growth) are acknowledged
// allocations, not cross-check failures, and are skipped; a root-level
// `//lint:allow escapes` accepts a whole root. There is no baseline of
// accepted findings: any live one fails `make lint` and TestRepoIsLintClean.
//
// The analyzer only invokes the compiler when the package under analysis
// declares at least one hotpath root; the canonical instance caches one
// compile per module root per process, concurrency-safe for the lint
// driver's worker pool.

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"corropt/internal/analysis/flow"
	"corropt/internal/analysis/gcdiag"
)

// Escapes is the canonical instance: the real compiler harness, one cached
// compile per module root per process.
var Escapes = NewEscapes(nil)

// A Collector produces the compiler diagnostics of the module rooted at
// dir. The canonical collector shells out to `go build -gcflags=-json`;
// golden tests inject fakes.
type Collector func(dir string) (*gcdiag.Report, error)

// NewEscapes returns an escapes analyzer with an injectable diagnostics
// collector; nil selects the cached real compiler harness.
func NewEscapes(collect Collector) *Analyzer {
	if collect == nil {
		collect = cachedCollect
	}
	return &Analyzer{
		Name: "escapes",
		Doc:  "hotpath roots must have zero compiler-reported escapes in their call chains and zero bounds checks in their loops",
		Run: func(pass *Pass) error {
			w := pass.World
			if w == nil {
				return nil
			}
			var roots []*flow.FuncFacts
			for _, fs := range w.PackageFacts(pass.Path) {
				if fs.Hotpath && fs.Fn != nil {
					roots = append(roots, fs)
				}
			}
			if len(roots) == 0 {
				return nil
			}
			root, err := moduleRoot(pass.Dir)
			if err != nil {
				return err
			}
			report, err := collect(root)
			if err != nil {
				return err
			}
			for _, fs := range roots {
				checkRootEscapes(pass, w, report, fs)
			}
			return nil
		},
	}
}

// checkRootEscapes walks the root's transitive in-module call chain —
// unsanctioned call sites and nested literals, without hotalloc's
// allocation-freedom pruning, since the whole point is catching what the
// static catalogue missed — and reports every compiler escape in a visited
// function's span plus every bounds check inside the root's own loops.
// Findings anchor at the root (like hotalloc) so a root-level allow accepts
// the whole proof debt.
func checkRootEscapes(pass *Pass, w *flow.World, report *gcdiag.Report, root *flow.FuncFacts) {
	fset := pass.Fset
	type entry struct {
		fs    *flow.FuncFacts
		chain []string
	}
	visited := map[*flow.FuncFacts]bool{root: true}
	queue := []entry{{root, nil}}
	seen := map[string]bool{} // dedup per root: file:line:code
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		fs := e.fs

		start := fset.Position(fs.Pos)
		end := fset.Position(fs.End)
		for _, d := range report.Diags(start.Filename) {
			// The compiler splits heap verdicts over two codes: "escapes"
			// (a local moved to the heap) and "escape" (a value boxed by an
			// interface conversion). Both are per-call heap allocations.
			if (d.Code != "escapes" && d.Code != "escape") || d.Line < start.Line || d.Line > end.Line {
				continue
			}
			if d.Message == "" {
				continue // the boxing flavor emits an empty-message twin
			}
			if sanctionedLine(fset, fs, d.Line) {
				continue
			}
			key := fmt.Sprintf("%s:%d:%s", start.Filename, d.Line, d.Code)
			if seen[key] {
				continue
			}
			seen[key] = true
			suffix := ""
			if len(e.chain) > 0 {
				suffix = " (chain: " + root.Name + " -> " + strings.Join(e.chain, " -> ") + ")"
			}
			pass.Reportf(root.Pos,
				"hot path %s has a compiler-reported heap escape in %s: %s at %s%s",
				root.Name, fs.Name, d.Message, shortPosLine(start.Filename, d.Line), suffix)
		}

		push := func(next *flow.FuncFacts, hop string) {
			if next == nil || visited[next] {
				return
			}
			visited[next] = true
			chain := make([]string, len(e.chain), len(e.chain)+1)
			copy(chain, e.chain)
			queue = append(queue, entry{next, append(chain, hop)})
		}
		for _, cs := range fs.CallSites {
			if cs.Sanctioned {
				continue
			}
			if cf := w.FuncFactsOf(cs.Callee); cf != nil {
				push(cf, cf.Name)
			}
		}
		for _, lit := range fs.Lits {
			push(lit, "func literal")
		}
	}

	// Bounds checks: the root's own loops only — per-event work inside the
	// innermost replay loops is what the hot-path floors measure.
	rootFile := fset.Position(root.Pos).Filename
	for _, d := range report.Diags(rootFile) {
		if d.Code != "isInBounds" && d.Code != "isSliceInBounds" {
			continue
		}
		inLoop := false
		for _, span := range root.Loops {
			if d.Line >= fset.Position(span.Start).Line && d.Line <= fset.Position(span.End).Line {
				inLoop = true
				break
			}
		}
		if !inLoop || sanctionedLine(fset, root, d.Line) {
			continue
		}
		key := fmt.Sprintf("%s:%d:%s", rootFile, d.Line, d.Code)
		if seen[key] {
			continue
		}
		seen[key] = true
		pass.Reportf(root.Pos,
			"hot path %s has a compiler-reported bounds check in its inner loop at %s",
			root.Name, shortPosLine(rootFile, d.Line))
	}
}

// sanctionedLine reports whether the summary carries a hotalloc-sanctioned
// allocation or call site on the given line — an acknowledged allocation
// (`//lint:allow hotalloc` at the site), which the compiler will of course
// also report as an escape.
func sanctionedLine(fset *token.FileSet, fs *flow.FuncFacts, line int) bool {
	for _, a := range fs.Allocs {
		if a.Sanctioned && fset.Position(a.Pos).Line == line {
			return true
		}
	}
	for _, cs := range fs.CallSites {
		if cs.Sanctioned && fset.Position(cs.Pos).Line == line {
			return true
		}
	}
	return false
}

func shortPosLine(file string, line int) string {
	return fmt.Sprintf("%s:%d", filepath.Base(file), line)
}

// moduleRoot walks up from dir to the directory containing go.mod, falling
// back to dir itself when none is visible (golden fixtures live outside any
// module; a fake collector ignores the path, and the real harness would
// fail the build with its own diagnostic).
func moduleRoot(dir string) (string, error) {
	d := dir
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir, nil
		}
		d = parent
	}
}

// cachedCollect memoizes gcdiag.Collect per module root: the lint driver
// runs the escapes analyzer once per package on a worker pool, and every
// package of one module shares a single compile.
var (
	collectMu    sync.Mutex
	collectCache = map[string]*collectResult{}
)

type collectResult struct {
	once   sync.Once
	report *gcdiag.Report
	err    error
}

// GCDiagReport returns the process-cached compiler diagnostics of the
// module enclosing dir — the same report the canonical escapes analyzer
// consumes, so the lint driver's -gcdiag artifact dump never pays a second
// compile after the analyzer already ran.
func GCDiagReport(dir string) (*gcdiag.Report, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	return cachedCollect(root)
}

func cachedCollect(root string) (*gcdiag.Report, error) {
	collectMu.Lock()
	entry, ok := collectCache[root]
	if !ok {
		entry = &collectResult{}
		collectCache[root] = entry
	}
	collectMu.Unlock()
	entry.once.Do(func() {
		entry.report, entry.err = gcdiag.Collect(root, "./...")
	})
	return entry.report, entry.err
}
