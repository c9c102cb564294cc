package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corropt/internal/analysis"
	"corropt/internal/analysis/analysistest"
	"corropt/internal/analysis/gcdiag"
)

// TestNoDeterminism pins the nodeterminism analyzer against golden packages:
// nodet carries every forbidden entropy source plus lint:allow negative
// cases, nodet_wall checks the per-package rules mapping (wall clock only),
// and nodet_off must produce nothing because it is absent from the config.
func TestNoDeterminism(t *testing.T) {
	a := analysis.NewNoDeterminism(map[string]analysis.Rules{
		"nodet":      analysis.RulesAll,
		"nodet_wall": analysis.ForbidWallClock,
	})
	analysistest.Run(t, "testdata", a, "nodet", "nodet_wall", "nodet_off")
}

// mapRangeGolden is the maprange analyzer the goldens run: mapr is in its
// config, floatord is not.
func mapRangeGolden() *analysis.Analyzer {
	return analysis.NewMapRange(map[string]bool{"mapr": true})
}

// TestMapRange pins maprange inside its configured packages: map-order
// leaks (float folds included, reported once at the loop) are flagged,
// collect-then-sort / integer reductions / annotated loops are not.
func TestMapRange(t *testing.T) {
	analysistest.Run(t, "testdata", mapRangeGolden(), "mapr")
}

// TestFloatOrder pins maprange's fold rule in a package outside its
// config: += / -= / x = x + y folds of float accumulators over map
// iteration or channel arrival order are flagged (including struct-field
// accumulators and direct receives), while sorted-key sweeps, integer
// folds, unsorted collection, loop-local accumulators, and annotated folds
// stay silent.
func TestFloatOrder(t *testing.T) {
	analysistest.Run(t, "testdata", mapRangeGolden(), "floatord")
}

// TestErrWrap pins the errwrap analyzer: %w enforcement plus dropped-error
// detection in errw, %w only in wraponly.
func TestErrWrap(t *testing.T) {
	a := analysis.NewErrWrap(analysis.ErrWrapConfig{
		WrapPrefixes:    []string{"errw", "wraponly"},
		DroppedPrefixes: []string{"errw"},
	})
	analysistest.Run(t, "testdata", a, "errw", "wraponly")
}

// TestLockOrder pins the lockorder analyzer: opposite-order acquisition
// cycles (reported once at the earliest witness), direct and call-mediated
// reacquisition, and channel/WaitGroup/IO blocking under a held lock —
// including `defer Unlock` held-through-body semantics, a multi-line
// blocking call, and lint:allow handling (valid reason suppresses, missing
// reason is itself a finding).
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockOrder, "lockord")
}

// TestGoroLife pins the gorolife analyzer with `// want` expectations on
// `go func` literal lines: WaitGroup joins, channel send/close joins, stop
// channels, and contexts are accepted (directly or through callees);
// fire-and-forget literals, leaky declared functions, and dynamic function
// values are flagged.
func TestGoroLife(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.GoroLife, "goro")
}

// TestCtxDeadline pins the ctxdeadline analyzer over a golden deployment
// package: op-owner reporting at unguarded blocking ops (including the
// one-branch-only and deferred-setter must-analysis cases), caller-guards
// contract inference (exchange arms pump's read, so only the unguarded call
// sites are findings, with one- and two-hop chains), stop-channel and
// ctx.Done exemptions, goroutine handoff, and lint:allow suppression.
func TestCtxDeadline(t *testing.T) {
	a := analysis.NewCtxDeadline(map[string]bool{"ctxdl": true})
	analysistest.Run(t, "testdata", a, "ctxdl")
}

// TestResLife pins the reslife analyzer: leaks on early returns, unstopped
// tickers, err-variable reuse across acquisitions, and literal bodies are
// flagged at the acquisition; error-guard edges, deferred Close, returns,
// struct-field adoption, map registration, goroutine/channel/closure
// handoff, nil-guards, and lint:allow stay silent.
func TestResLife(t *testing.T) {
	a := analysis.NewResLife(map[string]bool{"reslf": true})
	analysistest.Run(t, "testdata", a, "reslf")
}

// TestEscapes pins the escapes analyzer's attribution logic against a fake
// compiler collector that synthesizes diagnostics from gc:escapes /
// gc:bounds markers in the golden sources: escapes anywhere in the root's
// transitive chain, across packages too (with the shortest chain in the
// message), bounds checks only in the root's own loops, sanctioned lines
// skipped and sanctioned calls not descended (in the root's package or the
// callee's), go statements not descended, root-level allows, non-hotpath
// functions ignored.
func TestEscapes(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.NewEscapes(markerCollector(t)), "escp")
}

// TestHotAlloc pins that hot paths are held allocation-free by compiler
// verdicts rather than allocation syntax: a stack-kept make is no finding,
// interface boxing is reported once despite its empty-message twin, and
// escapes behind method calls and call cycles carry the shortest chain,
// once per root that reaches them.
func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.NewEscapes(markerCollector(t)), "escalloc")
}

// markerCollector builds a gcdiag report from gc:escapes / gc:bounds line
// markers in the golden sources beside dir's package (so escp's dependency
// escpdep is covered), keyed by the same relative paths the analysistest
// loader hands the fileset.
func markerCollector(t *testing.T) analysis.Collector {
	return func(dir string) (*gcdiag.Report, error) {
		t.Helper()
		report := &gcdiag.Report{ByFile: map[string][]gcdiag.Diag{}}
		paths, err := filepath.Glob(filepath.Join(filepath.Dir(dir), "*", "*.go"))
		if err != nil {
			return nil, err
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			for i, line := range strings.Split(string(data), "\n") {
				switch {
				case strings.Contains(line, "// gc:escapes"):
					report.ByFile[path] = append(report.ByFile[path], gcdiag.Diag{
						File: path, Line: i + 1, Code: "escapes", Message: "value escapes to heap",
					})
				case strings.Contains(line, "// gc:boxes"):
					// Interface boxing: the compiler's "escape" code, emitted
					// with an empty-message twin.
					report.ByFile[path] = append(report.ByFile[path],
						gcdiag.Diag{File: path, Line: i + 1, Code: "escape", Message: "x escapes to heap"},
						gcdiag.Diag{File: path, Line: i + 1, Code: "escape"},
					)
				case strings.Contains(line, "// gc:bounds"):
					report.ByFile[path] = append(report.ByFile[path], gcdiag.Diag{
						File: path, Line: i + 1, Code: "isInBounds", Message: "Found IsInBounds",
					})
				}
			}
		}
		return report, nil
	}
}
