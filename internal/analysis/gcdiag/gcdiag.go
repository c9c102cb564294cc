// Package gcdiag runs the Go compiler's optimization-diagnostics mode
// (`go build -gcflags=-json=0,<dir>`) over a module and parses the LSP-style
// JSON stream it emits per package: heap escapes, bounds checks, inlining
// decisions, nil-check eliminations. The escapes analyzer
// (internal/analysis) holds every `//lint:hotpath` root's call chain to
// these verdicts: the compiler reports what actually survived escape
// analysis and bounds-check elimination, so a missed inline or an escaping
// local on a hot path fails at lint time with a source position, not only
// in the measured floors.
//
// Mechanics: the -json=0,<dir> flag writes one <dir>/<pkg path>/<pkg>.json
// file per compiled package, a stream of JSON objects. Header objects carry
// a "file" key (absolute path) and set the current file for the diagnostics
// that follow; diagnostic objects carry an LSP Diagnostic shape — a "range"
// with 1-based lines, a "code" ("escapes", "leak", "isInBounds",
// "isSliceInBounds", "canInlineFunction", ...), and a human "message".
// Because the temp dir appears inside the -gcflags value,
// every Collect call gets a fresh build-cache key and the module packages
// always recompile (stdlib dependencies stay cached), so diagnostics are
// never swallowed by a warm cache.
package gcdiag

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Diag is one compiler diagnostic, attributed to a file and 1-based line.
type Diag struct {
	// File is the absolute path of the source file.
	File string `json:"file"`
	// Line is the 1-based source line (the compiler emits 1-based lines in
	// the LSP range, unlike the LSP spec's 0-based convention).
	Line int `json:"line"`
	// Code is the diagnostic kind: "escapes" (a local moved to the heap),
	// "escape" (a value boxed by an interface conversion — this flavor also
	// emits an empty-message twin diagnostic on the same line), "leak",
	// "isInBounds", "isSliceInBounds", "canInlineFunction",
	// "cannotInlineFunction", "inlineCall", "nilcheck", ...
	Code string `json:"code"`
	// Message is the compiler's text, e.g. "x escapes to heap".
	Message string `json:"message"`
}

// A Report is the parsed diagnostic set of one build, indexed by file.
type Report struct {
	// ByFile maps absolute file paths to their diagnostics, line order.
	ByFile map[string][]Diag `json:"by_file"`
}

// Diags returns the diagnostics of one file (by absolute path), nil when
// the file produced none.
func (r *Report) Diags(file string) []Diag {
	if r == nil {
		return nil
	}
	return r.ByFile[file]
}

// Total counts all diagnostics in the report.
func (r *Report) Total() int {
	n := 0
	for _, ds := range r.ByFile {
		n += len(ds)
	}
	return n
}

// Collect compiles the given patterns of the module rooted at dir with
// optimization diagnostics enabled and parses every emitted package stream
// into one Report. Binaries land in a temp dir, never in the tree.
func Collect(dir string, patterns ...string) (*Report, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	tmp, err := os.MkdirTemp("", "gcdiag-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	diagDir := filepath.Join(tmp, "diag")
	binDir := filepath.Join(tmp, "bin")
	if err := os.MkdirAll(diagDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}

	var run func(output bool) error
	run = func(output bool) error {
		args := []string{"build"}
		if output {
			args = append(args, "-o", binDir+string(filepath.Separator))
		}
		args = append(args, "-gcflags=-json=0,"+diagDir)
		args = append(args, patterns...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			// Library-only modules (analyzer test fixtures) reject -o; retry
			// without it — with no main packages nothing is written anywhere.
			if output && strings.Contains(stderr.String(), "no main packages") {
				return run(false)
			}
			return fmt.Errorf("gcdiag: go build: %w\n%s", err, stderr.String())
		}
		return nil
	}
	if err := run(true); err != nil {
		return nil, err
	}

	report := &Report{ByFile: make(map[string][]Diag)}
	err = filepath.WalkDir(diagDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return parseStream(f, report)
	})
	if err != nil {
		return nil, err
	}
	for file := range report.ByFile {
		ds := report.ByFile[file]
		sort.SliceStable(ds, func(i, j int) bool { return ds[i].Line < ds[j].Line })
	}
	return report, nil
}

// streamObject is the union of the two object shapes in a package's
// diagnostic stream: headers carry File (and version/package metadata);
// diagnostics carry Code/Message/Range.
type streamObject struct {
	File    string `json:"file"`
	Code    string `json:"code"`
	Message string `json:"message"`
	Range   struct {
		Start struct {
			Line int `json:"line"`
		} `json:"start"`
	} `json:"range"`
}

// parseStream reads one package's JSON object stream into the report.
// Header objects ({"file": "/abs/path", "version": ...}) switch the current
// file; diagnostic objects attach to it.
func parseStream(f *os.File, report *Report) error {
	dec := json.NewDecoder(bufio.NewReader(f))
	current := ""
	for dec.More() {
		var obj streamObject
		if err := dec.Decode(&obj); err != nil {
			return fmt.Errorf("gcdiag: %s: %w", f.Name(), err)
		}
		if obj.File != "" && obj.Code == "" {
			current = obj.File
			continue
		}
		if current == "" || obj.Code == "" {
			continue
		}
		report.ByFile[current] = append(report.ByFile[current], Diag{
			File:    current,
			Line:    obj.Range.Start.Line,
			Code:    obj.Code,
			Message: obj.Message,
		})
	}
	return nil
}
