// Command corropt-lint is the multichecker driver for the repository's
// determinism & safety analyzer suite (internal/analysis): nodeterminism,
// maprange, errwrap, mutexheld, the flow-powered lockorder, gorolife,
// aliasescape, and stalecache, the call-graph proof analyzers hotalloc and
// floatorder, the deployment liveness & lifecycle analyzers ctxdeadline and
// reslife, and the compiler cross-validation analyzer escapes (backed by
// internal/analysis/gcdiag). It is the custom third leg of `make lint` next
// to `go vet` and staticcheck, and the permanent CI gate on the determinism
// contract behind the §7 experiment reports.
//
// Usage:
//
//	corropt-lint [-list] [-json] [-workers n] [-why] [-diff ref] [-gcdiag file] [packages]
//
// Packages default to ./... relative to the current directory. All packages
// are loaded up front and summarized into one module-wide flow world (lock
// graph, goroutine join facts, alias-returning accessors, allocation and
// float-accumulation effects over the static call graph), then the
// analyzers run per package on a bounded worker pool (internal/runner) and
// the findings are merged in deterministic package/position order — output
// is byte-identical for any -workers value.
//
// -diff ref restricts the analysis to packages transitively affected by the
// git diff against ref: the packages whose directories hold changed .go
// files, plus everything that imports them, directly or through other
// module packages. The whole module is still loaded and summarized — flow
// facts are interprocedural, so a correct world needs every package — but
// the per-package analyzer passes (including the escapes analyzer's
// compiler run) only fan out over the affected closure. `make lint-fast`
// and the pre-commit hook in scripts/ use this for sub-second edit loops.
//
// -gcdiag file dumps the compiler optimization-diagnostics report (the
// gcdiag parse of `go build -gcflags=-json=0,<dir>` over the module) as
// JSON to file — CI publishes it as an artifact next to the lint report.
// The dump reuses the escapes analyzer's cached compile when that analyzer
// already ran in this process.
//
// -json emits an object: "stats" summarizes the flow world's call graph
// (packages, functions, func_lits, call_edges, hotpath_roots), and
// "findings" holds the findings ({file, line, col, analyzer, message,
// suppressed}), including suppressed ones so the `//lint:allow`
// exception inventory stays visible to tooling; text output prints only the
// live findings.
//
// -why expands the `(chain: root -> ... -> callee)` suffix hotalloc attaches
// to its findings onto indented continuation lines, one hop per line, so
// long cross-package chains stay readable in terminals.
//
// Exit status is 1 when any finding survives suppression, 2 on operational
// errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"corropt/internal/analysis"
	"corropt/internal/analysis/flow"
	"corropt/internal/runner"
)

// jsonReport is the -json wire form: call-graph stats from the shared flow
// world, then every finding.
type jsonReport struct {
	Stats    flow.WorldStats `json:"stats"`
	Findings []jsonFinding   `json:"findings"`
}

// splitChain splits the "(chain: a -> b)" suffix hotalloc appends off a
// message, returning the bare message and the hop list (nil when the
// message carries no chain).
func splitChain(msg string) (string, []string) {
	i := strings.LastIndex(msg, " (chain: ")
	if i < 0 || !strings.HasSuffix(msg, ")") {
		return msg, nil
	}
	inner := msg[i+len(" (chain: ") : len(msg)-1]
	return msg[:i], strings.Split(inner, " -> ")
}

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// git runs one git subcommand and returns its trimmed stdout.
func git(args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("git %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return strings.TrimSpace(stdout.String()), nil
}

// changedGoDirs returns the absolute directories holding .go files that
// differ from ref (working tree included, so staged and unstaged edits both
// count; brand-new files must be staged to appear, which the pre-commit
// flow guarantees).
func changedGoDirs(ref string) (map[string]bool, error) {
	top, err := git("rev-parse", "--show-toplevel")
	if err != nil {
		return nil, err
	}
	names, err := git("diff", "--name-only", ref, "--", "*.go")
	if err != nil {
		return nil, err
	}
	dirs := make(map[string]bool)
	for _, name := range strings.Split(names, "\n") {
		if name = strings.TrimSpace(name); name != "" {
			dirs[filepath.Dir(filepath.Join(top, name))] = true
		}
	}
	return dirs, nil
}

// affectedPackages computes the reverse-dependency closure of the packages
// rooted in the changed directories: a package is affected when its own
// directory changed or when any of its imports (transitively, within the
// load set) is affected.
func affectedPackages(pkgs []*analysis.Package, changedDirs map[string]bool) map[string]bool {
	affected := make(map[string]bool)
	for _, p := range pkgs {
		if changedDirs[p.Dir] {
			affected[p.Path] = true
		}
	}
	// pkgs arrive in dependency order (imports before importers), so one
	// forward sweep per newly affected layer converges; iterate to fixpoint
	// to stay correct regardless of ordering.
	for changed := true; changed; {
		changed = false
		for _, p := range pkgs {
			if affected[p.Path] {
				continue
			}
			for _, imp := range p.Imports {
				if affected[imp] {
					affected[p.Path] = true
					changed = true
					break
				}
			}
		}
	}
	return affected
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit an object with call-graph stats and all findings (including suppressed ones)")
	workers := flag.Int("workers", 0, "analyzer worker pool size (<=0: one per CPU); output is identical for any value")
	why := flag.Bool("why", false, "expand hotalloc call chains onto indented lines")
	diffRef := flag.String("diff", "", "lint only packages transitively affected by the git diff against `ref`")
	gcdiagPath := flag.String("gcdiag", "", "write the compiler optimization-diagnostics report (gcdiag JSON) to `file`")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: corropt-lint [-list] [-json] [-workers n] [-why] [-diff ref] [-gcdiag file] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the determinism & safety analyzer suite; see DESIGN.md §8.\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "corropt-lint: %v\n", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fail(err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		cwd = ""
	}

	world := analysis.BuildWorld(pkgs)

	// -diff: narrow the per-package passes to the reverse-dependency closure
	// of the changed directories. The world above still spans the whole load
	// set — interprocedural facts must not shrink with the diff.
	lintPkgs := pkgs
	if *diffRef != "" {
		dirs, err := changedGoDirs(*diffRef)
		if err != nil {
			fail(err)
		}
		affected := affectedPackages(pkgs, dirs)
		lintPkgs = nil
		for _, p := range pkgs {
			if affected[p.Path] {
				lintPkgs = append(lintPkgs, p)
			}
		}
		fmt.Fprintf(os.Stderr, "corropt-lint: -diff %s: %d of %d packages affected\n",
			*diffRef, len(lintPkgs), len(pkgs))
	}

	// Per-package analyzer runs fan out on the pool; runner.Map returns the
	// results in package index order, so the merged output is deterministic
	// for any worker count.
	perPkg, err := runner.Map(*workers, len(lintPkgs), func(i int) ([]analysis.Finding, error) {
		return analysis.RunDetailed(lintPkgs[i], analyzers, world)
	})
	if err != nil {
		fail(err)
	}

	var out []jsonFinding
	live := 0
	for i, findings := range perPkg {
		for _, f := range findings {
			pos := lintPkgs[i].Fset.Position(f.Pos)
			name := pos.Filename
			if cwd != "" {
				if rel, err := filepath.Rel(cwd, name); err == nil {
					name = rel
				}
			}
			out = append(out, jsonFinding{
				File: name, Line: pos.Line, Col: pos.Column,
				Analyzer: f.Analyzer, Message: f.Message,
				Suppressed: f.Suppressed,
			})
			if !f.Suppressed {
				live++
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if out == nil {
			out = []jsonFinding{}
		}
		report := jsonReport{Stats: world.Stats(), Findings: out}
		if err := enc.Encode(report); err != nil {
			fail(err)
		}
	} else {
		for _, f := range out {
			if f.Suppressed {
				continue
			}
			msg := f.Message
			var chain []string
			if *why {
				msg, chain = splitChain(msg)
			}
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, msg)
			for i, hop := range chain {
				if i == 0 {
					fmt.Printf("\tchain: %s\n", hop)
				} else {
					fmt.Printf("\t    -> %s\n", hop)
				}
			}
		}
	}
	// The gcdiag artifact is written before the exit-status decision so CI
	// gets the report even when the tree is dirty. When the escapes analyzer
	// already compiled the module in this process the cached report is
	// reused; otherwise this is the one compile.
	if *gcdiagPath != "" {
		report, err := analysis.GCDiagReport(".")
		if err != nil {
			fail(err)
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*gcdiagPath, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
	}

	if live > 0 {
		fmt.Fprintf(os.Stderr, "corropt-lint: %d finding(s)\n", live)
		os.Exit(1)
	}
}
