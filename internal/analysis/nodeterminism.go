package analysis

import (
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// Rules is a bitmask of entropy sources the nodeterminism analyzer forbids
// in a package.
type Rules uint

const (
	// ForbidWallClock forbids reading the wall clock (time.Now, time.Since,
	// time.Until). Simulation-replayable code must take time from
	// simclock.Clock (virtual) or simclock.WallClock (injectable).
	ForbidWallClock Rules = 1 << iota
	// ForbidGlobalRand forbids math/rand and math/rand/v2 entirely: both the
	// global convenience functions (rand.Intn, rand.Float64, ...) whose
	// shared state makes draws depend on goroutine interleaving, and locally
	// constructed generators (rand.New) that bypass the named-substream
	// discipline of internal/rngutil. All randomness in determinism-critical
	// packages must be drawn from an rngutil.Source substream.
	ForbidGlobalRand
	// ForbidEnv forbids reading the process environment (os.Getenv,
	// os.LookupEnv, os.Environ): environment-dependent behavior makes
	// experiment reports machine-dependent.
	ForbidEnv

	// RulesAll enables every rule.
	RulesAll = ForbidWallClock | ForbidGlobalRand | ForbidEnv
)

// DeterminismConfig maps import paths to the rules enforced there. Packages
// absent from the map are not checked.
//
// The first block is the determinism-critical core: every byte of a §7
// experiment report is derived inside these packages, and PR 2's
// byte-identical-for-any-worker-count contract (TestParallelRunnerDeterminism)
// holds only while they stay free of wall-clock reads, global rand state,
// and environment lookups. internal/rngutil is included so that its sole
// sanctioned use of math/rand stays visible as an audited lint:allow
// annotation rather than silently exempt.
//
// The second block is wall-clock hygiene for the deployment path: snmplite,
// ctlplane, and corropt-agent run against real sockets but are also driven
// from sim-replayable harnesses, so they must take time through an
// injectable simclock.WallClock instead of calling time.Now directly.
var DeterminismConfig = map[string]Rules{
	"corropt/internal/sim":           RulesAll,
	"corropt/internal/experiments":   RulesAll,
	"corropt/internal/fleet":         RulesAll,
	"corropt/internal/core":          RulesAll,
	"corropt/internal/core/netstate": RulesAll,
	"corropt/internal/topology":      RulesAll,
	"corropt/internal/runner":        RulesAll,
	"corropt/internal/rngutil":       RulesAll,
	"corropt/internal/simclock":      RulesAll,
	"corropt/internal/scenario":      RulesAll,
	"corropt/internal/backoff":       RulesAll,
	"corropt/internal/netchaos":      RulesAll,

	"corropt/internal/snmplite": ForbidWallClock,
	"corropt/internal/ctlplane": ForbidWallClock,
	"corropt/cmd/corropt-agent": ForbidWallClock,
}

// forbiddenFuncs maps source package path -> function name -> the rule that
// forbids referencing it.
var forbiddenFuncs = map[string]map[string]Rules{
	"time": {
		"Now":   ForbidWallClock,
		"Since": ForbidWallClock,
		"Until": ForbidWallClock,
	},
	"os": {
		"Getenv":    ForbidEnv,
		"LookupEnv": ForbidEnv,
		"Environ":   ForbidEnv,
	},
}

// randPackages are the import paths covered by ForbidGlobalRand.
var randPackages = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// NewNoDeterminism returns the nodeterminism analyzer configured with the
// given package->rules map. The canonical instance is NoDeterminism; tests
// construct instances pointed at golden packages.
func NewNoDeterminism(config map[string]Rules) *Analyzer {
	a := &Analyzer{
		Name: "nodeterminism",
		Doc: "forbids wall-clock reads, math/rand, and environment lookups in " +
			"determinism-critical packages (DESIGN.md §8)",
	}
	a.Run = func(pass *Pass) error {
		rules, ok := config[pass.Path]
		if !ok || rules == 0 {
			return nil
		}
		runNoDeterminism(pass, rules)
		return nil
	}
	return a
}

// NoDeterminism is the canonical nodeterminism analyzer over
// DeterminismConfig.
var NoDeterminism = NewNoDeterminism(DeterminismConfig)

func runNoDeterminism(pass *Pass, rules Rules) {
	// Any reference to a forbidden package-level function is a finding,
	// whether called directly or captured as a value: iterate the use map
	// rather than walking call sites. Findings are sorted by Run, so map
	// order does not leak into output.
	type finding struct {
		pos token.Pos
		msg string
	}
	var found []finding
	flaggedRandFile := make(map[string]bool)
	for ident, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		pkgPath := fn.Pkg().Path()
		if rules&ForbidGlobalRand != 0 && randPackages[pkgPath] && fn.Parent() == fn.Pkg().Scope() {
			found = append(found, finding{ident.Pos(),
				pkgPath + "." + fn.Name() + " forbidden in determinism-critical package: draw randomness from an rngutil.Source substream"})
			flaggedRandFile[pass.Fset.Position(ident.Pos()).Filename] = true
			continue
		}
		byName, ok := forbiddenFuncs[pkgPath]
		if !ok {
			continue
		}
		rule, ok := byName[fn.Name()]
		if !ok || rules&rule == 0 || fn.Parent() != fn.Pkg().Scope() {
			continue
		}
		var hint string
		switch rule {
		case ForbidWallClock:
			hint = "take time from simclock.Clock (virtual) or an injected simclock.WallClock"
		case ForbidEnv:
			hint = "thread configuration through explicit parameters"
		}
		found = append(found, finding{ident.Pos(),
			pkgPath + "." + fn.Name() + " forbidden in determinism-critical package: " + hint})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	for _, f := range found {
		pass.Reportf(f.pos, "%s", f.msg)
	}

	// A math/rand import with no flagged call still smuggles in rand types
	// (e.g. a stored *rand.Rand); flag the import itself in that case.
	if rules&ForbidGlobalRand == 0 {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !randPackages[path] {
				continue
			}
			if flaggedRandFile[pass.Fset.Position(imp.Pos()).Filename] {
				continue
			}
			pass.Reportf(imp.Pos(), "import of %s forbidden in determinism-critical package: derive randomness from rngutil substreams", path)
		}
	}
}
