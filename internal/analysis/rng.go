package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// RNGDiscipline enforces that every random draw and every wall-clock
// read in the module is explicit about its provenance: the paper
// pipeline's determinism pins (scratch-vs-fresh exact search,
// portfolio-vs-pipeline, sampled failure sweeps) are only meaningful if
// all randomness is derived from a caller-supplied seed and no result
// depends on the clock.
//
// Flagged:
//   - time.Now (schedules, seeds, and tie-breaks must not read the
//     clock in deterministic packages);
//   - every package-level function of math/rand and math/rand/v2 except
//     the New* constructors (the process-global source is seeded
//     nondeterministically and shared);
//   - any use of crypto/rand (entropy is never reproducible).
//
// Sanctioned sites opt out either via `//cyclecover:rngok <reason>` on
// the line (or the line above), or wholesale for packages listed in
// RNGAllowTimeNow — the serving layer legitimately reads the clock for
// timeouts and uptime metrics.
var RNGDiscipline = &Analyzer{
	Name: "rngdiscipline",
	Doc: "forbids time.Now, global math/rand draws, and crypto/rand outside the allowlist; " +
		"opt out with //cyclecover:rngok <reason>",
	Run: runRNG,
}

// RNGAllowTimeNow lists import paths where time.Now is sanctioned
// wholesale (server timeouts, uptime metrics). Extend it when a new
// serving-layer package appears; deterministic pipeline packages must
// never be listed (annotate individual lines instead).
var RNGAllowTimeNow = map[string]bool{
	"github.com/cyclecover/cyclecover/internal/server": true,
}

func runRNG(pass *Pass) {
	timeNowAllowed := RNGAllowTimeNow[pass.Pkg.Path()]
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			path, name := pkgName.Imported().Path(), sel.Sel.Name
			switch {
			case path == "time" && name == "Now":
				if !timeNowAllowed && !pass.Exempt(sel.Pos(), "rngok") {
					pass.Reportf(sel.Pos(), "time.Now in a deterministic package; derive from the instance seed or annotate //cyclecover:rngok <reason>")
				}
			case (path == "math/rand" || path == "math/rand/v2") && !strings.HasPrefix(name, "New"):
				if isFunc(pkgName.Imported(), name) && !pass.Exempt(sel.Pos(), "rngok") {
					pass.Reportf(sel.Pos(), "%s.%s draws from the process-global RNG; construct a seeded *rand.Rand or annotate //cyclecover:rngok <reason>", path, name)
				}
			case path == "crypto/rand":
				if !pass.Exempt(sel.Pos(), "rngok") {
					pass.Reportf(sel.Pos(), "crypto/rand is never seed-reproducible; use a seeded math/rand source or annotate //cyclecover:rngok <reason>")
				}
			}
			return true
		})
	}
}

// isFunc reports whether name is a package-level function of pkg (not a
// type or constant — rand.Rand, rand.Source must stay usable).
func isFunc(pkg *types.Package, name string) bool {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return false
	}
	_, ok := obj.(*types.Func)
	return ok
}
