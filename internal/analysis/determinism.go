package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer flags reads of nondeterministic process state —
// the wall clock, the globally seeded math/rand source, process ids —
// outside the configured clock-injection points. The reproduction's
// artifacts (Tables I–II, figures, reports, traces, manifests) must be
// byte-identical across runs, so any code that can influence
// them has to take time and randomness from its caller.
//
// Both calls and bare references are flagged: `f := time.Now` smuggles
// the clock just as effectively as `time.Now()`.
//
// Whole packages on Config.DeterminismExemptPkgs — the serving plane,
// whose latency numbers are wall-clock by nature and never feed a
// reproducible artifact — are skipped entirely.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "wall clock / global rand / pid reads outside clock-injection points",
	Run:  runDeterminism,
}

// nondetFuncs maps package path → function names whose results differ
// run to run. The math/rand entries are the package-level convenience
// functions drawing from the global source; rand.New(rand.NewSource(s))
// is seeded and fine.
var nondetFuncs = map[string]map[string]bool{
	"time": set("Now", "Since", "Until"),
	"os":   set("Getpid", "Getppid", "Hostname"),
	"math/rand": set(
		"Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
		"Uint32", "Uint64", "Float32", "Float64", "ExpFloat64", "NormFloat64",
		"Perm", "Shuffle", "Read", "Seed",
	),
	"math/rand/v2": set(
		"Int", "IntN", "Int32", "Int32N", "Int64", "Int64N",
		"Uint", "UintN", "Uint32", "Uint32N", "Uint64", "Uint64N",
		"Float32", "Float64", "ExpFloat64", "NormFloat64", "Perm", "Shuffle", "N",
	),
}

func set(names ...string) map[string]bool { return stringSet(names) }

// determinismExempt reports whether pkgPath is covered by the exemption
// list: an exact entry, or a subtree when the entry ends in "/".
func determinismExempt(exempt []string, pkgPath string) bool {
	for _, e := range exempt {
		if e == pkgPath {
			return true
		}
		if strings.HasSuffix(e, "/") && strings.HasPrefix(pkgPath, e) {
			return true
		}
	}
	return false
}

func runDeterminism(pass *Pass) {
	if determinismExempt(pass.Config.DeterminismExemptPkgs, pass.Pkg.PkgPath) {
		return
	}
	allowed := stringSet(pass.Config.ClockInjectionPoints)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Pkg.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			fn, isFunc := obj.(*types.Func)
			if !isFunc {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // a method (e.g. seeded (*rand.Rand).Float64), not the package-level func
			}
			names := nondetFuncs[obj.Pkg().Path()]
			if names == nil || !names[obj.Name()] {
				return true
			}
			if fn := enclosingFuncName(pass.Pkg, file, sel.Pos()); allowed[fn] {
				return true
			}
			pass.Reportf(sel.Pos(), "%s.%s is nondeterministic; take a clock/seed from the caller (allowed only in clock-injection points)",
				obj.Pkg().Path(), obj.Name())
			return true
		})
	}
}
